"""Sublattice Fourier transform built on the q-trigonometric kernel.

Samples live on one parity family of the geometric lattice: the even
family indexes the points q^(-2k), the odd family the points q^(-2k+1).
The transform pairs a sequence with its expansion coefficients through
the kernel cos_q(q^(-2(k+n))) (or the sin_q analogue) and the summation
weight q^(-2k).  The kernel argument is always an even power, whatever
the family; the family changes only the points the values refer to and
the weight used in norms.

The defining sums run over all integers.  Here they are truncated to the
sequence window, so every transform checks that the weighted summands
have decayed to TAIL_TOL of their peak at the window edges and refuses
to silently drop a fat tail.  The step-function sums have no window of
their own: they run over as many sites as it takes for the geometric
tail they drop to fall below STEP_TOL.
"""

import math

import numpy as np

from .integration import NotConverged
from .special import SpecialFunctions

_FAMILIES = ("even", "odd")

TAIL_TOL = 1e-10
STEP_TOL = 1e-14


class SublatticeSeq:
    """Finite window of samples on one parity family of the lattice."""

    __slots__ = ("ctx", "k_min", "values", "family")

    def __init__(self, ctx, k_min, values, family="even"):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.ctx = ctx
        self.k_min = int(k_min)
        self.values = np.asarray(values, dtype=complex)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        self.family = family

    @property
    def k_max(self):
        return self.k_min + self.values.size - 1

    def indices(self):
        return range(self.k_min, self.k_max + 1)

    def weight(self, k):
        expo = -2 * k if self.family == "even" else -2 * k + 1
        return self.ctx.qpow(expo)

    # -- algebra ---------------------------------------------------------

    def _check_compatible(self, other):
        if self.ctx is not other.ctx and self.ctx.q != other.ctx.q:
            raise ValueError("mixed deformation parameters")
        if self.family != other.family:
            raise ValueError("mixed parity families")
        if self.k_min != other.k_min or self.values.size != other.values.size:
            raise ValueError("window mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        return SublatticeSeq(self.ctx, self.k_min, self.values + other.values,
                             self.family)

    def __sub__(self, other):
        self._check_compatible(other)
        return SublatticeSeq(self.ctx, self.k_min, self.values - other.values,
                             self.family)

    def scale(self, v):
        return SublatticeSeq(self.ctx, self.k_min, self.values * complex(v),
                             self.family)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def weighted_norm_sq(self):
        """Sum of weight(k) |f(k)|^2 over the window."""
        acc = 0.0
        for k in self.indices():
            acc += self.weight(k) * abs(self.values[k - self.k_min]) ** 2
        return acc


class QFourier:
    """Kernel sums over a fixed deformation parameter.

    Kernel values come from the kernel store of qcalc.special, which
    every transform and representation at this q shares: only the first
    request of a value sums its series, and a transform on a window
    already seen costs its lookups and one dense matrix product.
    """

    def __init__(self, ctx):
        if ctx.exact:
            raise ValueError("transforms need the double backend")
        self.ctx = ctx
        self.sf = SpecialFunctions(ctx)
        self._nq = self.sf.n_q()

    def kernel(self, j, kind="cos"):
        z = self.ctx.qpow(-2 * j)
        return self.sf.cos_q(z) if kind == "cos" else self.sf.sin_q(z)

    # -- sequence transform -------------------------------------------------

    def transform(self, f, kind="cos"):
        """Expand f in the chosen kernel family; also its own inverse.

        Raises NotConverged when the weighted summand has not decayed
        below TAIL_TOL (relative to its peak) at the window edges.
        """
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown kernel {kind!r}")
        k_idx = np.arange(f.k_min, f.k_max + 1)
        w = self.ctx.q ** (-2.0 * k_idx)
        wf = w * f.values
        scale = float(np.max(np.abs(wf)))
        if scale == 0.0:
            return SublatticeSeq(self.ctx, f.k_min,
                                 np.zeros_like(f.values), f.family)
        edge = max(abs(wf[0]), abs(wf[-1]))
        if edge > TAIL_TOL * scale:
            raise NotConverged(
                f"weighted summand at window edge is {edge / scale:.2e} of peak")
        j_lo = 2 * f.k_min
        j_hi = 2 * f.k_max
        kern = np.array([self.kernel(j, kind) for j in range(j_lo, j_hi + 1)])
        K = kern[np.add.outer(k_idx, k_idx) - j_lo]
        g = self._nq * (K @ wf)
        return SublatticeSeq(self.ctx, f.k_min, g, f.family)

    def qft_cos(self, f):
        return self.transform(f, "cos")

    def qft_cos_inverse(self, g):
        # the kernel matrix is symmetric in (k, n); both directions are
        # the same sum, which is why the double transform is the identity
        return self.transform(g, "cos")

    def qft_sin(self, f):
        return self.transform(f, "sin")

    def qft_sin_inverse(self, g):
        return self.transform(g, "sin")

    # -- step function -------------------------------------------------------

    def _auto_floor(self):
        # geometric tail of sum_{n < floor} q^(2n): keep it below STEP_TOL
        return int(math.floor(math.log(STEP_TOL * (1 - self.ctx.qpow(-2)))
                              / (2 * math.log(self.ctx.q)))) - 1

    def step_transform(self, M, k_indices):
        """Transform of the cut-off sequence (1 for n <= M, else 0).

        Points here sit at the positive powers q^(2k).  Returns {k: value}.
        """
        n_min = self._auto_floor()
        out = {}
        for k in k_indices:
            acc = 0.0
            for n in range(n_min, M + 1):
                acc += self.ctx.qpow(2 * n) * self.sf.cos_q(self.ctx.qpow(2 * (k + n)))
            out[k] = self._nq * acc
        return out

    def step_closed_form(self, M, k):
        return self._nq * self.ctx.qpow(-2 * k) \
            * self.sf.sin_q(self.ctx.qpow(2 * (k + M)))

    def step_inverse(self, M, n_indices):
        """Transform the closed form back; recovers the cut-off sequence."""
        k_min = self._auto_floor() - abs(M)
        k_max = -self._auto_floor() + abs(M)
        out = {}
        for n in n_indices:
            acc = 0.0
            for k in range(k_min, k_max + 1):
                acc += self.ctx.qpow(2 * k) \
                    * self.sf.cos_q(self.ctx.qpow(2 * (k + n))) \
                    * self.step_closed_form(M, k)
            out[n] = acc * self._nq
        return out
