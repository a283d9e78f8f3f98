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
from collections import OrderedDict, namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .integration import NotConverged
from .lattice import running_sum
from .special import SpecialFunctions

_FAMILIES = ("even", "odd")

TAIL_TOL = 1e-10
STEP_TOL = 1e-14

# The scaled kernel product: a kept matrix's largest entry lies in
# [2^(_MATRIX_EXP - 1), 2^_MATRIX_EXP), and the samples are scaled so that
# a sum of N products of matrix entries and samples stays below
# 2^_SUM_EXP.  Kernel rows peak near one, so 2^64 lifts every subnormal
# entry into the normal range, and samples on 81 sites are scaled up,
# not down, while their peak stays below 2^951.
_MATRIX_EXP = 64
_SUM_EXP = 1022

# Bound of the kept kernel matrices: complex entries across every q
# (512 kB: both kinds at two q for windows of 81 sites, one matrix of up
# to 181 sites).
MAX_MATRIX_ENTRIES = 1 << 15

# A transform's kernel matrix on the window (k_min, k_max), with the
# window's weights and the matrix's scale exponent s
KeptMatrix = namedtuple("KeptMatrix", "window weights matrix s")

# (q, kind) -> the KeptMatrix of the last window a transform at q built
# one on, least recently used first; _kept_entries sums their entries
_KEPT = OrderedDict()
_kept_entries = 0


def _keep(key, held):
    """Keep held for key in place of the matrix kept before, and let go of
    the least recently used matrices till at most MAX_MATRIX_ENTRIES
    entries are kept; a matrix of more entries is not kept."""
    global _kept_entries
    if held.matrix.size > MAX_MATRIX_ENTRIES:
        return
    old = _KEPT.pop(key, None)
    _kept_entries += held.matrix.size - (old.matrix.size if old else 0)
    _KEPT[key] = held
    while _kept_entries > MAX_MATRIX_ENTRIES:
        _kept_entries -= _KEPT.popitem(last=False)[1].matrix.size


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
        """Sum of the weight q^(-2k) (even family) or q^(-2k+1) (odd) times
        |f(k)|^2 over the window, added in order of k."""
        odd = self.family == "odd"
        weight = SpecialFunctions(self.ctx).point_row(
            odd - 2 * self.k_max, odd - 2 * self.k_min)[::-1]
        v = self.values
        # pow(hypot, 2) is the rounding abs(v) ** 2 gives; np.abs differs
        return running_sum(weight * np.float_power(np.hypot(v.real, v.imag),
                                                   2.0))


class QFourier:
    """Kernel sums over a fixed deformation parameter.

    Kernels and lattice points come as rows indexed by the exponent from
    the kernel store of qcalc.special, which every transform and
    representation at this q shares: only the first request of a value
    sums its series.  Per q and kernel kind this module keeps, for the
    last window any transform at that q built one on, the weights and
    the kernel matrix, so a transform on that window again costs one
    matrix-vector product.  A new window replaces them, and they go when
    matrices used since need their room (MAX_MATRIX_ENTRIES across every
    q), whether or not the kernel store still holds q's rows.

    The kept matrix is the complex Hankel matrix of the kernel row times
    an exact 2^s.  Each transform multiplies the weighted samples by an
    exact 2^t, as large as the sum of N products and a normal
    N_q 2^-(s+t) allow, and the sum by N_q 2^-(s+t), once.  Where the
    unscaled product rounded through subnormals (kernels at q = 2 reach
    4e-319) this one rounds in the normal range, several times faster;
    every entry whose unscaled sum never rounded through subnormals
    keeps its bits.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self.sf = SpecialFunctions(ctx)
        self._nq = self.sf.n_q()
        # the largest s + t that keeps N_q 2^-(s+t) a normal double
        self._lift = math.frexp(self._nq)[1] + 1021

    # -- sequence transform -------------------------------------------------

    def transform(self, f, kind="cos"):
        """Expand f in the chosen kernel family; also its own inverse.

        Raises NotConverged when the weighted summand has not decayed
        below TAIL_TOL (relative to its peak) at the window edges.
        """
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown kernel {kind!r}")
        window = (f.k_min, f.k_max)
        key = (self.ctx.q, kind)
        held = _KEPT.get(key)
        if held is not None and held.window == window:
            _KEPT.move_to_end(key)
            weights = held.weights
        else:
            # the weights q^(-2k), k = k_min ... k_max
            weights = self.sf.point_row(-2 * f.k_max, -2 * f.k_min)[::-1]
            held = None
        wf = weights * f.values
        scale = float(np.max(np.abs(wf)))
        if scale == 0.0:
            return SublatticeSeq(self.ctx, f.k_min,
                                 np.zeros_like(f.values), f.family)
        edge = max(abs(wf[0]), abs(wf[-1]))
        # fails closed: a NaN anywhere or an inf peak makes scale non-finite
        if not (edge <= TAIL_TOL * scale and math.isfinite(scale)):
            raise NotConverged(
                f"weighted summand at window edge is {edge / scale:.2e} of peak")
        if held is None:
            # a copy, so a kept matrix never keeps a replaced point row alive
            held = KeptMatrix(window, weights.copy(),
                              *self._kernel_matrix(kind, *window))
            _keep(key, held)
        K, s = held.matrix, held.s
        lift = 0  # s + t, undone on N_q
        if s is not None:
            # N products of entries below 2^_MATRIX_EXP and 2^(peak + t)
            t = min(_SUM_EXP - (wf.size - 1).bit_length() - _MATRIX_EXP
                    - math.frexp(scale)[1], self._lift - s)
            # as floats, so the imaginary parts keep the signs of zeros
            wf = (wf.view(float) * math.ldexp(1.0, t)).view(complex)
            lift = s + t
        g = math.ldexp(self._nq, -lift) * (K @ wf)
        return SublatticeSeq(self.ctx, f.k_min, g, f.family)

    def _kernel_matrix(self, kind, k_min, k_max):
        """(K, s): K[a, b] the kernel at q^(-2(k_min + a + k_min + b))
        times 2^s, complex, as K @ wf would cast it on every call.  s is
        None, and K unscaled, when the kernel row is zero, not finite,
        or peaks at 2^_MATRIX_EXP or above."""
        # entry i of the row is the kernel at q^(-2j), j = 2 k_max - i:
        # reversed, K[a, b] is its entry a + b
        row = self.sf.kernel_row(kind, -4 * k_max, -4 * k_min)[::-1]
        top = float(np.max(np.abs(row)))
        s = None
        if 0.0 < top < 2.0 ** _MATRIX_EXP:
            s = _MATRIX_EXP - math.frexp(top)[1]
            row = np.ldexp(row, s)
        K = sliding_window_view(row, k_max - k_min + 1).astype(complex)
        return K, s

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
        ks = list(k_indices)
        k_lo = min(ks)
        sf = self.sf
        kern = sf.kernel_row("cos", 2 * (k_lo + n_min), 2 * (max(ks) + M))
        # like the Python floats these sums replace, pass inf and NaN silently
        with np.errstate(over="ignore", invalid="ignore"):
            # terms[k, n] = q^(2n) cos_q(q^(2(k+n))), n = n_min ... M
            terms = sf.point_row(2 * n_min, 2 * M) * kern[np.add.outer(
                np.subtract(ks, k_lo), np.arange(M - n_min + 1))]
            sums = self._nq * running_sum(terms)
        return dict(zip(ks, sums.tolist()))

    def step_closed_form(self, M, k):
        return self._nq * self.ctx.qpow(-2 * k) \
            * self.sf.sin_q(self.ctx.qpow(2 * (k + M)))

    def step_inverse(self, M, n_indices):
        """Transform the closed form back; recovers the cut-off sequence."""
        k_min = self._auto_floor() - abs(M)
        k_max = -self._auto_floor() + abs(M)
        ns = list(n_indices)
        n_lo = min(ns)
        sf = self.sf
        kern = sf.kernel_row("cos", 2 * (k_min + n_lo), 2 * (k_max + max(ns)))
        with np.errstate(over="ignore", invalid="ignore"):
            # step_closed_form(M, k), k = k_min ... k_max
            closed = self._nq * sf.point_row(-2 * k_max, -2 * k_min)[::-1] \
                * sf.kernel_row("sin", 2 * (k_min + M), 2 * (k_max + M))
            # terms[n, k] = q^(2k) cos_q(q^(2(k+n))) step_closed_form(M, k)
            terms = sf.point_row(2 * k_min, 2 * k_max) * kern[np.add.outer(
                np.subtract(ns, n_lo), np.arange(k_max - k_min + 1))] * closed
            sums = running_sum(terms) * self._nq
        return dict(zip(ns, sums.tolist()))

