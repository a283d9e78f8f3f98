"""Sampled fields and stencil operators on the q-lattice x = sigma q^n.

A LatticeFn stores complex values on a finite exponent window for one or
both sign sectors as one array `data` of shape (..., sectors, size): row
k holds grid.sectors[k] and column i the exponent n_min + i, the layout a
Stencil uses for its diagonals.  sector(s) is the row view of sector s.
Leading batch axes carry several functions at once, such as one per
gauge transform: pointwise algebra broadcasts a batch against a single
function, shifts and derivatives act on each member, and
max_abs_interior is the worst over the whole batch.
The scale map and the derivative are shifts along the last axis:

    (L^k f)(sigma q^n)   = f(sigma q^(n-k))
    (nabla f)(sigma q^n) = [f(sigma q^(n+1)) - f(sigma q^(n-1))] / (lam sigma q^n)

The site factors q^n, x = sigma q^n and lam x are computed once per
grid, each site from ctx.qpow(n), so they round as the per-site formulas
do (numpy's vectorised power differs in the last bit at some sites).
Every derivative of a LatticeFn, the gauge layer's included, divides by
lam x.

A shift cannot see past the window edge, so functions carry a count of
invalid layers at each end (pad_lo, pad_hi); shifted-in sites hold zero
and are excluded from any residual check.  Checks and integrals read
valid sites only, and take the worst of their residuals with
`qcalc.verdicts.worst`.

Jackson integrals of lattice data sum complex doubles, each in loop
order through `running_sum`: the definite integral is the trace formula
of qcalc.integration on the valid sites of opposite parity, and the
improper integral weights every valid site of both sectors by the
positive measure (1/2) lam q^n (the sector's sign cancels against the
sign of x).  The scalar product, its norm and the windowed Green
identity are built on them.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Mapping

import numpy as np

from .integration import NotConverged, _site_exponents
from .verdicts import worst


def running_sum(terms):
    """Sums over the last axis, in the terms' own dtype, added left to
    right from zero as a Python loop adds them (np.sum adds pairwise,
    which rounds differently)."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1], dtype=terms.dtype)[()]
    # the loop's sum differs from the first term's only where that term
    # is -0.0, and then only in the sign of a zero sum: + 0.0 repairs it
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


def _shift_sites(v, k):
    """w[..., i] = v[..., i - k]; sites shifted in from outside hold zero."""
    n = v.shape[-1]
    out = np.zeros(v.shape, dtype=v.dtype)
    if 0 <= k < n:
        out[..., k:] = v[..., :n - k]
    elif -n < k < 0:
        out[..., :k] = v[..., -k:]
    return out


class GridMismatch(Exception):
    """Operands live on different grids."""


class InsufficientPadding(Exception):
    """A requested site lies in the invalid boundary layer."""


class LatticeGrid:
    """Exponent window [n_min, n_max] on the given sign sectors, with
    qpows = ctx.qpow(n), points = sigma q^n and lam_x = lam sigma q^n;
    as sigma = +-1, each equals its scalar formula exactly.  A window
    whose q^n leaves the double range either way raises OverflowError."""

    __slots__ = ("ctx", "n_min", "n_max", "sectors", "qpows", "points",
                 "lam_x")

    def __init__(self, ctx, n_min, n_max, sectors=(1, -1)):
        if n_min >= n_max:
            raise ValueError("need n_min < n_max")
        sectors = tuple(sectors)
        if not sectors or any(s not in (1, -1) for s in sectors):
            raise ValueError("sectors must be a nonempty subset of {+1, -1}")
        self.ctx = ctx
        self.n_min = n_min
        self.n_max = n_max
        self.sectors = sectors
        self.qpows = np.array([ctx.qpow(n) for n in self.exponents()])
        if not self.qpows.all():
            # q^n past the top of the double range raises in qpow itself
            raise OverflowError(f"q^{n_min} underflows to 0.0")
        self.points = np.outer(sectors, self.qpows)
        self.lam_x = ctx.lam * self.points

    @property
    def size(self):
        return self.n_max - self.n_min + 1

    def exponents(self):
        return range(self.n_min, self.n_max + 1)

    def index(self, n):
        if not self.n_min <= n <= self.n_max:
            raise IndexError(f"exponent {n} outside [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def row(self, sigma):
        """Row of sector sigma in a sector-stacked array."""
        if sigma not in self.sectors:
            raise KeyError(f"sector {sigma} not carried by this grid")
        return self.sectors.index(sigma)

    def stack(self, values):
        """values as a new (..., sectors, size) complex array: either
        array-like in row order or a {sector: row} mapping, absent sectors
        zero."""
        if isinstance(values, Mapping):
            values = [values.get(s, np.zeros(self.size)) for s in self.sectors]
        out = np.array(values, dtype=complex)
        if out.shape[-2:] != (len(self.sectors), self.size):
            raise ValueError("value array does not match the grid")
        return out

    def __eq__(self, other):
        if not isinstance(other, LatticeGrid):
            return NotImplemented
        return (self.ctx.q == other.ctx.q and self.n_min == other.n_min
                and self.n_max == other.n_max and self.sectors == other.sectors)

    __hash__ = None

    def __repr__(self):
        return (f"LatticeGrid(q={self.ctx.q}, n=[{self.n_min}, {self.n_max}], "
                f"sectors={self.sectors})")


class SectorRows(Mapping):
    """{sector: row} view of a sector-stacked array."""

    def __init__(self, grid, rows):
        self.grid = grid
        self.rows = rows

    def __getitem__(self, sigma):
        return self.rows[self.grid.row(sigma)]

    def __iter__(self):
        return iter(self.grid.sectors)

    def __len__(self):
        return len(self.grid.sectors)


class LatticeFn:
    __slots__ = ("grid", "data", "pad_lo", "pad_hi")

    def __init__(self, grid, values=None, pad_lo=0, pad_hi=0):
        """values: rows in grid order or {sector: row}; zero if omitted."""
        self.grid = grid
        self.data = grid.stack({} if values is None else values)
        self.pad_lo = pad_lo
        self.pad_hi = pad_hi

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sites(cls, grid, sites):
        """sites: map (sigma, n) -> value; elsewhere zero."""
        f = cls(grid)
        for (s, n), v in sites.items():
            f.sector(s)[grid.index(n)] = v
        return f

    def copy(self):
        return LatticeFn(self.grid, self.data, self.pad_lo, self.pad_hi)

    # -- site access ----------------------------------------------------------

    def sector(self, sigma):
        """Row view of sector sigma."""
        return self.data[..., self.grid.row(sigma), :]

    def valid_window(self):
        return (self.grid.n_min + self.pad_lo, self.grid.n_max - self.pad_hi)

    def valid_slice(self):
        """Column slice of the valid window."""
        return slice(self.pad_lo, self.grid.size - self.pad_hi)

    def value(self, sigma, n, require_valid=True):
        lo, hi = self.valid_window()
        if require_valid and not lo <= n <= hi:
            raise InsufficientPadding(
                f"site n={n} is inside the invalid boundary layer")
        return self.data[..., self.grid.row(sigma), self.grid.index(n)]

    # -- pointwise algebra ----------------------------------------------------

    @classmethod
    def of_data(cls, grid, data, pad_lo, pad_hi):
        """A function holding data, a (..., sectors, size) complex array of
        grid's shape, without the copy and checks of the constructor."""
        f = cls.__new__(cls)
        f.grid = grid
        f.data = data
        f.pad_lo = pad_lo
        f.pad_hi = pad_hi
        return f

    def _wrap(self, data, pad_lo=None, pad_hi=None):
        """A function on this grid holding data; pads default to ours."""
        # built here, not through of_data: every pointwise op and shift
        # wraps its result, and the extra call doubles the cost of a wrap
        f = LatticeFn.__new__(LatticeFn)
        f.grid = self.grid
        f.data = data
        f.pad_lo = self.pad_lo if pad_lo is None else pad_lo
        f.pad_hi = self.pad_hi if pad_hi is None else pad_hi
        return f

    def _pointwise(self, op, other):
        """op(self, other) site by site, on a common grid."""
        if self.grid is not other.grid and self.grid != other.grid:
            raise GridMismatch("operands live on different grids")
        return self._wrap(op(self.data, other.data),
                          max(self.pad_lo, other.pad_lo),
                          max(self.pad_hi, other.pad_hi))

    def __add__(self, other):
        return self._pointwise(np.add, other)

    def __sub__(self, other):
        return self._pointwise(np.subtract, other)

    def __mul__(self, other):
        return self._pointwise(np.multiply, other)

    def __neg__(self):
        return self._wrap(-self.data)

    def scale(self, v):
        return self._wrap(self.data * complex(v))

    def conj(self):
        return self._wrap(np.conj(self.data))

    def x_multiply(self):
        """Multiply by x = sigma q^n pointwise."""
        return self._wrap(self.data * self.grid.points)

    # -- shifts and derivatives ------------------------------------------------

    def L_shift(self, k=1):
        """(L^k f)(sigma q^n) = f(sigma q^(n-k))."""
        return self._wrap(_shift_sites(self.data, k),
                          self.pad_lo + max(k, 0), self.pad_hi + max(-k, 0))

    def nabla_fn(self):
        """Two-neighbor difference quotient; widens both pads by one."""
        v = self.data
        d = np.zeros(v.shape, dtype=complex)
        d[..., 1:-1] = v[..., 2:] - v[..., :-2]
        return self._wrap(d / self.grid.lam_x,
                          self.pad_lo + 1, self.pad_hi + 1)

    def nabla2_fn(self):
        return self.nabla_fn().nabla_fn()

    # -- diagnostics ---------------------------------------------------------

    def interior(self, extra_margin=0):
        """View of the values inside the valid window, every batch member
        and sector; extra_margin trims that many more sites at each end.
        A negative margin may widen the window up to the grid's edge."""
        lo = self.pad_lo + extra_margin
        hi = self.grid.size - self.pad_hi - extra_margin
        if lo >= hi:
            raise InsufficientPadding("no interior sites remain")
        if lo < 0 or hi > self.grid.size:
            # a negative slice bound would wrap around instead
            raise IndexError(f"margin {extra_margin} reaches past the window "
                             f"[{self.grid.n_min}, {self.grid.n_max}]")
        return self.data[..., lo:hi]

    def max_abs_interior(self, extra_margin=0):
        """Largest |value| inside the valid window over the whole batch;
        NaN if any is NaN."""
        return float(np.abs(self.interior(extra_margin)).max())

    def __repr__(self):
        lo, hi = self.valid_window()
        return (f"LatticeFn(grid={self.grid!r}, valid=[{lo}, {hi}])")


class Stencil:
    """Operator sum_c diag(d_c) L^c on one grid's window, sectors stacked.

    diags maps the offset c to d_c of shape (sectors, size), row k for
    grid.sectors[k]: (A v)[k, i] = sum_c d_c[k, i] v[k, i - c].  An index
    i - c outside the window reads zero and its entry of d_c is held at
    zero, so dense(s) is the truncated matrix and a composition drops
    every intermediate index outside the window, exactly as the product
    of the truncated matrices does.
    """

    def __init__(self, grid, diags):
        self.grid = grid
        shape = (len(grid.sectors), grid.size)
        self.diags = {}
        for c, v in diags.items():
            d = self.diags[c] = np.empty(shape, dtype=complex)
            d[...] = v
            if c > 0:
                d[:, :c] = 0
            elif c < 0:
                d[:, c:] = 0

    def __add__(self, other):
        if self.grid != other.grid:
            raise GridMismatch("operators live on different grids")
        out = dict(self.diags)
        for c, d in other.diags.items():
            out[c] = out[c] + d if c in out else d
        return Stencil(self.grid, out)

    def __sub__(self, other):
        return self + -1.0 * other

    def __mul__(self, v):
        return Stencil(self.grid, {c: v * d for c, d in self.diags.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Composition with a Stencil, or the action on stacked coefficients
        of shape (..., sectors, size)."""
        if not isinstance(other, Stencil):
            v = np.asarray(other, dtype=complex)
            out = np.zeros(v.shape, dtype=complex)
            for c, d in self.diags.items():
                out = out + d * _shift_sites(v, c)
            return out
        if self.grid != other.grid:
            raise GridMismatch("operators live on different grids")
        # Products and their sums are formed in extended precision and
        # rounded once, as accurate as the fused multiply-adds of a BLAS
        # product: the ladder commutator cancels terms of size x^-2.
        out = {}
        for a, da in self.diags.items():
            for b, db in other.diags.items():
                term = (da.astype(np.clongdouble)
                        * _shift_sites(db, a).astype(np.clongdouble))
                out[a + b] = out[a + b] + term if a + b in out else term
        return Stencil(self.grid, out)

    def adjoint(self):
        """Conjugate transpose: d'_-c[i] = conj(d_c[i + c])."""
        return Stencil(self.grid, {-c: np.conj(_shift_sites(d, -c))
                                   for c, d in self.diags.items()})

    def dense(self, s=None):
        """Sector s's size x size matrix; all sectors stacked if s is None."""
        n = self.grid.size
        m = np.zeros((len(self.grid.sectors), n, n), dtype=complex)
        for c, d in self.diags.items():
            if abs(c) < n:
                i = np.arange(max(c, 0), n + min(c, 0))
                m[:, i, i - c] += d[:, i]
        return m if s is None else m[self.grid.row(s)]

    def max_abs(self, margin=0):
        """Largest |entry| whose row and column both sit margin sites or
        more inside the window, over all sectors; NaN if any is NaN."""
        n = self.grid.size
        return worst(
            np.max(np.abs(d[:, margin + max(c, 0):n - margin + min(c, 0)]),
                   initial=0.0)
            for c, d in self.diags.items())


# -- integrals -------------------------------------------------------------------


def definite_integral(h, lower_exp, upper_exp, sector=1):
    """Trace-formula integral of the LatticeFn h from sigma q^lower to
    sigma q^upper: the opposite-parity sites in between, each weighted by
    x = sigma q^n and added in order of n; lam times that sum.

    Every site must lie in the valid window (InsufficientPadding) of a
    sector the grid carries.
    """
    sites = _site_exponents(lower_exp, upper_exp)
    # the end sites raise what the first bad site would
    h.value(sector, sites[0])
    h.value(sector, sites[-1])
    grid = h.grid
    k = grid.row(sector)
    cols = slice(grid.index(sites[0]), grid.index(sites[-1]) + 1, 2)
    return grid.ctx.lam * running_sum(grid.points[k, cols]
                                      * h.data[..., k, cols])


def improper_integral(h, tail_tol=1e-10):
    """(1/2) lam sum over sectors and all valid sites of q^n h(sigma q^n),
    the sector sign being cancelled against the x eigenvalue's sign."""
    ctx = h.grid.ctx
    cols = h.valid_slice()
    terms = h.grid.qpows[cols] * h.data[:, cols]
    acc = running_sum(terms.ravel())  # sector-major
    i = np.arange(terms.shape[-1])
    edge = (i < 2) | (i >= i.size - 2)
    # scalar moduli: np.abs rounds some of them differently
    worst_tail = worst(map(abs, (ctx.lam * terms[:, edge]).ravel().tolist()))
    if not worst_tail <= tail_tol:  # a NaN tail fails too
        raise NotConverged(
            f"window tail term {worst_tail:.3e} exceeds {tail_tol:.3e}")
    return 0.5 * ctx.lam * acc


def scalar_product(chi, psi, tail_tol=1e-10):
    """(chi, psi) = improper integral of conj(chi) psi."""
    if chi.grid != psi.grid:
        raise GridMismatch("scalar product needs a common grid")
    return improper_integral(chi.conj() * psi, tail_tol=tail_tol)


def norm(psi, tail_tol=1e-10):
    return abs(scalar_product(psi, psi, tail_tol=tail_tol)) ** 0.5


def check_green(f, g, lower_exp, upper_exp):
    """LHS - RHS of the windowed Green identity on sector +1 lattice data.

    LHS: definite integral of (nabla^2 f) g - f (nabla^2 g);
    RHS: boundary values of (nabla f)(L^-1 g) - (L^-1 f)(nabla g).
    """
    integrand = f.nabla2_fn() * g - f * g.nabla2_fn()
    lhs = definite_integral(integrand, lower_exp, upper_exp)
    flux = f.nabla_fn() * g.L_shift(-1) - f.L_shift(-1) * g.nabla_fn()
    rhs = flux.value(1, upper_exp) - flux.value(1, lower_exp)
    return lhs - rhs


# -- serialization -------------------------------------------------------------


def to_csv(fn):
    """Valid sites as rows sigma,n,re,im; floats via repr (bit-exact)."""
    stream = io.StringIO()
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["sigma", "n", "re", "im"])
    lo, hi = fn.valid_window()
    block = fn.data[:, fn.valid_slice()]
    for s, re, im in zip(fn.grid.sectors, block.real.tolist(),
                         block.imag.tolist()):
        w.writerows([s, n, repr(a), repr(b)]
                    for n, a, b in zip(range(lo, hi + 1), re, im))
    return stream.getvalue()
