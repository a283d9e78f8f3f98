"""Truncated stencil representation and Schrodinger evolution on the lattice.

States are coefficient vectors over the orthonormal site basis, sectors
stacked as in a LatticeFn.  A sampled function relates to its coefficient
vector through the square root of the site weight w_n = lam q^n / 2, so
the plain inner product of coefficients equals the improper-integral
scalar product of the sampled functions.

In these coordinates x is diagonal, the dilation generator is the plain
shift, and the scale map of the field calculus is the shift times q^(1/2).
Each operator is a lattice.Stencil (diagonals times shift powers, both
sectors stacked).  The Hamiltonian couples n only to n +- 2, so each
sector splits into two real parity chains (the sites of even and of odd
exponent), and its eigenproblem is solved chain by chain on tridiagonal
matrices read from the stencil's diagonals.  No dense (size, size)
matrix is built unless a caller reads Hamiltonian.matrices.
The momentum acts as -i times the difference quotient; hard truncation
keeps it hermitian because the difference quotient stays antisymmetric
when rows are simply dropped.

Truncation realizes one self-adjoint extension of the second difference
operator.  Everything checked here is an interior statement: boundary
rows see a cut stencil and are excluded from residuals.
"""

import functools

import numpy as np

from .lattice import (LatticeFn, SectorRows, Stencil, improper_integral,
                      norm as fn_norm)
from .special import EIGEN_EXPONENT, SpecialFunctions


class GridTooSmall(Exception):
    """The representation needs at least 8 sites per sector."""


class NonHermitianHamiltonian(Exception):
    """Symmetrization could not repair the Hamiltonian."""


class ChainStructureError(ValueError):
    """The Hamiltonian is not real or not tridiagonal on its parity chains."""


class Representation:
    """Stencils for x, the shifts, and the derivative, sectors stacked."""

    def __init__(self, grid):
        if grid.size < 8:
            raise GridTooSmall(f"{grid.size} sites per sector, need >= 8")
        self.grid = grid
        ctx = grid.ctx
        self.sf = SpecialFunctions(ctx)
        self._sqrt_w = np.sqrt(0.5 * ctx.lam * grid.qpows)
        x = grid.points
        rq = ctx.sqrt_q
        self.x = Stencil(grid, {0: x})
        self.lam_op = Stencil(grid, {1: 1.0})
        self.L = Stencil(grid, {1: rq})
        self.L_inv = Stencil(grid, {-1: 1.0 / rq})
        self.nabla = (Stencil(grid, {0: ctx.inv_lam * (1.0 / x)})
                      @ (self.L_inv - self.L))
        self.p = -1j * self.nabla

    @property
    def ctx(self):
        return self.grid.ctx

    def interior(self, margin=1):
        """Slice of rows whose stencil of that radius fits in the window."""
        return slice(margin, self.grid.size - margin)

    # -- state coordinates ---------------------------------------------------

    def coords(self, f):
        """Coefficients of f, sectors stacked."""
        if f.grid is not self.grid and f.grid != self.grid:
            raise ValueError("function lives on a different grid")
        return self._sqrt_w * f.data

    def coeffs(self, f):
        """coords(f) as a {sector: row} view."""
        return SectorRows(self.grid, self.coords(f))

    def lattice_fn(self, coeffs, pad_lo=0, pad_hi=0):
        """The function with these coefficients (stacked or by sector)."""
        return LatticeFn.of_data(
            self.grid, self.grid.stack(coeffs) / self._sqrt_w, pad_lo, pad_hi)

    # -- structural residuals --------------------------------------------------

    def relation_residual(self):
        """Interior norm of q^(1/2)xp - q^(-1/2)px - i*shift."""
        rq = self.ctx.sqrt_q
        r = rq * self.x @ self.p - self.p @ self.x * (1 / rq) - 1j * self.lam_op
        return r.max_abs(1)

    def adjoint_residual(self):
        """Interior norm of (nabla L^-1)^+ + nabla L, relative to that of
        nabla L: its entries grow like q^(-n) towards small |x|."""
        nabla_L = self.nabla @ self.L
        r = (self.nabla @ self.L_inv).adjoint() + nabla_L
        return r.max_abs(2) / nabla_L.max_abs(2)


def build_representation(grid):
    return Representation(grid)


class Hamiltonian:
    """-(1/2m) nabla^2 + V as a stencil, symmetrized after truncation.

    The stencil has diagonals 0 and +-2 only, so eigh solves each sector's
    two parity chains, the sites of even and of odd exponent, as real
    symmetric tridiagonal problems.  matrices[s] is sector s's dense
    matrix, built on first read; nothing in the solve, the energy or the
    evolution needs it.  Methods take coefficients stacked or as a
    {sector: row} mapping.
    """

    def __init__(self, rep, mass=1.0, potential=None):
        self.rep = rep
        self.mass = float(mass)
        self._eig = None
        h = -(0.5 / self.mass) * rep.nabla @ rep.nabla
        if potential is not None:
            v = rep.grid.stack(potential)
            if float(np.max(np.abs(v.imag))) > 1e-12:
                raise NonHermitianHamiltonian("potential must be real")
            h = h + Stencil(rep.grid, {0: v.real})
        sym = 0.5 * (h + h.adjoint())
        gap = (h - sym).max_abs()
        if gap > 1e-9 * max(1.0, sym.max_abs()):
            raise NonHermitianHamiltonian(
                f"asymmetry {gap:.2e} survived symmetrization")
        if any(np.any(d.imag) for d in sym.diags.values()):
            raise ChainStructureError("the parity chains are not real")
        other = sorted(set(sym.diags) - {-2, 0, 2})
        if other:
            raise ChainStructureError(
                f"offsets {other} couple sites off the tridiagonal parity "
                f"chains")
        self.stencil = sym

    @functools.cached_property
    def matrices(self):
        return SectorRows(self.rep.grid, self.stencil.dense())

    def _chain(self, parity):
        """The chain of sites parity, parity + 2, ... of every sector as a
        real tridiagonal stack: stencil offset c is chain offset c / 2."""
        size = (self.rep.grid.size + 1 - parity) // 2
        t = np.zeros((len(self.rep.grid.sectors), size, size))
        flat = t.reshape(len(t), -1)
        for c, d in self.stencil.diags.items():
            # entries (j, j - k), j = lo ... hi - 1, sit at j (size + 1) - k
            k = c // 2
            lo, hi = max(k, 0), size + min(k, 0)
            band = flat[:, lo * (size + 1) - k::size + 1]
            band += d.real[:, parity::2][:, lo:hi]
        return t

    def eigh(self):
        """(eigenvalues, eigenvectors) of every sector, stacked: eigenvalues
        ascending, each eigenvector supported on one parity chain."""
        if self._eig is None:
            n = self.rep.grid.size
            half = (n + 1) // 2
            vecs = np.zeros((len(self.rep.grid.sectors), n, n), dtype=complex)
            w0, vecs[:, 0::2, :half] = np.linalg.eigh(self._chain(0))
            w1, vecs[:, 1::2, half:] = np.linalg.eigh(self._chain(1))
            w = np.concatenate((w0, w1), axis=-1)
            order = np.argsort(w, axis=-1, kind="stable")
            self._eig = (np.take_along_axis(w, order, -1),
                         np.take_along_axis(vecs, order[:, None, :], -1))
        return self._eig

    def eig(self, s):
        return tuple(a[self.rep.grid.row(s)] for a in self.eigh())

    def energy(self, coeffs):
        c = self.rep.grid.stack(coeffs)
        return float(np.vdot(c, self.stencil @ c).real)

    def evolve_coeffs(self, coeffs, t):
        c = self.rep.grid.stack(coeffs)
        if t == 0.0:
            return c
        evals, evecs = self.eigh()
        phases = np.exp(-1j * evals * t)
        a = phases * (_adjoint(evecs) @ c[..., None])[..., 0]
        return (evecs @ a[..., None])[..., 0]

    def band_limit(self, coeffs, cut):
        """Projection onto the eigenmodes below the energy cut."""
        evals, evecs = self.eigh()
        a = (_adjoint(evecs) @ self.rep.grid.stack(coeffs)[..., None])[..., 0]
        # each sector over its kept modes: zero padding rounds otherwise
        return np.array([v[:, keep] @ x[keep]
                         for v, x, keep in zip(evecs, a, evals < cut)])


def _adjoint(m):
    """Conjugate transpose of each matrix in a stack."""
    return np.conj(m).swapaxes(-1, -2)


# -- sampled eigenfunctions ---------------------------------------------------

def _sampled_modes(rep, family, label, n, mass, rows):
    """Basis member `family`_`label`(n) sampled on the given rows of a
    (sectors, size) array, zero elsewhere, and its energy."""
    if (family, label) not in EIGEN_EXPONENT:
        raise ValueError(f"unknown basis member {family}_{label}")
    ctx = rep.ctx
    grid = rep.grid
    site_parity = 1 if label == "2n+1" else 0
    arg_exp = 2 * n + site_parity
    norm_const = ctx.q ** n * np.sqrt(2.0 * ctx.q * ctx.inv_lam) * rep.sf.n_q()
    if label == "2n":
        norm_const /= np.sqrt(ctx.q)
    # the sites sigma q^k, k of the label's parity, take the kernel at
    # sigma q^(k + arg_exp): one even row, sin odd in sigma
    first = (site_parity - grid.n_min) % 2
    last = grid.n_max - (grid.n_max - site_parity) % 2
    kern = rep.sf.kernel_row("cos" if family == "C" else "sin",
                             grid.n_min + first + arg_exp, last + arg_exp)
    sign = np.array(grid.sectors)[rows] ** (family == "S")
    vals = np.zeros((len(grid.sectors), grid.size), dtype=complex)
    vals[rows, first::2] = norm_const * np.outer(sign, kern)
    expo = 4 * n + EIGEN_EXPONENT[family, label]
    energy = (0.5 / mass) * ctx.inv_lam ** 2 * ctx.qpow(expo)
    return vals, energy


def stationary_state(rep, family="C", label="2n+1", n=0, sector=1, mass=1.0):
    """Sampled basis eigenfunction restricted to its parity/sector subspace.

    Returns (LatticeFn, energy).  The odd-argument families live on the
    odd-exponent sites, the even-argument ones on the even-exponent
    sites.  The normalizer makes the improper-integral norm exactly one;
    for the even-argument families this needs an extra q^(-1/2) relative
    to the odd-argument constant.
    """
    if sector not in rep.grid.sectors:
        raise ValueError(f"sector {sector} not carried by this grid")
    vals, energy = _sampled_modes(rep, family, label, n, mass,
                                  [rep.grid.row(sector)])
    return LatticeFn(rep.grid, vals), energy


def free_evolve(rep, psi, t, family="C", mass=1.0):
    """Free evolution in the analytic eigenbasis of the chosen family.

    Hard truncation realizes a self-adjoint extension whose boundary
    behavior at the accumulation point x -> 0 differs from the one the
    cos/sin families diagonalize (the endpoint is limit-circle, so the
    choice never becomes irrelevant with depth).  Sampled basis states
    are therefore stationary under this routine, not under the matrix
    flow.  Expansion coefficients come from the discrete orthogonality
    sums on the window; the window must cover the state's support and
    reach deep enough below it that the dropped small-x mass is below
    the target tolerance.
    """
    ctx = rep.ctx
    grid = rep.grid
    if psi.grid != grid:
        raise ValueError("state lives on a different grid")
    n_lo = -((grid.n_max + 1) // 2) - 3
    n_hi = (-grid.n_min - 1) // 2 + 3
    weights = 0.5 * ctx.lam * grid.qpows
    acc = np.zeros(psi.data.shape, dtype=complex)
    for label in ("2n+1", "2n"):
        for k in range(n_lo, n_hi + 1):
            modes, energy = _sampled_modes(rep, family, label, k, mass,
                                           slice(None))
            a = np.sum(weights * modes * psi.data, axis=-1)
            phase = np.exp(-1j * energy * t)
            # scalar products: an array product fuses and rounds otherwise
            acc += np.array([c * phase for c in a])[:, None] * modes
    return LatticeFn(grid, acc, psi.pad_lo, psi.pad_hi)


# -- density and current -------------------------------------------------------

def density_current(psi, mass=1.0):
    """rho = psi* psi and the lattice current of the continuity equation,

        j = L^-1 [psi* L(nabla psi) - L(nabla psi*) psi] / (2 m i).

    nabla has real coefficients on the lattice, so nabla(psi*) is
    (nabla psi)* and one gradient g serves both terms; and L^-1 of a
    product of L-shifted factors is the product of the unshifted ones,
    so j[i] = (psi*[i + 1] g[i] - g*[i] psi[i + 1]) / (2 m i), read
    straight from the arrays.  j carries pads (pad_lo + 2, pad_hi + 2).
    """
    v_c = np.conj(psi.data)
    rho = LatticeFn.of_data(psi.grid, v_c * psi.data, psi.pad_lo, psi.pad_hi)
    return rho, _current(psi, v_c, psi.nabla_fn(), mass)


def _current(psi, v_c, grad, mass):
    """density_current's j from psi* (an array) and grad = nabla psi."""
    v, g = psi.data, grad.data
    w = np.zeros(v.shape, dtype=complex)
    w[..., :-1] = (v_c[..., 1:] * g[..., :-1]
                   - np.conj(g[..., :-1]) * v[..., 1:])
    w *= complex(1.0 / (2.0 * mass * 1j))
    return LatticeFn.of_data(psi.grid, w, psi.pad_lo + 2, psi.pad_hi + 2)


def noether_current(psi, alpha=1.0, mass=1.0):
    """The conserved current in its L-shifted bracket form.

    The scale map passes through the inner derivative at the cost of one
    factor q, which the prefactor divides back out.  (nabla psi)* and
    (L^-1 psi)* are the conjugates of the gradient and back-shift.
    """
    q = psi.grid.ctx.q
    grad = psi.nabla_fn()
    back = psi.L_shift(-1)
    inner = grad.conj().scale(q) * back - grad.scale(q) * back.conj()
    return inner.scale(-1j * float(alpha) / (2.0 * mass * q))


def check_noether(psi, alpha=1.0, mass=1.0):
    """Worst interior deviation of the Noether current from -alpha*j.

    noether_current reads the gradient of psi.  The current j is read
    instead from the back-shifted state L^-1 psi and its own gradient:
    by the scale rule nabla L^-1 = q L^-1 nabla, nabla psi is
    L(nabla L^-1 psi) / q, so a derivative that breaks the rule fails.
    """
    q = psi.grid.ctx.q
    grad = psi.L_shift(-1).nabla_fn().L_shift(1).scale(1.0 / q)
    target = _current(psi, np.conj(psi.data), grad, mass).scale(-float(alpha))
    return (noether_current(psi, alpha, mass) - target).max_abs_interior()


# -- evolution -------------------------------------------------------------------

class EvolutionState:
    """A wavefunction with its clock and optional (rho, j) history."""

    def __init__(self, psi, time=0.0, history=None):
        self.psi = psi
        self.time = float(time)
        self.history = list(history) if history is not None else []

    def norm(self):
        # no tail check: conservation compares like against like, and
        # small-x-supported states carry O(q^n_min) mass at the edge
        return fn_norm(self.psi, tail_tol=float("inf"))


def evolve(state, H, dt, steps=1, record=False):
    """Unitary evolution by the spectral decomposition of H."""
    rep = H.rep
    if dt == 0.0:
        return EvolutionState(state.psi.copy(), state.time, list(state.history))
    c = rep.coords(state.psi)
    t = state.time
    hist = list(state.history)
    psi = None
    for _ in range(int(steps)):
        c = H.evolve_coeffs(c, dt)
        t += dt
        if record:
            psi = rep.lattice_fn(c)
            hist.append((t, *density_current(psi, H.mass)))
    if psi is None:
        psi = rep.lattice_fn(c)
    return EvolutionState(psi, t, hist)


def continuity_residual(psi, H, dt=1e-3):
    """Interior max of the central-difference continuity defect."""
    fwd = evolve(EvolutionState(psi), H, dt).psi
    bwd = evolve(EvolutionState(psi), H, -dt).psi
    drho = (fwd.conj() * fwd - bwd.conj() * bwd).scale(1.0 / (2.0 * dt))
    _, j = density_current(psi, H.mass)
    return (drho + j.nabla_fn()).max_abs_interior()


def energy_form_residual(psi, mass=1.0):
    """Difference of the two quadratic-energy expressions."""
    ctx = psi.grid.ctx
    lhs = improper_integral(psi.conj() * psi.nabla_fn().nabla_fn())
    half = psi.L_shift(-1).nabla_fn()
    half_c = psi.conj().L_shift(-1).nabla_fn()
    rhs = -improper_integral(half_c * half) / ctx.q
    return abs(lhs - rhs)


# -- artifacts ---------------------------------------------------------------------

def history_to_csv(state):
    """CSV time series: t, sigma, n, rho, j at every valid site, one line
    per site ended by CRLF, each float written as its repr."""
    lines = ["t,sigma,n,rho,j"]
    for t, rho, j in state.history:
        t = repr(float(t))
        lo, hi = j.valid_window()
        cols = j.valid_slice()
        # one repr per value list: "[[a, b], [c, d]]" splits into the
        # float reprs, sector by sector (no repr holds a comma or bracket)
        rho_rows, j_rows = (
            repr(f.data.real[:, cols].tolist())[2:-2].split("], [")
            for f in (rho, j))
        for s, rs, js in zip(j.grid.sectors, rho_rows, j_rows):
            lines += [f"{t},{s},{n},{a},{b}" for n, a, b in zip(
                range(lo, hi + 1), rs.split(", "), js.split(", "))]
    lines.append("")
    return "\r\n".join(lines)
