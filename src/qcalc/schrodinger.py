"""Truncated matrix representation and Schrodinger evolution on the lattice.

States are coefficient vectors over the orthonormal site basis, one block
per sector.  A sampled function relates to its coefficient vector through
the square root of the site weight w_n = lam q^n / 2, so the plain inner
product of coefficients equals the improper-integral scalar product of
the sampled functions.

In these coordinates x is diagonal, the dilation generator is the plain
shift, and the scale map of the field calculus is the shift times q^(1/2).
The momentum acts as -i times the difference quotient; hard truncation
keeps it hermitian because the difference quotient stays antisymmetric
when rows are simply dropped.

Truncation realizes one self-adjoint extension of the second difference
operator.  Everything checked here is an interior statement: boundary
rows see a cut stencil and are excluded from residuals.
"""

import csv
import io
import json

import numpy as np

from .integration import improper_integral, norm as fn_norm
from .lattice import LatticeFn, LatticeGrid
from .special import SpecialFunctions


class GridTooSmall(Exception):
    """The representation needs at least 8 sites per sector."""


class NonHermitianHamiltonian(Exception):
    """Symmetrization could not repair the Hamiltonian."""


def _shift_down(size):
    # maps basis vector n to n+1: ones on the first subdiagonal
    m = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        m[i + 1, i] = 1.0
    return m


class Representation:
    """Matrices for x, the shifts, and the derivative, per sector."""

    def __init__(self, grid):
        if grid.ctx.exact:
            raise ValueError("representations need the double backend")
        if grid.size < 8:
            raise GridTooSmall(f"{grid.size} sites per sector, need >= 8")
        self.grid = grid
        ctx = grid.ctx
        self.sf = SpecialFunctions(ctx)
        size = grid.size
        expo = np.array(list(grid.exponents()), dtype=float)
        self._sqrt_w = np.sqrt(0.5 * ctx.lam * ctx.q ** expo)
        shift = _shift_down(size)
        self.x = {}
        self.lam_op = {}
        self.lam_inv_op = {}
        self.L = {}
        self.L_inv = {}
        self.nabla = {}
        self.p = {}
        rq = ctx.sqrt_q
        for s in grid.sectors:
            xs = np.diag(s * ctx.q ** expo).astype(complex)
            self.x[s] = xs
            self.lam_op[s] = shift.copy()
            self.lam_inv_op[s] = shift.T.copy()
            self.L[s] = rq * shift
            self.L_inv[s] = shift.T / rq
            x_inv = np.diag(1.0 / np.diag(xs))
            self.nabla[s] = ctx.inv_lam * x_inv @ (self.L_inv[s] - self.L[s])
            self.p[s] = -1j * self.nabla[s]

    @property
    def ctx(self):
        return self.grid.ctx

    def interior(self, margin=1):
        """Slice of rows whose stencil of that radius fits in the window."""
        return slice(margin, self.grid.size - margin)

    # -- state coordinates ---------------------------------------------------

    def coeffs(self, f):
        if f.grid != self.grid:
            raise ValueError("function lives on a different grid")
        return {s: self._sqrt_w * f.values[s] for s in self.grid.sectors}

    def lattice_fn(self, coeffs, pad_lo=0, pad_hi=0):
        vals = {s: coeffs[s] / self._sqrt_w for s in self.grid.sectors}
        return LatticeFn(self.grid, vals, pad_lo, pad_hi)

    # -- structural residuals --------------------------------------------------

    def relation_residual(self):
        """Interior-row norm of q^(1/2)xp - q^(-1/2)px - i*shift."""
        rq = self.ctx.sqrt_q
        worst = 0.0
        rows = self.interior()
        for s in self.grid.sectors:
            r = rq * self.x[s] @ self.p[s] - self.p[s] @ self.x[s] / rq \
                - 1j * self.lam_op[s]
            worst = max(worst, float(np.max(np.abs(r[rows, :]))))
        return worst

    def adjoint_residual(self):
        """Interior norm of (nabla L^-1)^+ + nabla L."""
        worst = 0.0
        rows = self.interior(2)
        for s in self.grid.sectors:
            a = self.nabla[s] @ self.L_inv[s]
            b = self.nabla[s] @ self.L[s]
            r = (a.conj().T + b)[rows, rows]
            worst = max(worst, float(np.max(np.abs(r))))
        return worst


def build_representation(grid):
    return Representation(grid)


class Hamiltonian:
    """-(1/2m) nabla^2 + V, symmetrized after truncation."""

    def __init__(self, rep, mass=1.0, potential=None):
        self.rep = rep
        self.mass = float(mass)
        self.boundary = "truncate-symmetrize"
        self.matrices = {}
        self._eig = {}
        for s in rep.grid.sectors:
            h = -(0.5 / self.mass) * rep.nabla[s] @ rep.nabla[s]
            if potential is not None:
                v = self._potential_vector(rep, s, potential)
                if float(np.max(np.abs(v.imag))) > 1e-12:
                    raise NonHermitianHamiltonian("potential must be real")
                h = h + np.diag(v.real)
            sym = 0.5 * (h + h.conj().T)
            gap = float(np.max(np.abs(h - sym)))
            if gap > 1e-9 * max(1.0, float(np.max(np.abs(sym)))):
                raise NonHermitianHamiltonian(
                    f"asymmetry {gap:.2e} survived symmetrization")
            self.matrices[s] = sym

    @staticmethod
    def _potential_vector(rep, s, potential):
        if callable(potential):
            pts = [rep.grid.point(s, n) for n in rep.grid.exponents()]
            return np.array([potential(x) for x in pts], dtype=complex)
        return np.asarray(potential[s], dtype=complex)

    def eig(self, s):
        if s not in self._eig:
            evals, evecs = np.linalg.eigh(self.matrices[s])
            self._eig[s] = (evals, evecs)
        return self._eig[s]

    def energy(self, coeffs):
        acc = 0.0
        for s in self.rep.grid.sectors:
            acc += float(np.real(np.vdot(coeffs[s], self.matrices[s] @ coeffs[s])))
        return acc

    def evolve_coeffs(self, coeffs, t):
        if t == 0.0:
            return {s: coeffs[s].copy() for s in self.rep.grid.sectors}
        out = {}
        for s in self.rep.grid.sectors:
            evals, evecs = self.eig(s)
            phases = np.exp(-1j * evals * t)
            out[s] = evecs @ (phases * (evecs.conj().T @ coeffs[s]))
        return out

    def band_limit(self, coeffs, cut):
        """Projection onto the eigenmodes below the energy cut."""
        out = {}
        for s in self.rep.grid.sectors:
            evals, evecs = self.eig(s)
            keep = evals < cut
            a = evecs.conj().T @ coeffs[s]
            out[s] = evecs[:, keep] @ a[keep]
        return out


# -- sampled eigenfunctions ---------------------------------------------------

_EIGEN_EXPONENT = {
    ("C", "2n+1"): lambda n: 4 * n + 1,
    ("C", "2n"): lambda n: 4 * n - 1,
    ("S", "2n+1"): lambda n: 4 * n + 3,
    ("S", "2n"): lambda n: 4 * n + 1,
}


def stationary_state(rep, family="C", label="2n+1", n=0, sector=1, mass=1.0):
    """Sampled basis eigenfunction restricted to its parity/sector subspace.

    Returns (LatticeFn, energy).  The odd-argument families live on the
    odd-exponent sites, the even-argument ones on the even-exponent
    sites.  The normalizer makes the improper-integral norm exactly one;
    for the even-argument families this needs an extra q^(-1/2) relative
    to the odd-argument constant.
    """
    if (family, label) not in _EIGEN_EXPONENT:
        raise ValueError(f"unknown basis member {family}_{label}")
    if sector not in rep.grid.sectors:
        raise ValueError(f"sector {sector} not carried by this grid")
    ctx = rep.ctx
    arg_exp = 2 * n + 1 if label == "2n+1" else 2 * n
    site_parity = 1 if label == "2n+1" else 0
    norm_const = ctx.q ** n * np.sqrt(2.0 * ctx.q * ctx.inv_lam) * rep.sf.n_q()
    if label == "2n":
        norm_const /= np.sqrt(ctx.q)
    kernel = rep.sf.cos_q if family == "C" else rep.sf.sin_q
    y = ctx.qpow(arg_exp)
    sites = {}
    for nu in rep.grid.exponents():
        if nu % 2 != site_parity:
            continue
        sites[(sector, nu)] = norm_const * kernel(rep.grid.point(sector, nu) * y)
    psi = LatticeFn.from_sites(rep.grid, sites)
    expo = _EIGEN_EXPONENT[(family, label)](n)
    energy = (0.5 / mass) * ctx.inv_lam ** 2 * ctx.qpow(expo)
    return psi, energy


def stationary_states(rep, family="C", label="2n+1", sector=1, n_range=(0,),
                      mass=1.0):
    return [stationary_state(rep, family, label, n, sector, mass)
            for n in n_range]


def free_evolve(rep, psi, t, family="C", mass=1.0, n_lo=None, n_hi=None):
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
    if n_lo is None:
        n_lo = -((grid.n_max + 1) // 2) - 3
    if n_hi is None:
        n_hi = (-grid.n_min - 1) // 2 + 3
    expo = np.array(list(grid.exponents()), dtype=float)
    weights = 0.5 * ctx.lam * ctx.q ** expo
    out = {}
    for s in grid.sectors:
        acc = np.zeros(grid.size, dtype=complex)
        for label in ("2n+1", "2n"):
            for k in range(n_lo, n_hi + 1):
                mode, energy = stationary_state(rep, family, label, k, s, mass)
                mv = mode.values[s]
                a = np.sum(weights * mv * psi.values[s])
                acc += a * np.exp(-1j * energy * t) * mv
        out[s] = acc
    return LatticeFn(grid, out, psi.pad_lo, psi.pad_hi)


# -- density and current -------------------------------------------------------

def density_current(psi, mass=1.0):
    """rho = psi* psi and the lattice current of the continuity equation."""
    rho = psi.conj() * psi
    lgrad = psi.nabla_fn().L_shift(1)
    lgrad_c = psi.conj().nabla_fn().L_shift(1)
    bracket = psi.conj() * lgrad - lgrad_c * psi
    j = bracket.L_shift(-1).scale(1.0 / (2.0 * mass * 1j))
    return rho, j


def boundary_flux(psi, n, sector=1, mass=1.0):
    """The bracket whose difference drives d/dt of the boxed density."""
    lgrad = psi.nabla_fn().L_shift(1)
    lgrad_c = psi.conj().nabla_fn().L_shift(1)
    bracket = psi.conj() * lgrad - lgrad_c * psi
    val = bracket.L_shift(-1).value(sector, n)
    return val / (2.0 * mass * 1j)


def noether_current(psi, alpha=1.0, mass=1.0):
    """The conserved current in its L-shifted bracket form.

    The scale map passes through the inner derivative at the cost of one
    factor q, which the prefactor divides back out.
    """
    q = psi.grid.ctx.q
    grad = psi.nabla_fn()
    grad_c = psi.conj().nabla_fn()
    inner = grad_c.scale(q) * psi.L_shift(-1) \
        - grad.scale(q) * psi.conj().L_shift(-1)
    return inner.scale(-1j * float(alpha) / (2.0 * mass * q))


def check_noether(psi, alpha=1.0, mass=1.0):
    """Worst interior deviation of the Noether expressions from -alpha*j.

    Compares the bracket-chain current (two evaluation orders) against
    -alpha times the probability current, and the charge density against
    -alpha psi* psi.
    """
    a = float(alpha)
    rho, j = density_current(psi, mass)
    target = j.scale(-a)

    form1 = noether_current(psi, alpha, mass)
    grad = psi.nabla_fn()
    grad_c = psi.conj().nabla_fn()
    form2_inner = grad_c * psi.L_shift(-1) - grad * psi.conj().L_shift(-1)
    form2 = form2_inner.scale(a / (2.0 * mass * 1j))

    worst = 0.0
    for cand in (form1, form2):
        worst = max(worst, (cand - target).max_abs_interior())
    charge = rho.scale(-a) - (psi.conj() * psi).scale(-a)
    worst = max(worst, charge.max_abs_interior())
    return worst


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
    if isinstance(state, LatticeFn):
        state = EvolutionState(state)
    rep = H.rep
    if dt == 0.0:
        return EvolutionState(state.psi.copy(), state.time, list(state.history))
    c = rep.coeffs(state.psi)
    t = state.time
    hist = list(state.history)
    for _ in range(int(steps)):
        c = H.evolve_coeffs(c, dt)
        t += dt
        if record:
            f = rep.lattice_fn(c)
            rho, j = density_current(f, H.mass)
            hist.append((t, rho, j))
    return EvolutionState(rep.lattice_fn(c), t, hist)


def continuity_residual(psi, H, dt=1e-3):
    """Interior max of the central-difference continuity defect."""
    fwd = evolve(EvolutionState(psi), H, dt).psi
    bwd = evolve(EvolutionState(psi), H, -dt).psi
    rho_f, _ = density_current(fwd, H.mass)
    rho_b, _ = density_current(bwd, H.mass)
    _, j = density_current(psi, H.mass)
    drho = (rho_f - rho_b).scale(1.0 / (2.0 * dt))
    resid = drho + j.nabla_fn()
    return resid.max_abs_interior()


def energy_form_residual(psi, mass=1.0):
    """Difference of the two quadratic-energy expressions."""
    ctx = psi.grid.ctx
    lhs = improper_integral(psi.conj() * psi.nabla_fn().nabla_fn())
    half = psi.L_shift(-1).nabla_fn()
    half_c = psi.conj().L_shift(-1).nabla_fn()
    rhs = -improper_integral(half_c * half) / ctx.q
    return abs(lhs - rhs)


# -- experiment interface -----------------------------------------------------------

def experiment_from_json(text):
    """Run a small evolution experiment described by a JSON document.

    Keys: q, mass, window [n_min, n_max], dt, steps, potential (null or
    {"[sigma,n]": value}), initial {family, label, n, sector}.
    """
    cfg = json.loads(text)
    from .context import QContext

    ctx = QContext(float(cfg["q"]))
    grid = LatticeGrid(ctx, int(cfg["window"][0]), int(cfg["window"][1]))
    rep = build_representation(grid)
    mass = float(cfg.get("mass", 1.0))
    pot = None
    if cfg.get("potential") is not None:
        vecs = {s: np.zeros(grid.size, dtype=complex) for s in grid.sectors}
        for key, val in cfg["potential"].items():
            sig, n = json.loads(key)
            vecs[sig][grid.index(n)] = val
        pot = vecs
    H = Hamiltonian(rep, mass=mass, potential=pot)
    ini = cfg["initial"]
    psi, energy = stationary_state(rep, ini.get("family", "C"),
                                   ini.get("label", "2n+1"),
                                   int(ini.get("n", 0)),
                                   int(ini.get("sector", 1)), mass)
    state = evolve(psi, H, float(cfg["dt"]), int(cfg["steps"]), record=True)
    return {
        "rep": rep,
        "hamiltonian": H,
        "initial": psi,
        "analytic_energy": energy,
        "final": state,
        "norm_drift": abs(state.norm()
                          - fn_norm(psi, tail_tol=float("inf"))),
    }


def history_to_csv(state):
    """CSV time series: t, sigma, n, rho, j at every valid site."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "sigma", "n", "rho", "j"])
    for t, rho, j in state.history:
        lo, hi = j.valid_window()
        for s in rho.grid.sectors:
            for n in range(lo, hi + 1):
                w.writerow([repr(float(t)), s, n,
                            repr(float(rho.value(s, n).real)),
                            repr(float(j.value(s, n).real))])
    return buf.getvalue()
