"""Ladder calculus for the deformed oscillator.

The lowering operator mixes a double scale shift with the difference
derivative, a = alpha L^-2 - i beta nabla L^-1, and its adjoint raises.
Their q-weighted commutator a a+ - q^(-2m) a+ a is a constant, so tying
|alpha| to q / sqrt(1 - q^-2) normalizes it to one and the spectrum of
a+ a obeys E -> q^-2 E + 1 under raising.

Conventions fixed by the exchange relations, not by choice:

  * The position variable entering the raising algebra is q^(-1/2) x.
    With xi = i q^(-1/2) x / (sqrt(2) beta), the raising operator obeys
    a+ xi = q^-2 xi a+ - q^(-3/2)/sqrt(2) exactly, provided beta is
    purely imaginary.  The printed default is therefore
    beta = i q^(-1/2)/sqrt(1 - q^-2) and alpha = q^(3/2) beta, which
    keeps alpha/beta real (the ground state needs that) and makes xi
    real on the lattice.
  * The ground state solves alpha L^-2 psi = i beta nabla L^-1 psi,
    a two-term recursion up the site ladder; its closed form is the
    base-q^-2 exponential of -i lam (alpha/beta) x / q^2, which the
    solver uses to anchor the four parity chains at the small-|x| end
    where the series converges.

Repeated raising builds the excited tower; each application consumes two
sites of lower padding, and the match against the q-Hermite polynomials
in xi is reported interior-relative.  The q-Hermite coefficients are
carried exactly in the Laurent ring over s = q^(1/2).

The module also holds the Gaussian side of the transform pair: the mixed
cosine/sine sum of the lattice Gaussian q^(-(l^2+l)/2) c0 collapses to a
base-q^-2 exponential with constants that are Gauss sums, checkable
against their triple-product forms.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fourier import WindowTooSmall
from .integration import norm as fn_norm
from .lattice import LatticeFn
from .scalars import QQi, Scalar
from .schrodinger import GridTooSmall
from .special import SpecialFunctions


class NoDecay(Exception):
    """Ground-state recursion has not decayed inside the window."""


class ContaminationWarning(UserWarning):
    """Raising tower is running out of boundary-clean sites."""


def _matpow(m, k):
    out = np.eye(m.shape[0], dtype=complex)
    for _ in range(k):
        out = out @ m
    return out


class LadderPair:
    """Lowering/raising matrices over one representation, per sector.

    m_index = 1 uses the two-shift form above; higher m widens the
    shifts (a = alpha L^-2m - i beta L^-(m+1) nabla L and the matching
    adjoint with its q^(-m-1) weight).  The commutator constant is
    kappa = q^(-2m) (1 - q^(-2m)) |alpha|^2 regardless.
    """

    def __init__(self, rep, alpha=None, beta=None, m_index=1):
        if m_index < 1 or int(m_index) != m_index:
            raise ValueError("m_index must be a positive integer")
        m_index = int(m_index)
        if rep.grid.size < 8 * m_index:
            raise GridTooSmall(
                f"{rep.grid.size} sites per sector, need >= {8 * m_index}")
        ctx = rep.ctx
        if beta is None:
            beta = 1j / (ctx.sqrt_q * math.sqrt(1.0 - ctx.qpow(-2).real))
        beta = complex(beta)
        if alpha is None:
            alpha = ctx.sqrt_q ** 3 * beta
        alpha = complex(alpha)
        if alpha == 0 or beta == 0:
            raise ValueError("alpha and beta must be nonzero")
        self.rep = rep
        self.alpha = alpha
        self.beta = beta
        self.m_index = m_index
        q2m = ctx.qpow(-2 * m_index)
        self.kappa = q2m * (1.0 - q2m) * abs(alpha) ** 2
        # Matrix rows damaged by window truncation.  The abstract stencil
        # of a is one-sided, but the realized product routes the on-site
        # read through a shift row that the window cuts: one extra bad
        # row on the opposite end.
        if m_index == 1:
            self.lower_pads = (1, 2)
            self.raise_pads = (2, 1)
        else:
            self.lower_pads = (0, 2 * m_index)
            self.raise_pads = (2 * m_index, 1)
        self.a = {}
        self.a_dag = {}
        for s in rep.grid.sectors:
            li, lf, nb = rep.L_inv[s], rep.L[s], rep.nabla[s]
            if m_index == 1:
                self.a[s] = alpha * (li @ li) - 1j * beta * (nb @ li)
                self.a_dag[s] = (np.conj(alpha) * q2m * (lf @ lf)
                                 - 1j * np.conj(beta) * (nb @ lf))
            else:
                self.a[s] = (alpha * _matpow(li, 2 * m_index)
                             - 1j * beta * _matpow(li, m_index + 1) @ nb @ lf)
                self.a_dag[s] = (np.conj(alpha) * q2m * _matpow(lf, 2 * m_index)
                                 - 1j * ctx.qpow(-m_index - 1) * np.conj(beta)
                                 * nb @ li @ _matpow(lf, m_index + 1))

    @property
    def ctx(self):
        return self.rep.ctx

    def _rows(self, margin):
        size = self.rep.grid.size
        if 2 * margin >= size:
            raise GridTooSmall(f"margin {margin} leaves no interior rows")
        return slice(margin, size - margin)

    # -- structural residuals ------------------------------------------

    def commutator_residual(self):
        """Interior max of a a+ - q^(-2m) a+ a - kappa, over both sectors."""
        q2m = self.ctx.qpow(-2 * self.m_index)
        rows = self._rows(4 * self.m_index)
        eye = np.eye(self.rep.grid.size)
        worst = 0.0
        for s in self.rep.grid.sectors:
            r = (self.a[s] @ self.a_dag[s] - q2m * self.a_dag[s] @ self.a[s]
                 - self.kappa * eye)
            worst = max(worst, float(np.max(np.abs(r[rows, rows]))))
        return worst

    def hamiltonian_residual(self):
        """Interior max of a+ a against its expanded normal form.

        The expansion |alpha|^2 q^-2 - i conj(alpha) beta nabla L
        - i alpha conj(beta) nabla L^-1 - q |beta|^2 nabla^2 holds for
        m_index = 1 only.
        """
        if self.m_index != 1:
            raise ValueError("expanded form covers m_index = 1 only")
        ctx = self.ctx
        rows = self._rows(4)
        eye = np.eye(self.rep.grid.size)
        worst = 0.0
        for s in self.rep.grid.sectors:
            nb, lf, li = self.rep.nabla[s], self.rep.L[s], self.rep.L_inv[s]
            direct = self.a_dag[s] @ self.a[s]
            expanded = (abs(self.alpha) ** 2 * ctx.qpow(-2) * eye
                        - 1j * np.conj(self.alpha) * self.beta * (nb @ lf)
                        - 1j * self.alpha * np.conj(self.beta) * (nb @ li)
                        - ctx.q * abs(self.beta) ** 2 * (nb @ nb))
            worst = max(worst, float(np.max(np.abs((direct - expanded)[rows, rows]))))
        return worst

    # -- state maps ------------------------------------------------------

    def apply_raising(self, fn):
        """a+ fn as a lattice function, padding damage tracked."""
        return self._apply(self.a_dag, fn, *self.raise_pads)

    def apply_lowering(self, fn):
        """a fn as a lattice function, padding damage tracked."""
        return self._apply(self.a, fn, *self.lower_pads)

    def _apply(self, mats, fn, pad_lo, pad_hi):
        if fn.grid != self.rep.grid:
            raise ValueError("function lives on a different grid")
        c = self.rep.coeffs(fn)
        out = {s: mats[s] @ c[s] for s in self.rep.grid.sectors}
        return self.rep.lattice_fn(out, fn.pad_lo + pad_lo, fn.pad_hi + pad_hi)

    def lowering_defect(self, fn):
        """L2 ratio |a fn| / |fn| over the undamaged rows."""
        c = self.rep.coeffs(fn)
        lo = fn.pad_lo + self.lower_pads[0]
        hi = self.rep.grid.size - fn.pad_hi - self.lower_pads[1]
        num = 0.0
        den = 0.0
        for s in self.rep.grid.sectors:
            v = self.a[s] @ c[s]
            num += float(np.sum(np.abs(v[lo:hi]) ** 2))
            den += float(np.sum(np.abs(c[s]) ** 2))
        return math.sqrt(num) / math.sqrt(den)

    # -- the xi variable ---------------------------------------------------

    def xi_values(self, s):
        """xi = i q^(-1/2) x / (sqrt(2) beta) along one sector."""
        x = np.real(np.diag(self.rep.x[s]))
        return (1j / (math.sqrt(2.0) * self.beta)) * x / self.ctx.sqrt_q

    def raising_xi_residual(self):
        """Interior max of a+ xi - q^-2 xi a+ + q^(-3/2)/sqrt(2)."""
        if self.m_index != 1:
            raise ValueError("the xi exchange relation covers m_index = 1 only")
        ctx = self.ctx
        rows = self._rows(2)
        eye = np.eye(self.rep.grid.size)
        const = ctx.qpow(-1) / (ctx.sqrt_q * math.sqrt(2.0))
        worst = 0.0
        for s in self.rep.grid.sectors:
            xi = np.diag(self.xi_values(s)).astype(complex)
            r = (self.a_dag[s] @ xi - ctx.qpow(-2) * xi @ self.a_dag[s]
                 + const * eye)
            worst = max(worst, float(np.max(np.abs(r[rows, rows]))))
        return worst


def build_ladder(rep, alpha=None, beta=None, m_index=1):
    return LadderPair(rep, alpha, beta, m_index)


# -- ground state -------------------------------------------------------


def ground_state(pair, decay_tol=1e-3):
    """Normalized kernel state of the lowering operator.

    Anchors each parity chain at its two lowest sites with the series
    value of the base-q^-2 exponential, then recurses upward:
    psi(sigma q^(n+2)) = psi(sigma q^n) / (1 + i sigma lam r q^n) with
    r = alpha/beta.  Raises NoDecay unless the top-edge values have
    fallen below decay_tol of the chain peak.
    """
    if pair.m_index != 1:
        raise ValueError("ground-state recursion covers m_index = 1 only")
    rep = pair.rep
    ctx = rep.ctx
    grid = rep.grid
    sf = SpecialFunctions(ctx)
    r = pair.alpha / pair.beta
    lam = ctx.lam
    vals = {}
    for s in grid.sectors:
        v = np.zeros(grid.size, dtype=complex)
        for anchor in (0, 1):
            n = grid.n_min + anchor
            z = -1j * lam * r * (s * ctx.qpow(n)) * ctx.qpow(-2)
            v[anchor] = sf.q_exp(z)
        for i in range(grid.size - 2):
            n = grid.n_min + i
            v[i + 2] = v[i] / (1.0 + 1j * s * lam * r * ctx.qpow(n))
        peak = float(np.max(np.abs(v)))
        top = float(np.max(np.abs(v[-2:])))
        if top > decay_tol * peak:
            raise NoDecay(
                f"top-edge amplitude {top:.3e} vs peak {peak:.3e} in sector {s}")
        vals[s] = v
    psi = LatticeFn(grid, vals)
    return psi.scale(1.0 / fn_norm(psi, tail_tol=math.inf))


def series_match_residual(pair, psi, c0=None):
    """Max relative gap to the base-q^-2 exponential, inside its radius.

    c0 defaults to the value that matches psi at its lowest even site,
    so a normalized state can be compared without rescaling by hand.
    """
    rep = pair.rep
    ctx = rep.ctx
    sf = SpecialFunctions(ctx)
    r = pair.alpha / pair.beta
    if c0 is None:
        c0 = psi.value(1, rep.grid.n_min) / sf.q_exp(
            -1j * ctx.lam * r * ctx.qpow(rep.grid.n_min) * ctx.qpow(-2))
    worst = 0.0
    for s in rep.grid.sectors:
        for n in rep.grid.exponents():
            z = -1j * ctx.lam * r * (s * ctx.qpow(n)) * ctx.qpow(-2)
            if abs(z) >= 1.0:
                continue
            want = c0 * sf.q_exp(z)
            worst = max(worst, abs(psi.value(s, n) - want) / abs(want))
    return worst


def raising_on_ground_residual(pair, psi):
    """Pointwise gap of a+ psi0 against its closed form.

    For r = alpha/beta the identity is a+ psi0 = q^-2 conj(beta)
    (conj(r) - r) psi0 + i conj(alpha) lam r q^-4 x psi0; with the
    default parameters the first term vanishes and the second is
    i x psi0 / (q beta).
    """
    ctx = pair.ctx
    r = pair.alpha / pair.beta
    lhs = pair.apply_raising(psi)
    const = ctx.qpow(-2) * np.conj(pair.beta) * (np.conj(r) - r)
    slope = 1j * np.conj(pair.alpha) * ctx.lam * r * ctx.qpow(-4)
    rhs = psi.scale(const) + psi.x_multiply().scale(slope)
    diff = lhs - rhs
    return diff.max_abs_interior() / rhs.max_abs_interior()


# -- excited tower ------------------------------------------------------


def excited_states(pair, n_max, min_clean=6):
    """[psi_0, a+ psi_0, ..., (a+)^n_max psi_0], unnormalized above 0.

    Warns with ContaminationWarning once the boundary-clean window of
    the next state would fall below min_clean sites.
    """
    states = [ground_state(pair)]
    for k in range(n_max):
        nxt = pair.apply_raising(states[-1])
        clean = pair.rep.grid.size - nxt.pad_lo - nxt.pad_hi
        if clean < min_clean:
            warnings.warn(
                f"state {k + 1} has {clean} boundary-clean sites",
                ContaminationWarning)
        states.append(nxt)
    return states


def ladder_energies(pair, n_levels):
    """Exact model energies E_0 = 0, E_{n+1} = q^(-2m) E_n + kappa."""
    q2m = pair.ctx.qpow(-2 * pair.m_index)
    out = [0.0]
    for _ in range(n_levels):
        out.append(q2m * out[-1] + pair.kappa)
    return out


def spectrum_table(pair, n_levels=3):
    """Rows (n, energy, residual): eigen-residual of each tower state.

    residual = max_interior |H psi_n - E_n psi_n| / max_interior |psi_n|,
    with H = a+ a applied through the ladder maps.
    """
    states = excited_states(pair, n_levels)
    energies = ladder_energies(pair, n_levels)
    rows = []
    for n, psi in enumerate(states):
        h_psi = pair.apply_lowering(pair.apply_raising(psi))
        h_psi = h_psi - psi.scale(pair.kappa)
        h_psi = h_psi.scale(1.0 / pair.ctx.qpow(-2 * pair.m_index))
        diff = h_psi - psi.scale(energies[n])
        rows.append((n, energies[n],
                     diff.max_abs_interior() / psi.max_abs_interior(
                         extra_margin=h_psi.pad_lo - psi.pad_lo)))
    return rows


# -- q-Hermite tower -----------------------------------------------------

# H_{n+1} = 2 q^(-1/2) q^(-2n) xi H_n - 2 q^(-n-1) [n] H_{n-1}, H_0 = 1,
# with the symmetric [n]; coefficients live in the exact s = q^(1/2) ring.


def q_hermite_polynomials(n_max):
    """Coefficient lists (index = xi power) for H_0 .. H_n_max, exact."""
    polys = [[Scalar.from_rational(1)]]
    if n_max == 0:
        return polys
    polys.append([Scalar(), Scalar({-1: QQi(2)})])
    for n in range(1, n_max):
        lead = Scalar({-1 - 4 * n: QQi(2)})
        drop = Scalar({-2 * n - 2: QQi(2)}) * Scalar.qnum(n)
        prev, cur = polys[-2], polys[-1]
        nxt = [Scalar() for _ in range(n + 2)]
        for k, c in enumerate(cur):
            nxt[k + 1] = nxt[k + 1] + lead * c
        for k, c in enumerate(prev):
            nxt[k] = nxt[k] - drop * c
        polys.append(nxt)
    return polys


def q_hermite_value(coeffs, q, xi):
    """Horner evaluation of one coefficient list at numeric xi."""
    acc = np.zeros_like(np.asarray(xi, dtype=complex))
    for c in reversed([c.evaluate(q) for c in coeffs]):
        acc = acc * xi + c
    return acc


def hermite_match_residuals(pair, n_max=6):
    """Interior-relative gap of (a+)^n psi0 vs 2^(-n/2) H_n(xi) psi0."""
    if pair.m_index != 1:
        raise ValueError("the xi tower covers m_index = 1 only")
    states = excited_states(pair, n_max)
    polys = q_hermite_polynomials(n_max)
    q = pair.ctx.q
    psi0 = states[0]
    out = []
    for n, lhs in enumerate(states):
        vals = {}
        for s in pair.rep.grid.sectors:
            hn = q_hermite_value(polys[n], q, pair.xi_values(s))
            vals[s] = (2.0 ** (-0.5 * n)) * hn * psi0.values[s]
        rhs = LatticeFn(pair.rep.grid, vals)
        diff = lhs - rhs
        out.append(diff.max_abs_interior() / rhs.max_abs_interior())
    return out


def positivity_floor(pair, rng, trials=20, margin=None):
    """Min of Re<c, a+ a c> over random interior-supported states."""
    size = pair.rep.grid.size
    if margin is None:
        margin = 4 * pair.m_index
    lo, hi = margin, size - margin
    floor = math.inf
    for _ in range(trials):
        for s in pair.rep.grid.sectors:
            c = np.zeros(size, dtype=complex)
            c[lo:hi] = (rng.standard_normal(hi - lo)
                        + 1j * rng.standard_normal(hi - lo))
            c /= np.linalg.norm(c)
            val = float(np.real(np.vdot(c, pair.a_dag[s] @ (pair.a[s] @ c))))
            floor = min(floor, val)
    return floor


# -- Gaussian / q-exponential transform pair --------------------------------


def _gaussian_window(sf, c0, l_halfwidth, decay_floor):
    """Half-width of the l sum; sized so the Gaussian ends are dead."""
    if l_halfwidth is not None:
        edge = max(abs(sf.lattice_gaussian(2 * l_halfwidth, c0)),
                   abs(sf.lattice_gaussian(-2 * l_halfwidth, c0)),
                   abs(sf.lattice_gaussian(2 * l_halfwidth + 1, c0)),
                   abs(sf.lattice_gaussian(-2 * l_halfwidth + 1, c0)))
        if edge >= decay_floor * abs(c0):
            raise WindowTooSmall(
                f"Gaussian edge {edge:.3e} at l = +-{l_halfwidth}")
        return l_halfwidth
    l = 2
    while abs(sf.lattice_gaussian(2 * l, c0)) >= decay_floor * abs(c0) \
            or abs(sf.lattice_gaussian(-2 * l, c0)) >= decay_floor * abs(c0):
        l += 1
    return l + 1


def gaussian_fourier_pair(ctx, c0=1.0, nu_lo=-8, nu_hi=0, l_halfwidth=None,
                          taus=(1, -1), decay_floor=1e-14):
    """Transform the lattice Gaussian and compare both closed forms.

    Even outputs: g(tau q^(2 nu)) from the mixed cosine/sine sum against
    (N_q/sqrt2) c0~ q^nu e_{q^-2}(i tau q^(2 nu - 1)); odd outputs use
    the shifted kernel row and c0'.  Comparisons run over the nu range
    where the series argument stays inside the unit radius (nu <= 0
    even, nu <= -1 odd).  Constants come out both as direct Gauss sums
    and as triple products.
    """
    sf = SpecialFunctions(ctx)
    q = ctx.q
    half = _gaussian_window(sf, c0, l_halfwidth, decay_floor)
    consts = sf.gauss_sum_constants(c0)
    nq = sf.n_q()
    scale = nq / math.sqrt(2.0)
    report = {
        "q": q,
        "c0": c0,
        "l_halfwidth": half,
        "nu_range": [nu_lo, nu_hi],
        "constants": {},
            }
    for name in ("c0_tilde", "c0_prime"):
        direct, product = consts[name]
        report["constants"][name] = {
            "direct_sum": direct,
            "triple_product": product,
            "deviation": abs(direct - product),
        }
    ls = range(-half, half + 1)
    worst = {"even": 0.0, "odd": 0.0}
    conj_gap = 0.0
    for tau in taus:
        for nu in range(nu_lo, min(nu_hi, 0) + 1):
            acc = 0.0j
            for l in ls:
                w = ctx.qpow(nu + l)
                acc += w * (sf.lattice_gaussian(2 * l, c0)
                            * sf.cos_q(ctx.qpow(2 * (nu + l)))
                            + 1j * tau * sf.lattice_gaussian(2 * l + 1, c0)
                            * sf.sin_q(ctx.qpow(2 * (nu + l))))
            got = scale * acc
            want = (scale * consts["c0_tilde"][1] * ctx.qpow(nu)
                    * sf.q_exp(1j * tau * ctx.qpow(2 * nu - 1)))
            worst["even"] = max(worst["even"], abs(got - want) / abs(want))
            if tau == 1 and -1 in taus:
                acc_m = 0.0j
                for l in ls:
                    w = ctx.qpow(nu + l)
                    acc_m += w * (sf.lattice_gaussian(2 * l, c0)
                                  * sf.cos_q(ctx.qpow(2 * (nu + l)))
                                  - 1j * sf.lattice_gaussian(2 * l + 1, c0)
                                  * sf.sin_q(ctx.qpow(2 * (nu + l))))
                conj_gap = max(conj_gap,
                               abs(scale * acc_m - np.conj(got)) / abs(got))
        for nu in range(nu_lo, min(nu_hi, -1) + 1):
            acc = 0.0j
            for l in ls:
                w = ctx.qpow(nu + l)
                acc += w * (sf.lattice_gaussian(2 * l + 1, c0) * q
                            * sf.cos_q(ctx.qpow(2 * (nu + l + 1)))
                            + 1j * tau * sf.lattice_gaussian(2 * l, c0)
                            * sf.sin_q(ctx.qpow(2 * (nu + l))))
            got = scale * acc
            want = (scale * consts["c0_prime"][1] * ctx.qpow(nu)
                    * sf.q_exp(1j * tau * ctx.qpow(2 * nu)))
            worst["odd"] = max(worst["odd"], abs(got - want) / abs(want))
    report["even_max_rel"] = worst["even"]
    report["odd_max_rel"] = worst["odd"]
    report["conjugation_max_rel"] = conj_gap
    report["max_rel"] = max(worst.values())
    return report


# -- text output -----------------------------------------------------------


def level_table_csv(pair, n_levels=8):
    lines = ["n,energy"]
    for n, e in enumerate(ladder_energies(pair, n_levels)):
        lines.append(f"{n},{float(e)!r}")
    return "\n".join(lines) + "\n"
