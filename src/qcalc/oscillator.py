"""Ladder calculus for the deformed oscillator.

The lowering operator mixes a double scale shift with the difference
derivative, a = alpha L^-2 - i beta nabla L^-1, and its adjoint raises.
Their q-weighted commutator a a+ - q^(-2m) a+ a is a constant, so tying
|alpha| to q / sqrt(1 - q^-2) normalizes it to one and the spectrum of
a+ a obeys E -> q^-2 E + 1 under raising.  On the lattice both are
stencils composed from the representation's shifts and derivative.

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
in xi is reported interior-relative.  A LadderPair keeps its tower: the
ground-state recursion runs once per pair and each raised state is built
once, however many residuals and tables ask for them, and the kept
states are read-only.  The q-Hermite coefficients are carried exactly in
the Laurent ring over s = q^(1/2).

The module also holds the Gaussian side of the transform pair: the mixed
cosine/sine sum of the lattice Gaussian q^(-(l^2+l)/2) c0 collapses to a
base-q^-2 exponential with constants that are Gauss sums, checkable
against their triple-product forms.  The l sum stops where the Gaussian
falls below 1e-14 of c0; both tau = +-1 are checked over nu = -8 .. 0.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .lattice import LatticeFn, Stencil, norm as fn_norm, worst
from .scalars import QQi, Scalar
from .schrodinger import GridTooSmall
from .special import SpecialFunctions


class NoDecay(Exception):
    """Ground-state recursion has not decayed inside the window."""


class ContaminationWarning(UserWarning):
    """Raising tower is running out of boundary-clean sites."""


class LadderPair:
    """Lowering/raising stencils over one representation, sectors stacked.

    m_index = 1 uses the two-shift form above; higher m widens the
    shifts (a = alpha L^-2m - i beta L^-(m+1) nabla L and the matching
    adjoint with its q^(-m-1) weight).  The commutator constant is
    kappa = q^(-2m) (1 - q^(-2m)) |alpha|^2 regardless.

    The operators are fixed once built; the pair keeps the excited tower
    psi_0, a+ psi_0, ... that ground_state and excited_states have built.
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
        self._tower = []
        # Rows damaged by window truncation.  The abstract stencil of a is
        # one-sided, but the realized product routes the on-site read
        # through a shift row that the window cuts: one extra bad row on
        # the opposite end.
        li, lf, nb = rep.L_inv, rep.L, rep.nabla
        if m_index == 1:
            self.lower_pads = (1, 2)
            self.raise_pads = (2, 1)
            self.a = alpha * (li @ li) - 1j * beta * (nb @ li)
            self.a_dag = (np.conj(alpha) * q2m * (lf @ lf)
                          - 1j * np.conj(beta) * (nb @ lf))
        else:
            def scale(k):
                # L^k, its weight rounded as k successive products of L's
                base = ctx.sqrt_q if k > 0 else 1.0 / ctx.sqrt_q
                return Stencil(rep.grid, {k: math.prod([base] * abs(k))})

            self.lower_pads = (0, 2 * m_index)
            self.raise_pads = (2 * m_index, 1)
            self.a = (alpha * scale(-2 * m_index)
                      - 1j * beta * scale(-m_index - 1) @ nb @ lf)
            self.a_dag = (np.conj(alpha) * q2m * scale(2 * m_index)
                          - 1j * ctx.qpow(-m_index - 1) * np.conj(beta)
                          * nb @ li @ scale(m_index + 1))

    @property
    def ctx(self):
        return self.rep.ctx

    def _interior(self, margin):
        if 2 * margin >= self.rep.grid.size:
            raise GridTooSmall(f"margin {margin} leaves no interior rows")
        return margin

    def _const(self, v):
        return Stencil(self.rep.grid, {0: v})

    # -- structural residuals ------------------------------------------

    def commutator_residual(self):
        """Interior max of a a+ - q^(-2m) a+ a - kappa, over both sectors."""
        q2m = self.ctx.qpow(-2 * self.m_index)
        r = (self.a @ self.a_dag - q2m * self.a_dag @ self.a
             - self._const(self.kappa))
        return r.max_abs(self._interior(4 * self.m_index))

    def hamiltonian_residual(self):
        """Interior max of a+ a against its expanded normal form.

        The expansion |alpha|^2 q^-2 - i conj(alpha) beta nabla L
        - i alpha conj(beta) nabla L^-1 - q |beta|^2 nabla^2 holds for
        m_index = 1 only.
        """
        if self.m_index != 1:
            raise ValueError("expanded form covers m_index = 1 only")
        ctx = self.ctx
        nb, lf, li = self.rep.nabla, self.rep.L, self.rep.L_inv
        expanded = (self._const(abs(self.alpha) ** 2 * ctx.qpow(-2))
                    - 1j * np.conj(self.alpha) * self.beta * (nb @ lf)
                    - 1j * self.alpha * np.conj(self.beta) * (nb @ li)
                    - ctx.q * abs(self.beta) ** 2 * (nb @ nb))
        return (self.a_dag @ self.a - expanded).max_abs(self._interior(4))

    # -- state maps ------------------------------------------------------

    def apply_raising(self, fn):
        """a+ fn as a lattice function, padding damage tracked."""
        return self._apply(self.a_dag, fn, *self.raise_pads)

    def apply_lowering(self, fn):
        """a fn as a lattice function, padding damage tracked."""
        return self._apply(self.a, fn, *self.lower_pads)

    def _apply(self, op, fn, pad_lo, pad_hi):
        return self.rep.lattice_fn(op @ self.rep.coords(fn),
                                   fn.pad_lo + pad_lo, fn.pad_hi + pad_hi)

    def lowering_defect(self, fn):
        """L2 ratio |a fn| / |fn| over the undamaged rows."""
        c = self.rep.coords(fn)
        lo = fn.pad_lo + self.lower_pads[0]
        hi = self.rep.grid.size - fn.pad_hi - self.lower_pads[1]
        num = float(np.sum(np.abs((self.a @ c)[:, lo:hi]) ** 2))
        return math.sqrt(num) / math.sqrt(float(np.sum(np.abs(c) ** 2)))

    # -- the xi variable ---------------------------------------------------

    def xi_values(self):
        """xi = i q^(-1/2) x / (sqrt(2) beta), sectors stacked."""
        x = self.rep.x.diags[0].real
        return (1j / (math.sqrt(2.0) * self.beta)) * x / self.ctx.sqrt_q

    def raising_xi_residual(self):
        """Interior max of a+ xi - q^-2 xi a+ + q^(-3/2)/sqrt(2)."""
        if self.m_index != 1:
            raise ValueError("the xi exchange relation covers m_index = 1 only")
        ctx = self.ctx
        const = ctx.qpow(-1) / (ctx.sqrt_q * math.sqrt(2.0))
        xi = self._const(self.xi_values())
        r = (self.a_dag @ xi - ctx.qpow(-2) * xi @ self.a_dag
             + self._const(const))
        return r.max_abs(self._interior(2))


def build_ladder(rep, alpha=None, beta=None, m_index=1):
    return LadderPair(rep, alpha, beta, m_index)


# -- ground state -------------------------------------------------------


def _kept(psi):
    """psi with its values made read-only, as the pair hands it out."""
    psi.data.flags.writeable = False
    return psi


def ground_state(pair):
    """Normalized kernel state of the lowering operator.

    Anchors each parity chain at its two lowest sites with the series
    value of the base-q^-2 exponential, then recurses upward:
    psi(sigma q^(n+2)) = psi(sigma q^n) / (1 + i sigma lam r q^n) with
    r = alpha/beta.  Raises NoDecay unless the top-edge values have
    fallen below 1e-3 of the chain peak.  The pair keeps the state: the
    recursion runs on the first call that succeeds, and later calls
    return the same read-only state.
    """
    if not pair._tower:
        pair._tower.append(_kept(_solve_ground_state(pair)))
    return pair._tower[0]


def _solve_ground_state(pair):
    if pair.m_index != 1:
        raise ValueError("ground-state recursion covers m_index = 1 only")
    rep = pair.rep
    ctx = rep.ctx
    grid = rep.grid
    r = pair.alpha / pair.beta
    lam = ctx.lam
    x = grid.points
    v = np.zeros(x.shape, dtype=complex)
    v[:, :2] = np.reshape([rep.sf.q_exp(-1j * lam * r * p * ctx.qpow(-2))
                           for p in x[:, :2].ravel().tolist()], (-1, 2))
    ratio = 1.0 + 1j * np.array(grid.sectors)[:, None] * lam * r * grid.qpows
    for i in range(grid.size - 2):
        v[:, i + 2] = v[:, i] / ratio[:, i]
    peak = np.max(np.abs(v), axis=1)
    top = np.max(np.abs(v[:, -2:]), axis=1)
    stuck = top > 1e-3 * peak
    if stuck.any():
        k = stuck.argmax()
        raise NoDecay(f"top-edge amplitude {top[k]:.3e} vs peak {peak[k]:.3e} "
                      f"in sector {grid.sectors[k]}")
    psi = LatticeFn(grid, v)
    return psi.scale(1.0 / fn_norm(psi, tail_tol=math.inf))


def series_match_residual(pair, psi):
    """Max relative gap to the base-q^-2 exponential, inside its radius.

    The exponential is scaled to match psi at its lowest even site, so
    a normalized state can be compared without rescaling by hand.
    """
    rep = pair.rep
    ctx = rep.ctx
    sf = rep.sf
    r = pair.alpha / pair.beta
    c0 = psi.value(1, rep.grid.n_min) / sf.q_exp(
        -1j * ctx.lam * r * ctx.qpow(rep.grid.n_min) * ctx.qpow(-2))
    resid = []
    for x, v in zip(rep.grid.points.ravel().tolist(), psi.data.ravel()):
        z = -1j * ctx.lam * r * x * ctx.qpow(-2)
        if abs(z) >= 1.0:
            continue
        want = c0 * sf.q_exp(z)
        resid.append(abs(v - want) / abs(want))
    return worst(resid)


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


def excited_states(pair, n_max):
    """[psi_0, a+ psi_0, ..., (a+)^n_max psi_0], unnormalized above 0.

    Warns with ContaminationWarning, on every call, once the
    boundary-clean window of the next state would fall below 6 sites.
    The states are the pair's own, each raised once per pair.
    """
    tower = pair._tower
    ground_state(pair)
    for k in range(n_max):
        if len(tower) == k + 1:
            tower.append(_kept(pair.apply_raising(tower[k])))
        nxt = tower[k + 1]
        clean = pair.rep.grid.size - nxt.pad_lo - nxt.pad_hi
        if clean < 6:
            warnings.warn(
                f"state {k + 1} has {clean} boundary-clean sites",
                ContaminationWarning)
    return tower[:max(n_max, 0) + 1]


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
    with H = a+ a applied through the ladder maps to the whole tower at
    once, one stencil product for a+ and one for a.
    """
    states = excited_states(pair, n_levels)
    energies = ladder_energies(pair, n_levels)
    tower = LatticeFn(pair.rep.grid, [psi.data for psi in states])
    h_tower = pair.apply_lowering(pair.apply_raising(tower))
    rows = []
    for n, (psi, h) in enumerate(zip(states, h_tower.data)):
        h_psi = psi._wrap(h, psi.pad_lo + h_tower.pad_lo,
                          psi.pad_hi + h_tower.pad_hi)
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
    xi = pair.xi_values()
    out = []
    for n, lhs in enumerate(states):
        hn = q_hermite_value(polys[n], q, xi)
        rhs = LatticeFn(pair.rep.grid, (2.0 ** (-0.5 * n)) * hn * psi0.data)
        diff = lhs - rhs
        out.append(diff.max_abs_interior() / rhs.max_abs_interior())
    return out


# -- Gaussian / q-exponential transform pair --------------------------------


def _gaussian_window(sf, c0):
    """Half-width of the l sum; sized so the Gaussian ends are dead."""
    floor = 1e-14 * abs(c0)
    l = 2
    while abs(sf.lattice_gaussian(2 * l, c0)) >= floor \
            or abs(sf.lattice_gaussian(-2 * l, c0)) >= floor:
        l += 1
    return l + 1


def gaussian_fourier_pair(ctx, c0=1.0):
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
    half = _gaussian_window(sf, c0)
    consts = sf.gauss_sum_constants(c0)
    nq = sf.n_q()
    scale = nq / math.sqrt(2.0)
    report = {
        "q": q,
        "c0": c0,
        "l_halfwidth": half,
        "nu_range": [-8, 0],
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
    gauss = sf.lattice_gaussian

    def even_sum(nu, tau):
        acc = 0.0j
        for l in ls:
            z = ctx.qpow(2 * (nu + l))
            acc += ctx.qpow(nu + l) * (gauss(2 * l, c0) * sf.cos_q(z)
                                       + 1j * tau * gauss(2 * l + 1, c0)
                                       * sf.sin_q(z))
        return scale * acc

    even, odd, conj_gap = [], [], []
    for tau in (1, -1):
        for nu in range(-8, 1):
            got = even_sum(nu, tau)
            want = (scale * consts["c0_tilde"][1] * ctx.qpow(nu)
                    * sf.q_exp(1j * tau * ctx.qpow(2 * nu - 1)))
            even.append(abs(got - want) / abs(want))
            if tau == 1:
                conj_gap.append(abs(even_sum(nu, -1) - np.conj(got))
                                / abs(got))
        for nu in range(-8, 0):
            acc = 0.0j
            for l in ls:
                acc += ctx.qpow(nu + l) * (
                    gauss(2 * l + 1, c0) * q
                    * sf.cos_q(ctx.qpow(2 * (nu + l + 1)))
                    + 1j * tau * gauss(2 * l, c0)
                    * sf.sin_q(ctx.qpow(2 * (nu + l))))
            got = scale * acc
            want = (scale * consts["c0_prime"][1] * ctx.qpow(nu)
                    * sf.q_exp(1j * tau * ctx.qpow(2 * nu)))
            odd.append(abs(got - want) / abs(want))
    report["even_max_rel"] = worst(even)
    report["odd_max_rel"] = worst(odd)
    report["conjugation_max_rel"] = worst(conj_gap)
    report["max_rel"] = worst(even + odd)
    return report


# -- text output -----------------------------------------------------------


def level_table_csv(pair, n_levels=8):
    lines = ["n,energy"]
    for n, e in enumerate(ladder_energies(pair, n_levels)):
        lines.append(f"{n},{float(e)!r}")
    return "\n".join(lines) + "\n"
