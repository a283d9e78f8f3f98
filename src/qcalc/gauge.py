"""Gauge structure on the lattice: Einbein, covariant shifts, curvature.

A phase rotation per site sends psi to e^(i alpha) psi.  The plain
difference quotient is not covariant because it reads the field at
shifted sites, so every shift gets dressed with a compensating field E
(the Einbein) and its dual Et = L(1/E):

    shift(psi)     = Et (L psi)
    shift_inv(psi) = E (L^-1 psi)
    D              = x^-1 (shift_inv - shift) / lam

D transforms exactly like psi itself.  The gauge group here is the
unit-modulus phase group, but products are kept in operator order so a
matrix-valued value type would reuse the same formulas.

Fields that transform like E itself (two-sided) are transported with
the adjoint-type action; written through the quotient H/E that action
fixes E exactly, so the parallel-transport statement D E = 0 holds to
the last bit, not merely to rounding.

Time-dependent identities difference their slices centrally.  Their
residuals scale as dt^2 and are reported as measured, never absorbed
into a tolerance.
"""

from __future__ import annotations

import json

import numpy as np

from .lattice import GridMismatch, LatticeFn, LatticeGrid

SINGULAR_FLOOR = 1e-12


class SingularEinbein(ValueError):
    """Einbein modulus below the invertibility floor."""


class InsufficientTimeSlices(ValueError):
    """Central time differencing needs at least three slices."""


class RouteMismatch(AssertionError):
    """Shift form and expanded form of D disagree beyond tolerance."""


# -- pointwise helpers ----------------------------------------------------------


def _div(f, g):
    """Pointwise f/g; sites where g holds a shifted-in zero stay zero.

    Equal operands divide to exactly one: hardware complex division
    rounds the imaginary part of a/a, and the transport identities
    below deserve the correctly rounded quotient.
    """
    if f.grid != g.grid:
        raise GridMismatch("operands live on different grids")
    out = {}
    for s in f.grid.sectors:
        fv, gv = f.values[s], g.values[s]
        res = np.zeros(f.grid.size, dtype=complex)
        mask = gv != 0
        res[mask] = fv[mask] / gv[mask]
        res[mask & (fv == gv)] = 1.0
        out[s] = res
    return LatticeFn(f.grid, out,
                     max(f.pad_lo, g.pad_lo), max(f.pad_hi, g.pad_hi))


def _check_invertible(e):
    lo, hi = e.valid_window()
    i0, i1 = e.grid.index(lo), e.grid.index(hi)
    worst = min(float(np.min(np.abs(e.values[s][i0:i1 + 1])))
                for s in e.grid.sectors)
    if worst < SINGULAR_FLOOR:
        raise SingularEinbein(f"einbein modulus {worst} below floor")


def unit_einbein(grid):
    return LatticeFn(grid, {s: np.ones(grid.size) for s in grid.sectors})


def dual_einbein(e):
    """Et = L(1/E), so Et(sigma q^n) E(sigma q^(n-1)) = 1."""
    _check_invertible(e)
    return _div(unit_einbein(e.grid), e).L_shift(1)


def phase_field(alpha, sign=1):
    """e^(i sign alpha); only the real part of alpha enters, keeping
    the modulus exactly one at every site."""
    out = {s: np.exp(1j * sign * alpha.values[s].real)
           for s in alpha.grid.sectors}
    return LatticeFn(alpha.grid, out, alpha.pad_lo, alpha.pad_hi)


# -- covariant operators ----------------------------------------------------------


def covariant_shift(e, psi):
    return dual_einbein(e) * psi.L_shift(1)


def covariant_shift_inv(e, psi):
    return e * psi.L_shift(-1)


def covariant_derivative(e, psi, route="both", route_tol=1e-12):
    """x^-1 (shift_inv - shift) / lam.

    route "both" evaluates the shift form and the expanded form
    E nabla + x^-1 (E - Et) L / lam and demands they agree; "shift"
    and "expanded" pick one evaluation unchecked.
    """
    ctx = e.grid.ctx
    et = dual_einbein(e)
    shift = ((covariant_shift_inv(e, psi) - et * psi.L_shift(1))
             .x_multiply(-1).scale(ctx.inv_lam))
    if route == "shift":
        return shift
    expanded = (e * psi.nabla_fn()
                + ((e - et) * psi.L_shift(1))
                .x_multiply(-1).scale(ctx.inv_lam))
    if route == "expanded":
        return expanded
    gap = (shift - expanded).max_abs_interior()
    if gap > route_tol:
        raise RouteMismatch(f"derivative routes differ by {gap}")
    return shift


def connection_field(e):
    """Coefficient of L in the connection: x^-1 (1 - Et/E) / lam."""
    ratio = _div(dual_einbein(e), e)
    return ((unit_einbein(e.grid) - ratio)
            .x_multiply(-1).scale(e.grid.ctx.inv_lam))


def einbein_shift(e, h):
    """Transport of a field h that transforms like E: L(h/E) * E."""
    u = _div(h, e)
    return u.L_shift(1) * e


def einbein_shift_inv(e, h):
    u = _div(h, e)
    return e * u.L_shift(-1)


def einbein_derivative(e, h):
    """D on einbein-like fields; equals E nabla(h/E), so D E = 0 exactly."""
    diff = einbein_shift_inv(e, h) - einbein_shift(e, h)
    return diff.x_multiply(-1).scale(e.grid.ctx.inv_lam)


# -- gauge transformations ----------------------------------------------------------


def transform_field(psi, alpha):
    return phase_field(alpha) * psi


def transform_einbein(e, alpha):
    return phase_field(alpha) * e * phase_field(alpha, -1).L_shift(-1)


def transform_connection(phi, alpha):
    pos, neg = phase_field(alpha), phase_field(alpha, -1)
    return (pos.L_shift(-1) * phi * neg.L_shift(1)
            - pos.nabla_fn() * neg.L_shift(1))


def transform_omega(omega, alpha_before, alpha_after, dt):
    """Time connection law at the slice the alpha pair straddles."""
    mid = LatticeFn(omega.grid, {
        s: 0.5 * (alpha_before.values[s] + alpha_after.values[s])
        for s in omega.grid.sectors})
    dconj = (phase_field(alpha_after, -1)
             - phase_field(alpha_before, -1)).scale(1.0 / (2.0 * dt))
    return omega + phase_field(mid) * dconj


# -- curvature ------------------------------------------------------------------


def _middle(slices):
    if len(slices) < 3:
        raise InsufficientTimeSlices("need at least three time slices")
    return len(slices) // 2


def _ddt(slices, m, dt):
    return (slices[m + 1] - slices[m - 1]).scale(1.0 / (2.0 * dt))


def curvature(e_slices, omega, dt):
    """(T, F, calF) at the middle slice.

    T closes the commutator on D psi, F on L psi; calF = E F (L E) is
    the version of F that transforms by plain conjugation.
    """
    m = _middle(e_slices)
    e0 = e_slices[m]
    e_inv = _div(unit_einbein(e0.grid), e0)
    t = (_ddt(e_slices, m, dt) * e_inv
         - e0 * omega.L_shift(-1) * e_inv + omega)
    phis = [connection_field(e_slices[k]) for k in (m - 1, m, m + 1)]
    f = (_ddt(phis, 1, dt) - omega.nabla_fn()
         + omega.L_shift(-1) * phis[1] - phis[1] * omega.L_shift(1))
    cal_f = e0 * f * e0.L_shift(1)
    return t, f, cal_f


def commutator_residual(e_slices, psi_slices, omega, dt):
    """Defect of (Dt D - D Dt) psi = T D psi + E F (L psi), centered."""
    if len(psi_slices) != len(e_slices):
        raise InsufficientTimeSlices("field and einbein slices must align")
    m = _middle(e_slices)
    d_psi = [covariant_derivative(e_slices[k], psi_slices[k])
             for k in (m - 1, m, m + 1)]
    dt_of_d = _ddt(d_psi, 1, dt) + omega * d_psi[1]
    dt_psi = _ddt(psi_slices, m, dt) + omega * psi_slices[m]
    d_of_dt = covariant_derivative(e_slices[m], dt_psi)
    t, f, _ = curvature(e_slices, omega, dt)
    rhs = t * d_psi[1] + e_slices[m] * f * psi_slices[m].L_shift(1)
    return (dt_of_d - d_of_dt - rhs).max_abs_interior()


def mixed_commutator_residual(e_slices, psi_slices, omega, dt):
    """Defect of (shift Dt - Dt shift) psi = L(T psi / E), centered."""
    if len(psi_slices) != len(e_slices):
        raise InsufficientTimeSlices("field and einbein slices must align")
    m = _middle(e_slices)
    shifted = [covariant_shift(e_slices[k], psi_slices[k])
               for k in (m - 1, m, m + 1)]
    dt_psi = _ddt(psi_slices, m, dt) + omega * psi_slices[m]
    lhs = (covariant_shift(e_slices[m], dt_psi)
           - _ddt(shifted, 1, dt) - omega * shifted[1])
    t, _, _ = curvature(e_slices, omega, dt)
    rhs = _div(t * psi_slices[m], e_slices[m]).L_shift(1)
    return (lhs - rhs).max_abs_interior()


# -- identity residuals (pure, reusable by tests and reports) ------------------------


def shift_inverse_residual(e, psi):
    """Worst defect of shift(shift_inv psi) = shift_inv(shift psi) = psi."""
    there = covariant_shift(e, covariant_shift_inv(e, psi)) - psi
    back = covariant_shift_inv(e, covariant_shift(e, psi)) - psi
    return max(there.max_abs_interior(), back.max_abs_interior())


def derivative_covariance_residual(e, psi, alpha):
    direct = transform_field(covariant_derivative(e, psi), alpha)
    transformed = covariant_derivative(transform_einbein(e, alpha),
                                       transform_field(psi, alpha))
    return (transformed - direct).max_abs_interior()


def connection_consistency_residual(e, alpha):
    """Transformation law of phi against recomputing it from E'."""
    via_law = transform_connection(connection_field(e), alpha)
    via_einbein = connection_field(transform_einbein(e, alpha))
    return (via_einbein - via_law).max_abs_interior()


def product_leibniz_residual(e1, e2, psi, chi):
    """Defect of D(psi chi) = (D psi)(shift chi) + (shift_inv psi)(D chi)
    with the product representation carrying E1 E2."""
    lhs = covariant_derivative(e1 * e2, psi * chi)
    rhs = (covariant_derivative(e1, psi) * covariant_shift(e2, chi)
           + covariant_shift_inv(e1, psi) * covariant_derivative(e2, chi))
    return (lhs - rhs).max_abs_interior()


def scalar_factor_residual(e, f, psi):
    """Scalars pass through the covariant shift as plain L f."""
    lhs = covariant_shift(e, f * psi)
    rhs = f.L_shift(1) * covariant_shift(e, psi)
    return (lhs - rhs).max_abs_interior()


def curvature_covariance_residual(e_slices, omega, alpha, dt):
    """T and calF conjugate by the phase; abelian, so they are invariant.

    alpha is static here: a time-dependent alpha would feed its own
    dt^2 differencing error into omega'.
    """
    t, _, cal_f = curvature(e_slices, omega, dt)
    e_prime = [transform_einbein(e, alpha) for e in e_slices]
    tp, _, cal_fp = curvature(e_prime, omega, dt)
    return max((tp - t).max_abs_interior(),
               (cal_fp - cal_f).max_abs_interior())


def coupling_linearity_ratio(e_base, psi, g):
    """max|D psi - nabla psi| at couplings g/2 and g; the ratio tends
    to 1/2 as g -> 0 because the deviation is first order in g."""
    one = unit_einbein(e_base.grid)
    h = e_base - one
    r = {}
    for scale_g in (g, 0.5 * g):
        e = one + h.scale(scale_g)
        dev = covariant_derivative(e, psi) - psi.nabla_fn()
        r[scale_g] = dev.max_abs_interior()
    return r[0.5 * g] / r[g]


# -- scenario generation and reporting ------------------------------------------------


def random_field(rng, grid, scale=1.0):
    out = {s: scale * (rng.uniform(-1, 1, grid.size)
                       + 1j * rng.uniform(-1, 1, grid.size))
           for s in grid.sectors}
    return LatticeFn(grid, out)


def random_einbein(rng, grid, amplitude=0.3):
    """1 + amplitude-bounded noise; stays clear of the singular floor
    for amplitude < 1/sqrt(2)."""
    return unit_einbein(grid) + random_field(rng, grid, amplitude)


def random_phase(rng, grid, amplitude=1.0):
    out = {s: rng.uniform(-amplitude, amplitude, grid.size)
           for s in grid.sectors}
    return LatticeFn(grid, out)


def einbein_path(rng, grid, amplitude=0.2, frequency=0.3):
    """Smooth-in-time invertible einbein; returns t -> LatticeFn.

    One draw fixes the path, so the same path can be sampled at
    several step sizes when measuring convergence order.
    """
    w1 = random_field(rng, grid, 1.0)
    w2 = random_field(rng, grid, 1.0)
    th1 = random_phase(rng, grid, np.pi)
    th2 = random_phase(rng, grid, np.pi)

    def at(t):
        vals = {}
        for s in grid.sectors:
            vals[s] = (1.0
                       + amplitude * np.sin(frequency * t + th1.values[s].real)
                       * w1.values[s].real
                       + 1j * amplitude
                       * np.cos(frequency * t + th2.values[s].real)
                       * w2.values[s].real)
        return LatticeFn(grid, vals)

    return at


def field_path(rng, grid, frequency=0.5):
    u = random_field(rng, grid, 1.0)
    v = random_field(rng, grid, 1.0)
    th = random_phase(rng, grid, np.pi)

    def at(t):
        vals = {}
        for s in grid.sectors:
            ph = frequency * t + th.values[s].real
            vals[s] = u.values[s] * np.cos(ph) + v.values[s] * np.sin(ph)
        return LatticeFn(grid, vals)

    return at


DEFAULT_SCENARIO = {
    "q": 2.0,
    "window": [-8, 8],
    "seed": 11,
    "dt": 1e-3,
    "einbein_amplitude": 0.3,
    "alpha_amplitude": 1.0,
    "transforms": 10,
}


def scenario_report(cfg=None):
    """Run the residual battery on a generated scenario.

    Returns a list of dicts with keys check, residual, tolerance, ok.
    The commutator rows carry the dt^2 story: the -order row holds the
    measured convergence order of the residual under dt halving.
    """
    from .batteries import row, worst
    from .context import QContext

    merged = dict(DEFAULT_SCENARIO)
    if cfg:
        merged.update(json.loads(cfg) if isinstance(cfg, str) else cfg)
    ctx = QContext(float(merged["q"]))
    lo, hi = merged["window"]
    grid = LatticeGrid(ctx, int(lo), int(hi))
    rng = np.random.default_rng(int(merged["seed"]))
    dt = float(merged["dt"])
    amp = float(merged["einbein_amplitude"])
    aamp = float(merged["alpha_amplitude"])

    e = random_einbein(rng, grid, amp)
    e2 = random_einbein(rng, grid, amp)
    psi = random_field(rng, grid)
    chi = random_field(rng, grid)
    f_scalar = random_field(rng, grid)

    rows = []

    def add(check, residual, tolerance):
        rows.append(row(check, residual, tolerance))

    shift_form = covariant_derivative(e, psi, route="shift")
    expanded = covariant_derivative(e, psi, route="expanded")
    add("derivative-routes", (shift_form - expanded).max_abs_interior(), 1e-12)
    add("shift-inverse", shift_inverse_residual(e, psi), 1e-12)
    add("einbein-transport",
        einbein_derivative(e, e).max_abs_interior(), 1e-12)
    add("product-leibniz",
        product_leibniz_residual(e, e2, psi, chi), 1e-12)
    add("scalar-factor", scalar_factor_residual(e, f_scalar, psi), 1e-12)

    alphas = [random_phase(rng, grid, aamp)
              for _ in range(int(merged["transforms"]))]
    add("derivative-covariance",
        worst(derivative_covariance_residual(e, psi, a) for a in alphas),
        1e-10)
    add("connection-law",
        worst(connection_consistency_residual(e, a) for a in alphas), 1e-12)

    t0 = 0.4
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    p_at = field_path(rng, grid)
    resid = {}
    for step in (dt, 2.0 * dt):
        times = (t0 - step, t0, t0 + step)
        e_sl = [e_at(t) for t in times]
        p_sl = [p_at(t) for t in times]
        resid[step] = commutator_residual(e_sl, p_sl, omega, step)
        if step == dt:
            add("commutator", resid[step], 1e-6)
            add("mixed-commutator",
                mixed_commutator_residual(e_sl, p_sl, omega, step), 1e-6)
            alpha = random_phase(rng, grid, aamp)
            add("curvature-covariance",
                curvature_covariance_residual(e_sl, omega, alpha, step), 1e-10)
    order = np.log2(resid[2.0 * dt] / resid[dt]) if resid[dt] > 0 else 2.0
    rows.append({"check": "commutator-order", "residual": float(order),
                 "tolerance": 2.0, "ok": bool(1.5 < order < 2.5)})

    ratio = coupling_linearity_ratio(random_einbein(rng, grid, 1.0),
                                     psi, 1e-3)
    add("coupling-linearity", abs(ratio - 0.5), 1e-2)
    return rows


def report_to_csv(rows):
    lines = ["check,residual,tolerance,ok"]
    for r in rows:
        lines.append(f"{r['check']},{repr(r['residual'])},"
                     f"{repr(r['tolerance'])},{int(r['ok'])}")
    return "\n".join(lines) + "\n"
