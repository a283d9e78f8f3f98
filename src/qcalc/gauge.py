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

Every derivative here divides a difference of two shifts by lam x,
the division LatticeFn.nabla_fn makes, so D with E = 1 is nabla bit for
bit.  Fields that transform like E itself (two-sided) are transported
as E nabla(H/E); the quotient E/E is exactly one, so the
parallel-transport statement D E = 0 holds to the last bit, not merely
to rounding.

An `Einbein` holds E and its dual Et together.  Building one checks
that E is invertible and forms Et, once; every covariant shift,
derivative, connection, curvature and residual here takes an Einbein
and reads both, and the transformed and product einbeins come back as
Einbeins.

Time-dependent identities difference their slices centrally.  Their
residuals scale as dt^2 and are reported as measured, never absorbed
into a tolerance.  `time_stack` puts the slices m-1, m and m+1 on a new
axis just before the sectors, after any batch axes, broadcast to one
batch shape and carrying the widest pads among them.  A stacked field
then broadcasts against a stacked einbein whatever batch either
carries.  One Einbein of a step's stacked einbeins serves every
identity at that step: the derivatives, shifts and connections of all
three slices, slice m's included, come from it.

Every operation here accepts functions with leading batch axes (see
qcalc.lattice) and broadcasts a batch against a single function, so a
block of gauge phases alpha runs through one call.  A residual is then
the worst over the batch; an exception names the first failing member.
"""

from __future__ import annotations

import numpy as np

from .context import QContext
from .lattice import GridMismatch, LatticeFn, LatticeGrid, row, worst

SINGULAR_FLOOR = 1e-12
ROUTE_TOL = 1e-12


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
    if f.grid is not g.grid and f.grid != g.grid:
        raise GridMismatch("operands live on different grids")
    fv, gv = f.data, g.data
    nonzero, same = gv != 0, fv == gv
    res = np.divide(fv, gv, out=np.zeros(same.shape, dtype=complex),
                    where=nonzero)
    res[nonzero & same] = 1.0
    return f._wrap(res, max(f.pad_lo, g.pad_lo), max(f.pad_hi, g.pad_hi))


def _over_lam_x(f):
    """f / (lam x): the difference of two shifts made a derivative."""
    return f._wrap(f.data / f.grid.lam_x)


def _check_invertible(e):
    # per member and sector; np.min propagates NaN, and NaN is no
    # invertible modulus
    smallest = np.min(np.abs(e.data[..., e.valid_slice()]), axis=-1)
    bad = np.isnan(smallest) | (smallest < SINGULAR_FLOOR)
    if bad.any():
        raise SingularEinbein(
            f"einbein modulus {float(smallest[bad][0])} below floor")


def unit_einbein(grid):
    return LatticeFn(grid, np.ones((len(grid.sectors), grid.size)))


class Einbein:
    """An invertible einbein E with its dual Et = L(1/E), so
    Et(sigma q^n) E(sigma q^(n-1)) = 1; SingularEinbein otherwise."""

    __slots__ = ("e", "et")

    def __init__(self, e):
        _check_invertible(e)
        self.e = e
        self.et = _div(unit_einbein(e.grid), e).L_shift(1)

    def at(self, k):
        """Slice m-1+k of an Einbein of a time stack, checked with it."""
        part = Einbein.__new__(Einbein)
        part.e, part.et = _slice(self.e, k), _slice(self.et, k)
        return part


def phase_field(alpha, sign=1):
    """e^(i sign alpha); only the real part of alpha enters, keeping
    the modulus exactly one at every site."""
    return alpha._wrap(np.exp(1j * sign * alpha.data.real))


# -- covariant operators ----------------------------------------------------------


def covariant_shift(e, psi):
    return e.et * psi.L_shift(1)


def covariant_shift_inv(e, psi):
    return e.e * psi.L_shift(-1)


def _routes(e, psi):
    """D psi as the shift form x^-1 (shift_inv - shift) / lam and as the
    expanded form E nabla + x^-1 (E - Et) L / lam."""
    shifted = psi.L_shift(1)
    shift = _over_lam_x(covariant_shift_inv(e, psi) - e.et * shifted)
    expanded = e.e * psi.nabla_fn() + _over_lam_x((e.e - e.et) * shifted)
    return shift, expanded


def covariant_derivative(e, psi):
    """x^-1 (shift_inv - shift) / lam, checked against the expanded form
    (see _routes) to ROUTE_TOL."""
    shift, expanded = _routes(e, psi)
    # per batch member, so a NaN member cannot hide another's mismatch
    gaps = np.max(np.abs((shift - expanded).interior()), axis=(-2, -1))
    bad = gaps > ROUTE_TOL
    if bad.any():
        raise RouteMismatch(
            f"derivative routes differ by {float(gaps[bad][0])}")
    return shift


def connection_field(e):
    """Coefficient of L in the connection: x^-1 (1 - Et/E) / lam."""
    return _over_lam_x(unit_einbein(e.e.grid) - _div(e.et, e.e))


def einbein_derivative(e, h):
    """D on einbein-like fields, E nabla(h/E); D E = 0 exactly."""
    return e.e * _div(h, e.e).nabla_fn()


# -- gauge transformations ----------------------------------------------------------


def transform_field(psi, alpha):
    return phase_field(alpha) * psi


def transform_einbein(e, alpha):
    return Einbein(phase_field(alpha) * e.e
                   * phase_field(alpha, -1).L_shift(-1))


def transform_connection(phi, alpha):
    pos, neg = phase_field(alpha), phase_field(alpha, -1)
    return (pos.L_shift(-1) * phi * neg.L_shift(1)
            - pos.nabla_fn() * neg.L_shift(1))


# -- curvature ------------------------------------------------------------------


def time_stack(slices):
    """Slices m-1, m and m+1 around the middle m of slices, on a new axis
    before the sectors, each broadcast to the batch shape of the three."""
    if len(slices) < 3:
        raise InsufficientTimeSlices("need at least three time slices")
    m = len(slices) // 2
    picked = slices[m - 1:m + 2]
    grid = picked[0].grid
    if any(f.grid is not grid and f.grid != grid for f in picked):
        raise GridMismatch("time slices live on different grids")
    data = np.stack(np.broadcast_arrays(*(f.data for f in picked)), axis=-3)
    return picked[0]._wrap(data, max(f.pad_lo for f in picked),
                           max(f.pad_hi for f in picked))


def _slice(stack, k):
    """Slice m-1+k of a time stack."""
    return stack._wrap(stack.data[..., k, :, :])


def _ddt(stack, dt):
    return (_slice(stack, 2) - _slice(stack, 0)).scale(1.0 / (2.0 * dt))


def curvature(e, omega, dt):
    """(T, F, calF) at the middle slice of an Einbein e of a time stack.

    T closes the commutator on D psi, F on L psi; calF = E F (L E) is
    the version of F that transforms by plain conjugation.
    """
    e0 = _slice(e.e, 1)
    e_inv = _div(unit_einbein(e0.grid), e0)
    t = _ddt(e.e, dt) * e_inv - e0 * omega.L_shift(-1) * e_inv + omega
    phis = connection_field(e)
    phi = _slice(phis, 1)
    f = (_ddt(phis, dt) - omega.nabla_fn()
         + omega.L_shift(-1) * phi - phi * omega.L_shift(1))
    cal_f = e0 * f * e0.L_shift(1)
    return t, f, cal_f


def commutator_residual(e, psi, omega, dt):
    """Defect of (Dt D - D Dt) psi = T D psi + E F (L psi), centered;
    e is an Einbein of a time stack and psi a time stack."""
    e_m, psi_m = e.at(1), _slice(psi, 1)
    d_psi = covariant_derivative(e, psi)
    dt_of_d = _ddt(d_psi, dt) + omega * _slice(d_psi, 1)
    dt_psi = _ddt(psi, dt) + omega * psi_m
    d_of_dt = covariant_derivative(e_m, dt_psi)
    t, f, _ = curvature(e, omega, dt)
    rhs = t * _slice(d_psi, 1) + e_m.e * f * psi_m.L_shift(1)
    return (dt_of_d - d_of_dt - rhs).max_abs_interior()


def mixed_commutator_residual(e, psi, omega, dt):
    """Defect of (shift Dt - Dt shift) psi = L(T psi / E), centered;
    e is an Einbein of a time stack and psi a time stack."""
    e_m, psi_m = e.at(1), _slice(psi, 1)
    shifted = covariant_shift(e, psi)
    dt_psi = _ddt(psi, dt) + omega * psi_m
    lhs = (covariant_shift(e_m, dt_psi)
           - _ddt(shifted, dt) - omega * _slice(shifted, 1))
    t, _, _ = curvature(e, omega, dt)
    rhs = _div(t * psi_m, e_m.e).L_shift(1)
    return (lhs - rhs).max_abs_interior()


# -- identity residuals (pure, reusable by tests and reports) ------------------------


def shift_inverse_residual(e, psi):
    """Worst defect of shift(shift_inv psi) = shift_inv(shift psi) = psi."""
    there = covariant_shift(e, covariant_shift_inv(e, psi)) - psi
    back = covariant_shift_inv(e, covariant_shift(e, psi)) - psi
    return worst((there.max_abs_interior(), back.max_abs_interior()))


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
    lhs = covariant_derivative(Einbein(e1.e * e2.e), psi * chi)
    rhs = (covariant_derivative(e1, psi) * covariant_shift(e2, chi)
           + covariant_shift_inv(e1, psi) * covariant_derivative(e2, chi))
    return (lhs - rhs).max_abs_interior()


def scalar_factor_residual(e, f, psi):
    """Scalars pass through the covariant shift as plain L f."""
    lhs = covariant_shift(e, f * psi)
    rhs = f.L_shift(1) * covariant_shift(e, psi)
    return (lhs - rhs).max_abs_interior()


def curvature_covariance_residual(e, omega, alpha, dt):
    """T and calF conjugate by the phase; abelian, so they are invariant.

    e is an Einbein of a time stack.  alpha is static here, the same at
    all three slices: a time-dependent alpha would feed its own dt^2
    differencing error into omega'.
    """
    t, _, cal_f = curvature(e, omega, dt)
    e_prime = transform_einbein(e, time_stack([alpha] * 3))
    tp, _, cal_fp = curvature(e_prime, omega, dt)
    return worst(((tp - t).max_abs_interior(),
                  (cal_fp - cal_f).max_abs_interior()))


def coupling_linearity_ratio(e_base, psi, g):
    """max|D psi - nabla psi| at couplings g/2 and g; the ratio tends
    to 1/2 as g -> 0 because the deviation is first order in g."""
    one = unit_einbein(e_base.grid)
    h = e_base - one
    r = {}
    for scale_g in (g, 0.5 * g):
        e = Einbein(one + h.scale(scale_g))
        dev = covariant_derivative(e, psi) - psi.nabla_fn()
        r[scale_g] = dev.max_abs_interior()
    return r[0.5 * g] / r[g]


# -- scenario generation and reporting ------------------------------------------------


def random_field(rng, grid, scale=1.0):
    """Uniform parts in [-scale, scale), drawn per sector, real part first."""
    u = rng.uniform(-1, 1, (len(grid.sectors), 2, grid.size))
    return LatticeFn(grid, scale * (u[:, 0] + 1j * u[:, 1]))


def random_einbein(rng, grid, amplitude=0.3):
    """1 + amplitude-bounded noise; stays clear of the singular floor
    for amplitude < 1/sqrt(2)."""
    return unit_einbein(grid) + random_field(rng, grid, amplitude)


def random_phase(rng, grid, amplitude=1.0, batch=()):
    """Uniform in [-amplitude, amplitude); a batch of shape `batch` draws
    its members in order, as that many single draws would."""
    return LatticeFn(grid, rng.uniform(-amplitude, amplitude,
                                       (*batch, len(grid.sectors), grid.size)))


def einbein_path(rng, grid):
    """Smooth-in-time invertible einbein; returns t -> LatticeFn.

    One draw fixes the path, so the same path can be sampled at
    several step sizes when measuring convergence order.
    """
    w1 = random_field(rng, grid, 1.0)
    w2 = random_field(rng, grid, 1.0)
    th1 = random_phase(rng, grid, np.pi)
    th2 = random_phase(rng, grid, np.pi)

    def at(t):
        return LatticeFn(grid, 1.0
                         + 0.2 * np.sin(0.3 * t + th1.data.real)
                         * w1.data.real
                         + 1j * 0.2 * np.cos(0.3 * t + th2.data.real)
                         * w2.data.real)

    return at


def field_path(rng, grid):
    u = random_field(rng, grid, 1.0)
    v = random_field(rng, grid, 1.0)
    th = random_phase(rng, grid, np.pi)

    def at(t):
        ph = 0.5 * t + th.data.real
        return LatticeFn(grid, u.data * np.cos(ph) + v.data * np.sin(ph))

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
    merged = {**DEFAULT_SCENARIO, **(cfg or {})}
    lo, hi = merged["window"]
    grid = LatticeGrid(QContext(merged["q"]), lo, hi)
    rng = np.random.default_rng(merged["seed"])
    dt = merged["dt"]
    amp = merged["einbein_amplitude"]
    aamp = merged["alpha_amplitude"]

    e = Einbein(random_einbein(rng, grid, amp))
    e2 = Einbein(random_einbein(rng, grid, amp))
    psi = random_field(rng, grid)
    chi = random_field(rng, grid)
    f_scalar = random_field(rng, grid)

    rows = []

    def add(check, residual, tolerance):
        rows.append(row(check, residual, tolerance))

    shift_form, expanded = _routes(e, psi)
    add("derivative-routes", (shift_form - expanded).max_abs_interior(), 1e-12)
    add("shift-inverse", shift_inverse_residual(e, psi), 1e-12)
    add("einbein-transport",
        einbein_derivative(e, e.e).max_abs_interior(), 1e-12)
    add("product-leibniz",
        product_leibniz_residual(e, e2, psi, chi), 1e-12)
    add("scalar-factor", scalar_factor_residual(e, f_scalar, psi), 1e-12)

    alphas = random_phase(rng, grid, aamp, (merged["transforms"],))
    add("derivative-covariance",
        derivative_covariance_residual(e, psi, alphas), 1e-10)
    add("connection-law", connection_consistency_residual(e, alphas), 1e-12)

    t0 = 0.4
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    p_at = field_path(rng, grid)
    resid = {}
    for step in (dt, 2.0 * dt):
        times = (t0 - step, t0, t0 + step)
        e_st = Einbein(time_stack([e_at(t) for t in times]))
        p_st = time_stack([p_at(t) for t in times])
        resid[step] = commutator_residual(e_st, p_st, omega, step)
        if step == dt:
            add("commutator", resid[step], 1e-6)
            add("mixed-commutator",
                mixed_commutator_residual(e_st, p_st, omega, step), 1e-6)
            alpha = random_phase(rng, grid, aamp)
            add("curvature-covariance",
                curvature_covariance_residual(e_st, omega, alpha, step), 1e-10)
    order = np.log2(resid[2.0 * dt] / resid[dt]) if resid[dt] > 0 else 2.0
    if np.isnan(worst(resid.values())):
        order = np.nan
    rows.append({"check": "commutator-order", "residual": float(order),
                 "tolerance": 2.0, "ok": bool(1.5 < order < 2.5)})

    ratio = coupling_linearity_ratio(random_einbein(rng, grid, 1.0),
                                     psi, 1e-3)
    add("coupling-linearity", abs(ratio - 0.5), 1e-2)
    return rows
