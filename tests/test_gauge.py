"""Covariant shifts, Einbein transport, gauge laws, curvature."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcalc import gauge
from qcalc.context import QContext
from qcalc.gauge import (
    Einbein,
    InsufficientTimeSlices,
    RouteMismatch,
    SingularEinbein,
    _div,
    _routes,
    commutator_residual,
    connection_consistency_residual,
    connection_field,
    coupling_linearity_ratio,
    covariant_derivative,
    covariant_shift,
    covariant_shift_inv,
    curvature,
    curvature_covariance_residual,
    derivative_covariance_residual,
    einbein_derivative,
    einbein_path,
    field_path,
    mixed_commutator_residual,
    phase_field,
    product_leibniz_residual,
    random_einbein,
    random_field,
    random_phase,
    scalar_factor_residual,
    scenario_report,
    shift_inverse_residual,
    time_stack,
    transform_connection,
    transform_einbein,
    transform_field,
    unit_einbein,
)
from qcalc.lattice import GridMismatch, LatticeFn, LatticeGrid

D2 = QContext(2.0)
SEED = 20260816


def make_grid(lo=-8, hi=8):
    return LatticeGrid(D2, lo, hi)


# -- einbein basics ---------------------------------------------------------


def test_dual_einbein_pointwise():
    grid = make_grid()
    rng = np.random.default_rng(SEED)
    e = random_einbein(rng, grid, 0.3)
    et = Einbein(e).et
    assert et.pad_lo == 1 and et.pad_hi == 0
    for s in grid.sectors:
        prod = et.sector(s)[1:] * e.sector(s)[:-1]
        assert np.max(np.abs(prod - 1.0)) < 1e-15


def test_random_draws_keep_the_per_sector_order():
    # one uniform draw per sector in sector order, real parts first
    grid = make_grid(-4, 4)
    a, b = np.random.default_rng(SEED), np.random.default_rng(SEED)
    f = random_field(a, grid, 0.5)
    p = random_phase(a, grid, 2.0)
    for s in grid.sectors:
        want = 0.5 * (b.uniform(-1, 1, grid.size)
                      + 1j * b.uniform(-1, 1, grid.size))
        assert np.array_equal(f.sector(s), want)
    for s in grid.sectors:
        assert np.array_equal(p.sector(s), b.uniform(-2.0, 2.0, grid.size))
    assert a.random() == b.random()


def test_singular_einbein_rejected():
    grid = make_grid()
    vals = {s: np.ones(grid.size) for s in grid.sectors}
    vals[1][3] = 1e-14
    with pytest.raises(SingularEinbein):
        Einbein(LatticeFn(grid, vals))


def test_singular_einbein_names_the_first_failing_sector():
    grid = make_grid()
    vals = {1: np.ones(grid.size), -1: np.ones(grid.size)}
    vals[1][3], vals[-1][2] = 1e-13, 1e-15
    with pytest.raises(SingularEinbein, match=r"modulus 1e-13 below"):
        Einbein(LatticeFn(grid, vals))
    vals[1][3] = 1.0
    with pytest.raises(SingularEinbein, match=r"modulus 1e-15 below"):
        Einbein(LatticeFn(grid, vals))


@pytest.mark.parametrize("sector", [1, -1])
def test_nan_einbein_rejected(sector):
    grid = make_grid()
    vals = {s: np.ones(grid.size) for s in grid.sectors}
    vals[sector][3] = np.nan
    with pytest.raises(SingularEinbein):
        Einbein(LatticeFn(grid, vals))


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0, 1.1])
def test_unit_einbein_reduces_to_nabla(q):
    # D and nabla divide by the same lam x, so E = 1 leaves nabla's bits
    grid = LatticeGrid(QContext(q), -8, 8)
    rng = np.random.default_rng(SEED + 1)
    psi = random_field(rng, grid)
    d = covariant_derivative(Einbein(unit_einbein(grid)), psi)
    want = psi.nabla_fn()
    assert (d.pad_lo, d.pad_hi) == (want.pad_lo, want.pad_hi)
    assert np.array_equal(d.interior(), want.interior())


def test_derivative_routes_agree(monkeypatch):
    grid = make_grid()
    rng = np.random.default_rng(SEED + 2)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    a, b = _routes(e, psi)
    assert (a - b).max_abs_interior() < 1e-12
    assert np.array_equal(covariant_derivative(e, psi).data, a.data)
    monkeypatch.setattr(gauge, "ROUTE_TOL", 1e-18)
    with pytest.raises(RouteMismatch):
        covariant_derivative(e, psi)


# -- gauge transformation laws ------------------------------------------------


def test_derivative_covariance():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 3)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    for _ in range(5):
        alpha = random_phase(rng, grid)
        assert derivative_covariance_residual(e, psi, alpha) < 1e-12


def test_connection_law_matches_recomputation():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 4)
    e = Einbein(random_einbein(rng, grid, 0.3))
    for _ in range(5):
        alpha = random_phase(rng, grid)
        assert connection_consistency_residual(e, alpha) < 1e-12


def test_connection_field_formula():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 5)
    e = random_einbein(rng, grid, 0.3)
    phi = connection_field(Einbein(e))
    n = 2
    i = grid.index(n)
    want = (D2.inv_lam / D2.qpow(n)
            * (1.0 - 1.0 / (e.sector(1)[i] * e.sector(1)[i - 1])))
    assert abs(phi.value(1, n) - want) < 1e-14


def test_alpha_zero_is_identity():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 6)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    zero = LatticeFn(grid)
    assert (transform_field(psi, zero) - psi).max_abs_interior() == 0.0
    assert (transform_einbein(e, zero).e - e.e).max_abs_interior(1) == 0.0
    phi = connection_field(e)
    assert (transform_connection(phi, zero) - phi).max_abs_interior(1) == 0.0


def test_grid_mismatch():
    rng = np.random.default_rng(SEED + 7)
    psi = random_field(rng, make_grid())
    alpha = random_phase(rng, make_grid(-6, 6))
    with pytest.raises(GridMismatch):
        transform_field(psi, alpha)


def test_phase_field_unit_modulus():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 9)
    alpha = random_phase(rng, grid, 3.0)
    ph = phase_field(alpha)
    for s in grid.sectors:
        assert np.max(np.abs(np.abs(ph.sector(s)) - 1.0)) < 1e-15


# -- transport of einbein-like fields ---------------------------------------------


def test_einbein_transport_vanishes_exactly():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 10)
    e = random_einbein(rng, grid, 0.3)
    assert einbein_derivative(Einbein(e), e).max_abs_interior() == 0.0


def test_einbein_shift_rational_values():
    # dyadic values: the quotient form keeps every step on exact floats
    grid = make_grid(-6, 6)
    rng = np.random.default_rng(SEED + 11)
    choices = np.array([0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
    vals = {s: rng.choice(choices, grid.size).astype(complex)
            for s in grid.sectors}
    e = LatticeFn(grid, vals)
    assert einbein_derivative(Einbein(e), e).max_abs_interior() == 0.0


def test_general_einbein_like_field_transport():
    # H != E picks up a genuine covariant gradient: D H = E nabla(H/E)
    grid = make_grid()
    rng = np.random.default_rng(SEED + 12)
    e = random_einbein(rng, grid, 0.3)
    h = random_einbein(rng, grid, 0.3)
    got = einbein_derivative(Einbein(e), h)
    want = e * LatticeFn(grid, {s: h.sector(s) / e.sector(s)
                                for s in grid.sectors}).nabla_fn()
    assert (got - want).max_abs_interior() < 1e-12
    # the one lattice derivative, read through the quotient helper
    same = e * _div(h, e).nabla_fn()
    assert (got.pad_lo, got.pad_hi) == (same.pad_lo, same.pad_hi)
    assert np.array_equal(got.data, same.data)


# -- algebraic identities -----------------------------------------------------------


def test_shift_inverse_identity():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 13)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    assert shift_inverse_residual(e, psi) < 1e-12


def test_shift_inverse_residual_keeps_nan_of_second_route():
    # E = 1e-10 leaves E (L^-1 psi) finite on the first route, while the
    # second route's Et (L psi) overflows and turns into NaN
    grid = make_grid()
    e = Einbein(LatticeFn(grid, {s: np.full(grid.size, 1e-10)
                                 for s in grid.sectors}))
    psi = LatticeFn(grid, {s: np.full(grid.size, 1e300 * np.exp(0.5j))
                           for s in grid.sectors})
    with np.errstate(all="ignore"):
        assert np.isnan(shift_inverse_residual(e, psi))


def test_scalar_factor_rule():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 14)
    e = Einbein(random_einbein(rng, grid, 0.3))
    assert scalar_factor_residual(e, random_field(rng, grid),
                                  random_field(rng, grid)) < 1e-12


def test_product_leibniz():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 15)
    for _ in range(5):
        e1 = Einbein(random_einbein(rng, grid, 0.3))
        e2 = Einbein(random_einbein(rng, grid, 0.3))
        psi = random_field(rng, grid)
        chi = random_field(rng, grid)
        assert product_leibniz_residual(e1, e2, psi, chi) < 1e-12


def test_product_leibniz_unit_einbeins():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 16)
    one = Einbein(unit_einbein(grid))
    psi = random_field(rng, grid)
    chi = random_field(rng, grid)
    assert product_leibniz_residual(one, one, psi, chi) < 1e-13


def test_coupling_linearity():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 17)
    e_base = random_einbein(rng, grid, 1.0)
    psi = random_field(rng, grid)
    assert abs(coupling_linearity_ratio(e_base, psi, 1e-3) - 0.5) < 1e-2


# -- curvature ---------------------------------------------------------------------


def test_static_curvature_vanishes():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 18)
    e = random_einbein(rng, grid, 0.3)
    t, f, cal_f = curvature(Einbein(time_stack([e, e, e])), LatticeFn(grid),
                            1e-3)
    assert t.max_abs_interior() == 0.0
    assert f.max_abs_interior() == 0.0
    assert cal_f.max_abs_interior() == 0.0


def test_insufficient_time_slices():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 19)
    e = random_einbein(rng, grid, 0.3)
    with pytest.raises(InsufficientTimeSlices):
        time_stack([e, e])
    with pytest.raises(InsufficientTimeSlices):
        time_stack([LatticeFn(grid)])


def test_commutator_identity():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 20)
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    p_at = field_path(rng, grid)
    dt, t0 = 1e-3, 0.4
    times = (t0 - dt, t0, t0 + dt)
    e = Einbein(time_stack([e_at(t) for t in times]))
    psi = time_stack([p_at(t) for t in times])
    assert commutator_residual(e, psi, omega, dt) < 1e-6
    assert mixed_commutator_residual(e, psi, omega, dt) < 1e-6


def test_commutator_is_second_order_in_dt():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 21)
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    p_at = field_path(rng, grid)
    t0 = 0.4
    r = {}
    for dt in (1e-3, 2e-3):
        times = (t0 - dt, t0, t0 + dt)
        r[dt] = commutator_residual(Einbein(time_stack([e_at(t)
                                                        for t in times])),
                                    time_stack([p_at(t) for t in times]),
                                    omega, dt)
    assert 3.4 < r[2e-3] / r[1e-3] < 4.6


def test_curvature_covariance():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 22)
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    dt, t0 = 1e-3, 0.4
    e = Einbein(time_stack([e_at(t) for t in (t0 - dt, t0, t0 + dt)]))
    for _ in range(3):
        alpha = random_phase(rng, grid)
        assert curvature_covariance_residual(e, omega, alpha, dt) < 1e-10


def test_curvature_covariance_residual_keeps_nan_of_calf():
    # |E| = 1e200 overflows calF = E F (L E) to NaN while T stays finite
    grid = make_grid()
    rng = np.random.default_rng(SEED + 23)
    omega = random_field(rng, grid, 0.5)
    e = Einbein(time_stack([
        LatticeFn(grid, {s: np.full(grid.size, 1e200 * (1 + 1j) * k)
                         for s in grid.sectors})
        for k in (0.999, 1.0, 1.001)]))
    alpha = random_phase(rng, grid)
    with np.errstate(all="ignore"):
        assert np.isnan(curvature_covariance_residual(e, omega, alpha, 1e-3))


# -- covariant shift sanity on plain structure ---------------------------------------


def test_covariant_shifts_reduce_to_plain_shifts():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 23)
    psi = random_field(rng, grid)
    one = Einbein(unit_einbein(grid))
    assert (covariant_shift(one, psi)
            - psi.L_shift(1)).max_abs_interior() == 0.0
    assert (covariant_shift_inv(one, psi)
            - psi.L_shift(-1)).max_abs_interior() == 0.0


# -- scenario report ------------------------------------------------------------------


def test_scenario_report_all_green():
    rows = scenario_report()
    assert all(r["ok"] for r in rows)
    names = {r["check"] for r in rows}
    assert {"derivative-routes", "einbein-transport", "product-leibniz",
            "commutator", "commutator-order"} <= names


def test_scenario_report_config_override():
    rows = scenario_report({"window": [-6, 6], "transforms": 3, "seed": 5})
    assert all(r["ok"] for r in rows)


def test_scenario_report_leaves_the_batteries_unimported():
    # the report makes its verdicts with verdicts.row, so a gauge run never
    # compiles the battery registry
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = ("import sys\n"
              "from qcalc.gauge import scenario_report\n"
              "rows = scenario_report({'window': [-8, 8]})\n"
              "print(len(rows), 'qcalc.batteries' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["12", "False"]


def test_commutator_order_fails_on_nan(monkeypatch):
    # a NaN commutator residual has no convergence order to report
    monkeypatch.setattr("qcalc.gauge.commutator_residual",
                        lambda *args: float("nan"))
    rows = {r["check"]: r for r in scenario_report()}
    assert np.isnan(rows["commutator-order"]["residual"])
    assert not rows["commutator-order"]["ok"]


# -- batches of gauge transforms ----------------------------------------------------
#
# scenario_report runs its T phases alpha as one (T, sectors, size) batch;
# every result must equal the loop over the members bit for bit, and a
# failure must name the member the loop would have stopped at.

T = 6


def members(f):
    return [LatticeFn(f.grid, d, f.pad_lo, f.pad_hi) for d in f.data]


def assert_batch_is_the_loop(batched, looped):
    assert len(batched.data) == len(looped)
    for d, f in zip(batched.data, looped):
        assert (batched.pad_lo, batched.pad_hi) == (f.pad_lo, f.pad_hi)
        assert np.array_equal(d, f.data)


@pytest.fixture
def batch_scenario():
    grid = make_grid()
    rng = np.random.default_rng(SEED)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    alphas = random_phase(rng, grid, 1.0, (T,))
    return e, psi, alphas


def test_batched_draw_is_the_sequence_of_single_draws():
    grid = make_grid()
    a, b = np.random.default_rng(SEED), np.random.default_rng(SEED)
    shape = (len(grid.sectors), grid.size)
    assert np.array_equal(a.uniform(-1.5, 1.5, (T, *shape)),
                          [b.uniform(-1.5, 1.5, shape) for _ in range(T)])
    batch = random_phase(a, grid, 0.7, (T,))
    assert_batch_is_the_loop(batch, [random_phase(b, grid, 0.7)
                                     for _ in range(T)])
    assert a.random() == b.random()


def test_batched_transforms_match_the_member_loop(batch_scenario):
    e, psi, alphas = batch_scenario
    loop = members(alphas)
    e_batch = transform_einbein(e, alphas)
    e_loop = [Einbein(b) for b in members(e_batch.e)]
    psi_batch = transform_field(psi, alphas)
    cases = [
        (phase_field(alphas, -1), [phase_field(a, -1) for a in loop]),
        (e_batch.e, [transform_einbein(e, a).e for a in loop]),
        (e_batch.et, [b.et for b in e_loop]),
        (_div(psi, e_batch.e), [_div(psi, transform_einbein(e, a).e)
                                for a in loop]),
        (_div(e_batch.e, e_batch.e), [_div(b.e, b.e) for b in e_loop]),
        (connection_field(e_batch), [connection_field(b) for b in e_loop]),
        (covariant_derivative(e_batch, psi_batch),
         [covariant_derivative(b, p) for b, p in zip(e_loop,
                                                     members(psi_batch))]),
    ]
    for batched, looped in cases:
        assert_batch_is_the_loop(batched, looped)


def test_batched_residuals_are_the_worst_member(batch_scenario):
    e, psi, alphas = batch_scenario
    loop = members(alphas)
    assert derivative_covariance_residual(e, psi, alphas) == max(
        derivative_covariance_residual(e, psi, a) for a in loop)
    assert connection_consistency_residual(e, alphas) == max(
        connection_consistency_residual(e, a) for a in loop)


def test_nan_in_one_member_makes_the_batched_residual_nan(batch_scenario):
    e, psi, alphas = batch_scenario
    psis = LatticeFn(psi.grid, np.broadcast_to(psi.data, alphas.data.shape))
    assert np.isfinite(derivative_covariance_residual(e, psis, alphas))
    psis.data[2, -1, 5] = np.nan
    assert np.isnan(derivative_covariance_residual(e, psis, alphas))


def test_singular_member_is_named_as_the_loop_names_it(batch_scenario):
    e, _, alphas = batch_scenario
    e_batch = transform_einbein(e, alphas).e
    e_batch.data[4, 0, 3] = 1e-15
    e_batch.data[2, -1, 6] = 2e-14
    e_batch.data[2, 0, 9] = np.nan
    with pytest.raises(SingularEinbein) as batched:
        Einbein(e_batch)
    with pytest.raises(SingularEinbein) as looped:
        for b in members(e_batch):
            Einbein(b)
    assert str(batched.value) == str(looped.value)
    assert "nan" in str(batched.value)


def test_route_mismatch_names_the_first_failing_member():
    # routes part by more than 1e-12 at +-20; members 0 and 1 are scaled
    # down far enough to agree, and a NaN member must hide nothing
    grid = make_grid(-20, 20)
    rng = np.random.default_rng(SEED)
    e = Einbein(random_einbein(rng, grid, 0.3))
    psi = random_field(rng, grid)
    scales = np.array([1e-20, 1e-20, np.nan, 0.5, 1.0])
    psis = LatticeFn(grid, scales[:, None, None] * psi.data)
    with pytest.raises(RouteMismatch) as batched:
        covariant_derivative(e, psis)
    with pytest.raises(RouteMismatch) as looped:
        for p in members(psis):
            covariant_derivative(e, p)
    assert str(batched.value) == str(looped.value)


def test_scenario_report_pointwise_budget(monkeypatch):
    # the T transforms run as one batch: 575 pointwise products when they
    # ran one at a time
    calls = []
    pointwise = LatticeFn._pointwise

    def counting(self, op, other):
        calls.append(op)
        return pointwise(self, op, other)

    monkeypatch.setattr(LatticeFn, "_pointwise", counting)
    scenario_report()
    assert 0 < len(calls) <= 320


def test_scenario_report_checks_each_einbein_once(monkeypatch):
    # one check per distinct einbein, ten in all: E, E2, their product,
    # E transformed by the phase batch for each of two rows, the dt stack,
    # its transform and the 2 dt stack, and the two coupling einbeins
    calls = []
    check = gauge._check_invertible

    def counting(e):
        calls.append(e)
        return check(e)

    monkeypatch.setattr(gauge, "_check_invertible", counting)
    scenario_report()
    assert len(calls) == 10


# -- time slices as one stack --------------------------------------------------------
#
# curvature and the commutator residuals take one Einbein of the slices
# m-1, m, m+1 stacked; each must equal the formulas evaluated slice by
# slice, each slice its own Einbein, as below, bit for bit.


def loop_curvature(e_slices, omega, dt):
    m = len(e_slices) // 2
    e0 = e_slices[m]
    e_inv = _div(unit_einbein(e0.grid), e0)
    t = ((e_slices[m + 1] - e_slices[m - 1]).scale(1.0 / (2.0 * dt)) * e_inv
         - e0 * omega.L_shift(-1) * e_inv + omega)
    phis = [connection_field(Einbein(e_slices[k]))
            for k in (m - 1, m, m + 1)]
    f = ((phis[2] - phis[0]).scale(1.0 / (2.0 * dt)) - omega.nabla_fn()
         + omega.L_shift(-1) * phis[1] - phis[1] * omega.L_shift(1))
    return t, f, e0 * f * e0.L_shift(1)


def loop_commutator(e_slices, psi_slices, omega, dt):
    m = len(e_slices) // 2
    d_psi = [covariant_derivative(Einbein(e_slices[k]), psi_slices[k])
             for k in (m - 1, m, m + 1)]
    dt_of_d = (d_psi[2] - d_psi[0]).scale(1.0 / (2.0 * dt)) + omega * d_psi[1]
    dt_psi = ((psi_slices[m + 1] - psi_slices[m - 1]).scale(1.0 / (2.0 * dt))
              + omega * psi_slices[m])
    d_of_dt = covariant_derivative(Einbein(e_slices[m]), dt_psi)
    t, f, _ = loop_curvature(e_slices, omega, dt)
    rhs = t * d_psi[1] + e_slices[m] * f * psi_slices[m].L_shift(1)
    return (dt_of_d - d_of_dt - rhs).max_abs_interior()


def loop_mixed_commutator(e_slices, psi_slices, omega, dt):
    m = len(e_slices) // 2
    shifted = [covariant_shift(Einbein(e_slices[k]), psi_slices[k])
               for k in (m - 1, m, m + 1)]
    dt_psi = ((psi_slices[m + 1] - psi_slices[m - 1]).scale(1.0 / (2.0 * dt))
              + omega * psi_slices[m])
    lhs = (covariant_shift(Einbein(e_slices[m]), dt_psi)
           - (shifted[2] - shifted[0]).scale(1.0 / (2.0 * dt))
           - omega * shifted[1])
    t, _, _ = loop_curvature(e_slices, omega, dt)
    rhs = _div(t * psi_slices[m], e_slices[m]).L_shift(1)
    return (lhs - rhs).max_abs_interior()


def assert_same_fn(a, b):
    assert (a.pad_lo, a.pad_hi) == (b.pad_lo, b.pad_hi)
    assert a.data.shape == b.data.shape
    assert np.array_equal(a.data, b.data)


@pytest.fixture
def time_slices():
    grid = make_grid()
    rng = np.random.default_rng(SEED + 24)
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    p_at = field_path(rng, grid)
    alphas = random_phase(rng, grid, 1.0, (T,))
    dt, t0 = 1e-3, 0.4
    # five slices: the outer two must not enter
    times = [t0 + k * dt for k in (-2, -1, 0, 1, 2)]
    return [e_at(t) for t in times], [p_at(t) for t in times], omega, \
        alphas, dt


def test_stacked_slices_equal_the_slice_formulas(time_slices):
    e_sl, p_sl, omega, alphas, dt = time_slices
    e_batch = [transform_einbein(Einbein(e), alphas).e for e in e_sl]
    p_batch = [transform_field(p, alphas) for p in p_sl]
    # plain slices, an einbein with its own batch axis, and both batched
    for es, ps in ((e_sl, p_sl), (e_batch, p_sl), (e_batch, p_batch)):
        e = Einbein(time_stack(es))
        for a, b in zip(curvature(e, omega, dt),
                        loop_curvature(es, omega, dt)):
            assert_same_fn(a, b)
        for fn, loop in ((commutator_residual, loop_commutator),
                         (mixed_commutator_residual, loop_mixed_commutator)):
            got = fn(e, time_stack(ps), omega, dt)
            assert got > 0.0
            assert got == loop(es, ps, omega, dt)
    # a batched residual is the worst of its members' residuals
    e_b, e_st = Einbein(time_stack(e_batch)), Einbein(time_stack(e_sl))
    loop_e = zip(*(members(e) for e in e_batch))
    assert commutator_residual(e_b, time_stack(p_sl), omega, dt) == max(
        loop_commutator(list(es), p_sl, omega, dt) for es in loop_e)
    assert curvature_covariance_residual(e_st, omega, alphas, dt) == max(
        curvature_covariance_residual(e_st, omega, a, dt)
        for a in members(alphas))
    for k, (t, f, cal_f) in enumerate(zip(
            *(members(x) for x in curvature(e_b, omega, dt)))):
        want = loop_curvature([members(e)[k] for e in e_batch], omega, dt)
        for a, b in zip((t, f, cal_f), want):
            assert_same_fn(a, b)


def test_stacked_slices_name_slice_m_minus_1_first(time_slices, monkeypatch):
    e_sl, p_sl, omega, _, dt = time_slices
    e_sl = [e.copy() for e in e_sl]
    # singular at slices m-1, m and m+1, each at its own site and value
    for e, (site, value) in zip(e_sl[1:4], ((3, 1e-13), (2, 1e-14),
                                            (1, 1e-15))):
        e.sector(-1)[site] = value
    calls = (lambda: Einbein(time_stack(e_sl)),
             lambda: loop_commutator(e_sl, p_sl, omega, dt))
    for call in calls:
        with pytest.raises(SingularEinbein, match=r"modulus 1e-13 below"):
            call()
    # every slice's routes part by more than a tolerance this tight
    e_sl, p_sl = time_slices[:2]
    monkeypatch.setattr(gauge, "ROUTE_TOL", 1e-30)
    with pytest.raises(RouteMismatch) as batched:
        commutator_residual(Einbein(time_stack(e_sl)), time_stack(p_sl),
                            omega, dt)
    with pytest.raises(RouteMismatch) as looped:
        loop_commutator(e_sl, p_sl, omega, dt)
    with pytest.raises(RouteMismatch) as first:
        covariant_derivative(Einbein(e_sl[1]), p_sl[1])
    assert str(batched.value) == str(looped.value) == str(first.value)


def test_time_slices_on_other_grids_are_refused(time_slices):
    e_sl, p_sl, omega, _, dt = time_slices
    other = random_field(np.random.default_rng(SEED), make_grid(-7, 9))
    with pytest.raises(GridMismatch):
        time_stack(p_sl[:2] + [other] + p_sl[3:])
    # an einbein stack and a field stack on two grids
    with pytest.raises(GridMismatch):
        commutator_residual(Einbein(time_stack(e_sl)),
                            time_stack([other] * 3), omega, dt)
