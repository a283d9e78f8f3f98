"""Ladder pair, ground state, q-Hermite tower, Gaussian transform pair."""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qcalc import oscillator
from qcalc.batteries import doubles
from qcalc.context import QContext
from qcalc.lattice import LatticeGrid, norm as fn_norm
from qcalc.oscillator import (
    ContaminationWarning,
    NoDecay,
    build_ladder,
    excited_states,
    gaussian_fourier_pair,
    ground_state,
    hermite_match_residuals,
    ladder_energies,
    level_table_csv,
    q_hermite_polynomials,
    q_hermite_value,
    raising_on_ground_residual,
    series_match_residual,
    spectrum_table,
)
from qcalc.scalars import QQi, Scalar
from qcalc.schrodinger import GridTooSmall, build_representation
from qcalc.special import SpecialFunctions
from qcalc.verdicts import worst

D2 = QContext(2.0)
SEED = 20260816


@pytest.fixture(scope="module")
def rep():
    return build_representation(LatticeGrid(D2, -12, 12))


@pytest.fixture(scope="module")
def pair(rep):
    return build_ladder(rep)


@pytest.fixture(scope="module")
def psi0(pair):
    return ground_state(pair)


def test_default_parameters(pair):
    q = D2.q
    want_amp = q / math.sqrt(1.0 - q ** -2)
    assert abs(abs(pair.alpha) - want_amp) < 1e-14
    assert abs(pair.alpha - q ** 1.5 * pair.beta) < 1e-14
    # beta sits on the imaginary axis; the xi variable is then real
    assert abs(pair.beta.real) == 0.0
    assert pair.beta.imag > 0
    assert abs(pair.kappa - 1.0) < 1e-12
    xi = pair.xi_values()
    assert float(np.max(np.abs(np.imag(xi)))) == 0.0


def test_normalized_commutator_is_identity(pair):
    assert pair.commutator_residual() < 1e-10


def test_commutator_constant_general_m(rep):
    p2 = build_ladder(rep, m_index=2)
    q4 = D2.qpow(-4)
    assert abs(p2.kappa - q4 * (1 - q4) * abs(p2.alpha) ** 2) < 1e-14
    assert p2.commutator_residual() < 1e-10


def test_hamiltonian_expansion(pair):
    assert pair.hamiltonian_residual() < 1e-12


def test_xi_exchange_relation(pair):
    assert pair.raising_xi_residual() < 1e-12


@pytest.mark.parametrize("operator, residual", [
    ("a", "commutator_residual"),
    ("a", "hamiltonian_residual"),
    ("a_dag", "raising_xi_residual"),
])
def test_ladder_residuals_propagate_nan(rep, operator, residual):
    # a NaN in the first sector must not lose to the second sector's value
    fresh = build_ladder(rep)
    getattr(fresh, operator).diags[0][0, 6] = np.nan
    assert np.isnan(getattr(fresh, residual)())


def test_series_match_propagates_nan(pair, psi0):
    psi = psi0.copy()
    psi.sector(1)[1] = np.nan
    assert np.isnan(series_match_residual(pair, psi))


def test_ground_state_annihilated(pair, psi0):
    assert pair.lowering_defect(psi0) < 1e-10


def test_ground_state_normalized(psi0):
    assert abs(fn_norm(psi0, tail_tol=math.inf) - 1.0) < 1e-12


def test_ground_state_matches_series(pair, psi0):
    assert series_match_residual(pair, psi0) < 1e-12


def test_raising_on_ground_closed_form(pair, psi0):
    assert raising_on_ground_residual(pair, psi0) < 1e-10
    # with the default moduli the closed form is i x psi0 / (q beta)
    lhs = pair.apply_raising(psi0)
    rhs = psi0.x_multiply().scale(1j / (D2.q * pair.beta))
    diff = lhs - rhs
    assert diff.max_abs_interior() / rhs.max_abs_interior() < 1e-10


def test_hermite_explicit_low_orders():
    polys = q_hermite_polynomials(3)
    assert polys[0] == [Scalar.from_rational(1)]
    assert polys[1][0].is_zero()
    assert polys[1][1] == Scalar({-1: QQi(2)})
    assert polys[2][0] == Scalar({-4: QQi(-2)})
    assert polys[2][1].is_zero()
    assert polys[2][2] == Scalar({-6: QQi(4)})
    # H3 by hand: 8 q^(-15/2) xi^3 - 4 (q^(-13/2) + q^(-9/2) + q^(-5/2)) xi
    assert polys[3][3] == Scalar({-15: QQi(8)})
    assert polys[3][1] == (Scalar({-13: QQi(-4)}) + Scalar({-9: QQi(-4)})
                           + Scalar({-5: QQi(-4)}))
    assert polys[3][0].is_zero() and polys[3][2].is_zero()


def test_hermite_recursion_exact_to_ten():
    polys = q_hermite_polynomials(10)
    for n in range(1, 10):
        lead = Scalar({-1 - 4 * n: QQi(2)})
        drop = Scalar({-2 * n - 2: QQi(2)}) * Scalar.qnum(n)
        nxt = [Scalar() for _ in range(n + 2)]
        for k, c in enumerate(polys[n]):
            nxt[k + 1] = nxt[k + 1] + lead * c
        for k, c in enumerate(polys[n - 1]):
            nxt[k] = nxt[k] - drop * c
        assert all((a - b).is_zero() for a, b in zip(nxt, polys[n + 1]))
    # closed leading coefficient 2^n s^(-n(2n-1)), parity alternates
    for n in range(11):
        assert polys[n][n] == Scalar({-n * (2 * n - 1): QQi(2 ** n)})
        assert all(polys[n][k].is_zero() for k in range(n) if (n - k) % 2)


def test_hermite_value_matches_monomials():
    polys = q_hermite_polynomials(2)
    xi = np.array([0.25, -1.5, 3.0])
    got = q_hermite_value(polys[2], D2.q, xi)
    want = 4.0 * D2.qpow(-3) * xi ** 2 - 2.0 * D2.qpow(-2)
    assert float(np.max(np.abs(got - want))) < 1e-14


def test_tower_matches_hermite(pair):
    residuals = hermite_match_residuals(pair, 6)
    assert len(residuals) == 7
    assert residuals[0] == 0.0
    assert max(residuals) < 1e-6


def test_spectrum_ladder(pair):
    rows = spectrum_table(pair, 3)
    q2 = D2.qpow(-2)
    for n, energy, residual in rows:
        assert abs(energy - (1 - q2 ** n) / (1 - q2)) < 1e-12
        assert residual < 1e-6
    for (_, e0, _), (_, e1, _) in zip(rows, rows[1:]):
        assert abs(e1 - (q2 * e0 + 1.0)) < 1e-12


def test_ladder_energies_general_m(rep):
    p2 = build_ladder(rep, m_index=2)
    es = ladder_energies(p2, 3)
    q4 = D2.qpow(-4)
    assert es[0] == 0.0
    for e0, e1 in zip(es, es[1:]):
        assert abs(e1 - (q4 * e0 + p2.kappa)) < 1e-14


def test_positivity(pair):
    # Re<c, a+ a c> >= 0 for random unit states supported 4 sites inside
    rng = np.random.default_rng(SEED)
    size = pair.rep.grid.size
    z = rng.standard_normal((20, len(pair.rep.grid.sectors), 2, size - 8))
    c = np.zeros(z.shape[:2] + (size,), dtype=complex)
    c[..., 4:-4] = z[:, :, 0] + 1j * z[:, :, 1]
    c /= np.linalg.norm(c, axis=-1, keepdims=True)
    vals = np.sum(np.conj(c) * (pair.a_dag @ (pair.a @ c)), axis=-1).real
    assert float(np.min(vals)) >= -1e-10


def test_apply_maps_track_padding(pair, psi0):
    up = pair.apply_raising(psi0)
    assert (up.pad_lo, up.pad_hi) == (2, 1)
    down = pair.apply_lowering(psi0)
    assert (down.pad_lo, down.pad_hi) == (1, 2)


def test_contamination_warning(pair):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        excited_states(pair, 5)
    assert not rec
    # the tower is kept, and every call that reaches the state warns
    for _ in range(2):
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            excited_states(pair, 7)
        assert [str(w.message) for w in rec
                if issubclass(w.category, ContaminationWarning)] \
            == ["state 7 has 4 boundary-clean sites"]


def test_no_decay_raises(rep, pair):
    flat = build_ladder(rep, alpha=1e-6 * pair.beta, beta=pair.beta)
    # a failure is not kept: every call runs the recursion and raises
    for _ in range(2):
        with pytest.raises(NoDecay):
            ground_state(flat)
    with pytest.raises(NoDecay):
        excited_states(flat, 2)


@pytest.mark.parametrize("order", [(1, -1), (-1, 1)])
def test_no_decay_names_the_first_failing_sector(pair, order):
    rep = build_representation(LatticeGrid(D2, -12, 12, order))
    flat = build_ladder(rep, alpha=1e-6 * pair.beta, beta=pair.beta)
    with pytest.raises(NoDecay, match=f"in sector {order[0]}$"):
        ground_state(flat)


def test_build_validation(rep):
    small = build_representation(LatticeGrid(D2, -4, 4))
    with pytest.raises(GridTooSmall):
        build_ladder(small, m_index=2)
    with pytest.raises(ValueError):
        build_ladder(rep, m_index=0)
    with pytest.raises(ValueError):
        build_ladder(rep, alpha=0.0)


def test_m1_only_guards(rep):
    p2 = build_ladder(rep, m_index=2)
    with pytest.raises(ValueError):
        p2.hamiltonian_residual()
    with pytest.raises(ValueError):
        p2.raising_xi_residual()
    with pytest.raises(ValueError):
        ground_state(p2)


def test_gaussian_pair_report():
    report = gaussian_fourier_pair(D2)
    assert report["max_rel"] < 1e-12
    assert report["even_max_rel"] < 1e-12
    assert report["odd_max_rel"] < 1e-12
    assert report["conjugation_max_rel"] < 1e-12
    for entry in report["constants"].values():
        assert entry["deviation"] < 1e-12
    assert report["l_halfwidth"] >= 5


def test_gaussian_pair_propagates_nan():
    report = gaussian_fourier_pair(D2, c0=float("nan"))
    for key in ("even_max_rel", "odd_max_rel", "conjugation_max_rel",
                "max_rel"):
        assert np.isnan(report[key])


def loop_gaussian_pair(ctx, c0=1.0):
    """gaussian_fourier_pair by a Python loop over l, one kernel entry per
    term, read as kernel_row(kind, m, m)[0]: it runs where q^m underflows
    too, as at q = 1e25."""
    sf = SpecialFunctions(ctx)
    q = ctx.q
    half = oscillator._gaussian_window(sf, c0)
    consts = sf.gauss_sum_constants(c0)
    scale = sf.n_q() / math.sqrt(2.0)
    report = {"q": q, "c0": c0, "l_halfwidth": half, "nu_range": [-8, 0],
              "constants": {}}
    for name in ("c0_tilde", "c0_prime"):
        direct, product = consts[name]
        report["constants"][name] = {"direct_sum": direct,
                                     "triple_product": product,
                                     "deviation": abs(direct - product)}
    ls = range(-half, half + 1)
    gauss = sf.lattice_gaussian

    def kern(kind, m):
        return float(sf.kernel_row(kind, m, m)[0])

    def even_sum(nu, tau):
        acc = 0.0j
        for l in ls:
            m = 2 * (nu + l)
            acc += ctx.qpow(nu + l) * (gauss(2 * l, c0) * kern("cos", m)
                                       + 1j * tau * gauss(2 * l + 1, c0)
                                       * kern("sin", m))
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
                    gauss(2 * l + 1, c0) * q * kern("cos", 2 * (nu + l + 1))
                    + 1j * tau * gauss(2 * l, c0) * kern("sin", 2 * (nu + l)))
            got = scale * acc
            want = (scale * consts["c0_prime"][1] * ctx.qpow(nu)
                    * sf.q_exp(1j * tau * ctx.qpow(2 * nu)))
            odd.append(abs(got - want) / abs(want))
    report["even_max_rel"] = worst(even)
    report["odd_max_rel"] = worst(odd)
    report["conjugation_max_rel"] = worst(conj_gap)
    report["max_rel"] = worst(even + odd)
    return report


@pytest.mark.parametrize("c0", (1.0, float("nan"), -0.7))
@pytest.mark.parametrize("q", (2.0, 1.5, 3.0, 10.0, 1.1, 50.0, 1e25))
def test_gaussian_pair_equals_the_term_loop_bit_for_bit(q, c0, monkeypatch):
    # the report reads whole kernel rows by exponent; at q = 1e25 the
    # points q^(2(nu+l)) underflow to 0.0, where no lookup by z can go
    def refuse(self, z, with_bound=False):
        raise AssertionError(f"kernel looked up by z = {z!r}")

    monkeypatch.setattr(SpecialFunctions, "cos_q", refuse)
    monkeypatch.setattr(SpecialFunctions, "sin_q", refuse)
    ctx = QContext(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gaussian_fourier_pair(ctx, c0)
    want = loop_gaussian_pair(ctx, c0)
    assert json.dumps(got, indent=2, sort_keys=True) \
        == json.dumps(want, indent=2, sort_keys=True)


def test_level_table_csv(pair):
    text = level_table_csv(pair, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "n,energy"
    assert len(lines) == 5
    assert abs(float(lines[2].split(",")[1]) - 1.0) < 1e-12


# -- the tower each pair keeps ----------------------------------------------


def test_pair_keeps_one_read_only_tower(rep):
    pair = build_ladder(rep)
    psi0 = ground_state(pair)
    states = excited_states(pair, 4)
    assert states[0] is psi0 and ground_state(pair) is psi0
    again = excited_states(pair, 6)
    assert len(again) == 7
    assert all(a is b for a, b in zip(states, again))
    for psi in again:
        with pytest.raises(ValueError):
            psi.data[0, 0] = 0.0
    # a copy is the caller's own
    psi = psi0.copy()
    psi.sector(1)[0] = 0.0
    assert psi0.sector(1)[0] != 0.0


def test_oscillator_battery_solves_the_ground_state_once(monkeypatch):
    calls = []
    solve = oscillator._solve_ground_state

    def counted(pair):
        calls.append(pair)
        return solve(pair)

    monkeypatch.setattr(oscillator, "_solve_ground_state", counted)
    params = {"window": [-12, 12], "levels": 4, "m_index": 1}
    rows, _, _ = doubles.oscillator(Fraction(2), params)
    assert all(r["ok"] for r in rows)
    assert len(calls) == 1


def loop_spectrum_table(pair, n_levels):
    """spectrum_table with a+ and a applied state by state."""
    energies = ladder_energies(pair, n_levels)
    rows = []
    for n, psi in enumerate(excited_states(pair, n_levels)):
        h_psi = pair.apply_lowering(pair.apply_raising(psi))
        h_psi = h_psi - psi.scale(pair.kappa)
        h_psi = h_psi.scale(1.0 / pair.ctx.qpow(-2 * pair.m_index))
        diff = h_psi - psi.scale(energies[n])
        rows.append((n, energies[n],
                     diff.max_abs_interior() / psi.max_abs_interior(
                         extra_margin=h_psi.pad_lo - psi.pad_lo)))
    return rows


@pytest.mark.parametrize("q, window, n_levels", [
    (2.0, (-12, 12), 3), (2.0, (-12, 12), 6), (1.5, (-20, 20), 4),
    (3.0, (-10, 10), 4)])
def test_spectrum_table_equals_the_state_loop(q, window, n_levels):
    rep = build_representation(LatticeGrid(QContext(q), *window))
    got = spectrum_table(build_ladder(rep), n_levels)
    want = loop_spectrum_table(build_ladder(rep), n_levels)
    assert len(got) == n_levels + 1
    assert [tuple(map(float.hex, map(float, r))) for r in got] \
        == [tuple(map(float.hex, map(float, r))) for r in want]
