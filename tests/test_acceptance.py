"""Acceptance gate: eight fixed criteria, one summary line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
printed per criterion.  Each criterion runs the CLI's residual batteries
(`qcalc.batteries`) at pinned seeds and parameters and asserts on their
rows: every row must pass, and every check the criterion pins must be
present with its pinned tolerance or a tighter one.  The few checks no
battery makes stay here as code.  The algebraic criteria demand exact
equality on the rational backend (all-or-nothing rows, tolerance
EXACT); the lattice criteria are double-precision with explicit
residual bounds.
"""

import time
from fractions import Fraction

import numpy as np

from qcalc.batteries import row, run, worst
from qcalc.context import QContext
from qcalc.gauge import (
    curvature_covariance_residual,
    einbein_derivative,
    einbein_path,
    product_leibniz_residual,
    random_einbein,
    random_field,
    random_phase,
    shift_inverse_residual,
)
from qcalc.lattice import LatticeGrid
from qcalc.special import QCombinatorics

SEED = 20260816
EXACT = 0.5  # all-or-nothing rows: residual 0 passes, 1 fails


def _rows(name, **given):
    return run(name, given)[0]


def _verdict(name, rows, pinned):
    by_check = {r["check"]: r for r in rows}
    failures = [f"{r['check']} residual {r['residual']:.2e} "
                f"(tol {r['tolerance']:.0e})" for r in rows if not r["ok"]]
    for check, tol in pinned.items():
        r = by_check.get(check)
        if r is None:
            failures.append(f"{check} not checked")
        elif not r["tolerance"] <= tol:
            failures.append(f"{check} tolerance {r['tolerance']:.0e} "
                            f"looser than {tol:.0e}")
    line = f"{'PASS' if not failures else 'FAIL'} {name}"
    if failures:
        line += f" -- {len(failures)} violation(s)"
    print(line)
    assert not failures, f"{name}: " + "; ".join(failures[:8])


def _budget(t0, seconds=10.0):
    return row(f"runtime budget {seconds:.0f} s", time.monotonic() - t0,
               seconds)


# -- 1: exact normal-ordering algebra ----------------------------------------


def test_criterion_1_exact_algebra():
    t0 = time.monotonic()
    rows = _rows("verify-algebra", q="3/2", seed=SEED, trials=200)
    rows.append(_budget(t0))
    _verdict("criterion 1 (exact algebra)", rows, dict.fromkeys((
        "defining-relation", "scale-exchange-p", "scale-exchange-x",
        "generator-conjugation", "conjugate-relation", "bar-of-relation",
        "associativity", "bar-involution", "bar-antihomomorphism",
        "derivative-extraction"), EXACT))


# -- 2: Leibniz rules and scale morphism --------------------------------------


def test_criterion_2_leibniz_morphism():
    t0 = time.monotonic()
    rows = _rows("leibniz", q="3/2", seed=SEED + 1, trials=500)
    rows.append(_budget(t0))
    _verdict("criterion 2 (Leibniz/morphism)", rows, dict.fromkeys((
        "product-rule-form1", "product-rule-form2", "comultiplication",
        "scale-morphism", "derivative-kernel", "x-inverse-not-in-image",
        "preimage-round-trip"), EXACT))


# -- 3: Jackson integration ---------------------------------------------------


def test_criterion_3_integration():
    exact = _rows("integrate", q="3/2", seed=SEED + 2, trials=100)
    double = _rows("integrate", q="2", seed=SEED + 2, trials=100)
    rows = [dict(r, check="exact " + r["check"]) for r in exact] + double
    pinned = dict.fromkeys(("exact trace-vs-closed-form",
                            "exact x-inverse-rule", "exact stokes"), EXACT)
    pinned.update(dict.fromkeys((
        "trace-vs-closed-form", "x-inverse-rule", "stokes",
        "partial-integration", "green-identity", "nabla2-hermiticity"),
        1e-12))
    _verdict("criterion 3 (integration)", rows, pinned)


# -- 4: special functions -----------------------------------------------------


def test_criterion_4_special_functions():
    rows = _rows("special-tables", q="2")
    # Pochhammer product against the factorial form, exact at q = 2; the
    # special-tables battery runs on doubles
    exact2 = QContext(2)
    comb = QCombinatorics(exact2)
    a = exact2.qpow(-2)
    for n in range(0, 13):
        lhs = comb.qpoch(a, a, n)
        rhs = exact2.qpow(Fraction(-n * (n + 1), 2)) * exact2.lam ** n \
            * comb.qfact(n)
        rows.append(row(f"Pochhammer identity at n={n}", lhs != rhs))
    _verdict("criterion 4 (special functions)", rows, {
        "recurrences": 1e-10, "derivative-relations": 1e-10,
        "orthogonality-diagonal": 1e-10, "orthogonality-offdiagonal": 1e-10})


# -- 5: Fourier transform -----------------------------------------------------


def test_criterion_5_fourier():
    rows = _rows("fourier", q="2", seed=SEED + 3)
    _verdict("criterion 5 (Fourier)", rows, {
        "isometry-cos": 1e-10, "isometry-sin": 1e-10,
        "double-transform": 1e-8, "step-closed-form": 1e-8,
        "step-round-trip": 1e-8})


# -- 6: Schroedinger picture --------------------------------------------------


def test_criterion_6_schrodinger():
    rows = _rows("spectrum", q="2", window=(-12, 12), n_max=3)
    rows += _rows("evolve", q="2", window=(-12, 12), seed=SEED + 4, dt=1e-3)
    _verdict("criterion 6 (Schrodinger)", rows, {
        "eigenvalue-table": 1e-6, "stationarity-drift": 1e-6,
        "continuity": 1e-6, "noether-current": 1e-10,
        "adjoint-identity": 1e-12})


# -- 7: gauge covariance ------------------------------------------------------


def test_criterion_7_gauge():
    rows = _rows("gauge", q="2", window=(-8, 8), seed=SEED + 5, dt=1e-3,
                 transforms=100)

    # the scenario battery samples these once; the gate samples more
    grid = LatticeGrid(QContext(2.0), -8, 8)
    rng = np.random.default_rng(SEED + 5)
    dt = 1e-3
    omega = random_field(rng, grid, 0.5)
    e_at = einbein_path(rng, grid)
    e_slices = [e_at(t) for t in (0.4 - dt, 0.4, 0.4 + dt)]
    rows.append(row("curvature-covariance, 100 phases", worst(
        curvature_covariance_residual(e_slices, omega,
                                      random_phase(rng, grid, 1.0), dt)
        for _ in range(100)), 1e-10))

    transport, leib, inv = [], [], []
    for _ in range(10):
        e1 = random_einbein(rng, grid, 0.3)
        e2 = random_einbein(rng, grid, 0.3)
        f1 = random_field(rng, grid)
        f2 = random_field(rng, grid)
        transport.append(einbein_derivative(e1, e1).max_abs_interior())
        leib.append(product_leibniz_residual(e1, e2, f1, f2))
        inv.append(shift_inverse_residual(e1, f1))
    rows += [row("frame transport, 10 einbeins", worst(transport), 1e-12),
             row("product Leibniz, 10 pairs", worst(leib), 1e-12),
             row("shift inverse, 10 einbeins", worst(inv), 1e-12)]

    _verdict("criterion 7 (gauge)", rows, {
        "derivative-covariance": 1e-10, "commutator": 1e-6})


# -- 8: oscillator ------------------------------------------------------------


def test_criterion_8_oscillator():
    rows = _rows("oscillator", q="2", window=(-12, 12), levels=5, m_index=1)
    _verdict("criterion 8 (oscillator)", rows, {
        "commutator-normalized": 1e-10, "ground-state-defect": 1e-8,
        "ground-series-match": 1e-8, "hermite-tower": 1e-6,
        "ladder-spectrum": 1e-6, "gaussian-pair": 1e-8,
        "gaussian-constants": 1e-12})
