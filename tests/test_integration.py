"""Jackson integrals: closed forms, trace sums, Stokes, Green, hermiticity."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qcalc.batteries import rand_lattice_fn
from qcalc.context import QContext
from qcalc.fields import LaurentPoly, NotInImage, nabla, nabla_preimage
from qcalc.integration import (
    DivergentBranch,
    NotConverged,
    ParityMismatch,
    definite_integral,
    monomial_integral_closed_form,
    nabla_inverse_series,
)
from qcalc.lattice import (
    GridMismatch,
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    check_green,
    definite_integral as lattice_integral,
    improper_integral,
    norm,
    scalar_product,
)
from qcalc.scalars import QQi

EXACT = QContext(Fraction(3, 2))
DOUBLE = QContext(2.0)


# -- indefinite: the preimage under nabla ---------------------------------


def test_indefinite_integral_monomials():
    f = LaurentPoly.monomial(EXACT, 1)
    F = nabla_preimage(f)
    assert F == LaurentPoly(EXACT, {2: 1 / EXACT.qnum(2)})
    assert nabla_preimage(LaurentPoly(EXACT, {0: 1})) == \
        LaurentPoly.monomial(EXACT, 1)
    with pytest.raises(NotInImage):
        nabla_preimage(LaurentPoly.monomial(EXACT, -1))


def test_indefinite_inverts_nabla():
    rng = random.Random(2)
    for _ in range(30):
        coeffs = {rng.randrange(-6, 7): rng.randrange(1, 9) for _ in range(4)}
        coeffs.pop(-1, None)
        f = LaurentPoly(EXACT, coeffs)
        assert nabla(nabla_preimage(f)) == f


# -- inverse-derivative series ----------------------------------------------


def test_series_plus_branch_converges():
    f = LaurentPoly.monomial(EXACT, 2)
    approx = nabla_inverse_series(f, "plus", 60)
    target = nabla_preimage(f)
    diff = approx - target
    err = abs(complex(diff.evaluate(Fraction(1)))) / abs(
        complex(target.evaluate(Fraction(1))))
    assert err < 1e-12


def test_series_minus_branch_converges():
    f = LaurentPoly.monomial(EXACT, -3)
    approx = nabla_inverse_series(f, "minus", 60)
    target = nabla_preimage(f)  # x^-2 / [-2]
    assert target == LaurentPoly(EXACT, {-2: 1 / EXACT.qnum(-2)})
    diff = approx - target
    err = abs(complex(diff.evaluate(Fraction(1))))
    assert err < 1e-12
    # oracle: the derivative of the truncated series approaches f
    back = nabla(approx) - f
    assert abs(complex(back.evaluate(Fraction(1)))) < 1e-12


def test_series_partial_sums_geometric():
    # x^0, plus branch: partial sums are lam * sum q^-(2nu+1), limit x/[1] = x
    f = LaurentPoly(EXACT, {0: 1})
    for terms in (1, 2, 5):
        got = nabla_inverse_series(f, "plus", terms)
        want = EXACT.lam * sum(EXACT.qpow(-(2 * nu + 1))
                               for nu in range(terms))
        assert got == LaurentPoly(EXACT, {1: want})


def test_series_divergent_branches_raise():
    with pytest.raises(DivergentBranch):
        nabla_inverse_series(LaurentPoly.monomial(EXACT, -1), "plus", 5)
    with pytest.raises(DivergentBranch):
        nabla_inverse_series(LaurentPoly.monomial(EXACT, -2), "plus", 5)
    with pytest.raises(DivergentBranch):
        nabla_inverse_series(LaurentPoly.monomial(EXACT, 0), "minus", 5)


# -- definite -----------------------------------------------------------------


def test_definite_integral_worked_example():
    # h = x from q^0 to q^2 at q = 2: single odd site mu gives 6
    ctx = QContext(Fraction(2))
    h = LaurentPoly.monomial(ctx, 1)
    got = definite_integral(h, 0, 2)
    assert got == QQi(6)
    assert got == ctx.coerce(monomial_integral_closed_form(ctx, 1, 0, 2))


def test_definite_integral_constant():
    ctx = QContext(Fraction(2))
    got = definite_integral(LaurentPoly(ctx, {0: 1}), -4, 6)
    assert got == ctx.coerce(ctx.qpow(6) - ctx.qpow(-4))


def test_definite_matches_closed_form_exact_backend():
    for n in range(-5, 6):
        if n == -1:
            continue
        h = LaurentPoly.monomial(EXACT, n)
        got = definite_integral(h, -4, 4)
        want = EXACT.coerce(monomial_integral_closed_form(EXACT, n, -4, 4))
        assert got == want
        got_odd = definite_integral(h, -3, 5)
        want_odd = EXACT.coerce(monomial_integral_closed_form(EXACT, n, -3, 5))
        assert got_odd == want_odd


def test_x_inverse_rule():
    h = LaurentPoly.monomial(EXACT, -1)
    got = definite_integral(h, -6, 4)
    assert got == EXACT.coerce(EXACT.lam * 5)
    assert monomial_integral_closed_form(EXACT, -1, -6, 4) == EXACT.lam * 5


def test_definite_parity_guard():
    with pytest.raises(ParityMismatch):
        definite_integral(LaurentPoly(EXACT, {0: 1}), 0, 3)
    with pytest.raises(ValueError):
        definite_integral(LaurentPoly(EXACT, {0: 1}), 4, 2)


def test_stokes_exact_random():
    rng = random.Random(13)
    for _ in range(100):
        coeffs = {rng.randrange(-4, 5): Fraction(rng.randrange(-9, 10), 3)
                  for _ in range(4)}
        f = LaurentPoly(EXACT, coeffs)
        N = rng.randrange(-6, 3)
        M = rng.randrange(N + 1, 9)
        if (M - N) % 2:
            M += 1
        got = definite_integral(nabla(f), N, M)
        want = f.evaluate(EXACT.qpow(M)) - f.evaluate(EXACT.qpow(N))
        assert got == EXACT.coerce(want)


def test_stokes_on_lattice_data():
    grid = LatticeGrid(DOUBLE, -10, 10)
    rng = random.Random(17)
    f = rand_lattice_fn(rng, grid)
    df = f.nabla_fn()
    got = lattice_integral(df, -7, 7)
    want = f.value(1, 7) - f.value(1, -7)
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))


# -- improper and scalar product ------------------------------------------


def test_improper_single_site_example():
    grid = LatticeGrid(DOUBLE, -8, 8)
    h = LatticeFn.from_sites(grid, {(1, -1): 1.0})
    got = improper_integral(h)
    assert abs(got - 0.375) < 1e-15


def test_improper_of_gradient_vanishes():
    grid = LatticeGrid(DOUBLE, -12, 12)
    rng = random.Random(19)
    g = rand_lattice_fn(rng, grid, lo=-6, hi=6)
    dg = g.nabla_fn()
    assert abs(improper_integral(dg)) < 1e-13


def test_improper_mirrored_sectors():
    grid = LatticeGrid(DOUBLE, -8, 8)
    rng = random.Random(23)
    sites = {}
    for n in range(-4, 5):
        v = rng.uniform(-1, 1)
        sites[(1, n)] = v
        sites[(-1, n)] = v
    h = LatticeFn.from_sites(grid, sites)
    hp = LatticeFn.from_sites(grid, {k: v for k, v in sites.items()
                                     if k[0] == 1})
    assert abs(improper_integral(h) - 2 * improper_integral(hp)) < 1e-14


def test_improper_tail_guard():
    grid = LatticeGrid(DOUBLE, -8, 8)
    h = LatticeFn.from_sites(grid, {(1, 8): 1.0})
    with pytest.raises(NotConverged):
        improper_integral(h)


def test_improper_tail_guard_rejects_nan():
    grid = LatticeGrid(DOUBLE, -8, 8)
    h = LatticeFn.from_sites(grid, {(1, 0): 1.0, (-1, 8): float("nan")})
    with pytest.raises(NotConverged):
        improper_integral(h)


def test_parity_families_sum_to_improper():
    grid = LatticeGrid(DOUBLE, -14, 14)
    rng = random.Random(29)
    h = rand_lattice_fn(rng, grid, lo=-7, hi=7)
    total = 0j
    for s in grid.sectors:
        even = lattice_integral(h, -14, 14, sector=s)
        odd = lattice_integral(h, -13, 13, sector=s)
        total += s * (even + odd)
    assert abs(0.5 * total - improper_integral(h)) < 1e-13


def test_scalar_product_site_weight():
    grid = LatticeGrid(DOUBLE, -8, 8)
    psi = LatticeFn.from_sites(grid, {(1, 0): 1.0})
    assert abs(scalar_product(psi, psi) - 0.75) < 1e-15
    assert abs(norm(psi) - math.sqrt(0.75)) < 1e-15


def test_scalar_product_positive_and_disjoint():
    grid = LatticeGrid(DOUBLE, -8, 8)
    a = LatticeFn.from_sites(grid, {(1, 1): 1.0 + 2.0j})
    b = LatticeFn.from_sites(grid, {(-1, 1): 3.0})
    assert abs(scalar_product(a, b)) == 0.0
    assert scalar_product(a, a).real > 0
    assert abs(scalar_product(a, a).imag) < 1e-16
    with pytest.raises(GridMismatch):
        other = LatticeGrid(DOUBLE, -7, 8)
        scalar_product(a, LatticeFn(other))


def test_partial_integration_both_forms():
    grid = LatticeGrid(DOUBLE, -12, 12)
    rng = random.Random(31)
    for _ in range(10):
        chi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        psi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        a = improper_integral(chi.conj().nabla_fn() * psi.L_shift(1)) \
            + improper_integral(chi.conj().L_shift(-1) * psi.nabla_fn())
        b = improper_integral(chi.conj().nabla_fn() * psi.L_shift(-1)) \
            + improper_integral(chi.conj().L_shift(1) * psi.nabla_fn())
        assert abs(a) < 1e-12
        assert abs(b) < 1e-12


def test_hermiticity_of_nabla_squared():
    grid = LatticeGrid(DOUBLE, -12, 12)
    rng = random.Random(37)
    for _ in range(10):
        chi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        psi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        lhs = improper_integral(chi.nabla2_fn().conj() * psi)
        rhs = improper_integral(chi.conj() * psi.nabla2_fn())
        assert abs(lhs - rhs) < 1e-12


def test_green_identity_lattice():
    grid = LatticeGrid(DOUBLE, -8, 8)
    rng = random.Random(41)
    for _ in range(10):
        f = rand_lattice_fn(rng, grid)
        g = rand_lattice_fn(rng, grid)
        res = check_green(f, g, -6, 6)
        assert abs(res) < 1e-12
        assert abs(check_green(f, f, -6, 6)) < 1e-12


def test_green_needs_padding():
    grid = LatticeGrid(DOUBLE, -8, 8)
    rng = random.Random(43)
    f = rand_lattice_fn(rng, grid)
    with pytest.raises(InsufficientPadding):
        check_green(f, f, -8, 8)


def test_green_boundary_example():
    # f = x, g = 1: both sides reduce to the same boundary number
    grid = LatticeGrid(DOUBLE, -8, 8)
    f = LatticeFn(grid, grid.points)
    g = LatticeFn(grid, np.ones(grid.points.shape))
    assert abs(check_green(f, g, -4, 4)) < 1e-13
    flux = f.nabla_fn() * g.L_shift(-1) - f.L_shift(-1) * g.nabla_fn()
    # nabla x = 1, nabla 1 = 0: the flux is 1 at every site
    for n in (-4, 0, 4):
        assert abs(flux.value(1, n) - 1.0) < 1e-13


def test_lattice_shift_and_pad_bookkeeping():
    grid = LatticeGrid(DOUBLE, -3, 3)
    f = LatticeFn(grid, grid.points)
    Lf = f.L_shift(1)
    assert Lf.pad_lo == 1 and Lf.pad_hi == 0
    # (Lf)(q^n) = f(q^(n-1)) = q^(n-1)
    assert abs(Lf.value(1, 0) - DOUBLE.qpow(-1)) < 1e-15
    Linvf = f.L_shift(-1)
    assert Linvf.pad_hi == 1
    assert abs(Linvf.value(1, 0) - DOUBLE.q) < 1e-15
    df = f.nabla_fn()
    assert df.pad_lo == df.pad_hi == 1
    for n in range(-2, 3):
        assert abs(df.value(1, n) - 1.0) < 1e-15
    with pytest.raises(InsufficientPadding):
        df.value(1, 3)
