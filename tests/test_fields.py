"""Field calculus: nabla routes, scale map, Leibniz rules, one-forms."""

import random
from fractions import Fraction

import pytest

from qcalc.batteries import rand_poly
from qcalc.context import QContext
from qcalc.fields import (
    LaurentPoly,
    NotInImage,
    OneForm,
    comultiplication_residual,
    d_leibniz_residual,
    d_squared,
    differential,
    leibniz_residual,
    morphism_residual,
    nabla,
    nabla_preimage,
    L_op,
)
from qcalc.scalars import QQi

CTX = QContext(Fraction(3, 2))


def test_context_backends():
    assert CTX.exact and CTX.lam == Fraction(5, 6)
    d = QContext(2.0)
    assert not d.exact and d.lam == 1.5
    assert d.sqrt_q == 2.0 ** 0.5
    with pytest.raises(ValueError):
        CTX.sqrt_q
    with pytest.raises(ValueError):
        QContext(Fraction(1, 2))
    assert CTX.qnum(2) == CTX.q + 1 / CTX.q
    assert CTX.qfact(3) == QQi(CTX.qnum(2) * CTX.qnum(3), 0)


def test_nabla_monomials():
    f = LaurentPoly.monomial(CTX, 2)
    assert nabla(f) == LaurentPoly(CTX, {1: CTX.qnum(2)})
    assert nabla(LaurentPoly.one(CTX)).is_zero()
    g = LaurentPoly.monomial(CTX, -2)
    assert nabla(g) == LaurentPoly(CTX, {-3: -CTX.qnum(2)})
    # [-2] = (q^-2 - q^2)/(q - q^-1) evaluated directly
    assert CTX.qnum(-2) == (CTX.qpow(-2) - CTX.qpow(2)) / CTX.lam


def test_nabla_routes_agree():
    rng = random.Random(3)
    for _ in range(50):
        f = rand_poly(rng, CTX)
        assert nabla(f, "qnumber") == nabla(f, "shift")


def test_L_op_monomials():
    f = LaurentPoly.monomial(CTX, 3)
    assert L_op(f, 1) == LaurentPoly(CTX, {3: CTX.qpow(-3)})
    assert L_op(f, -1) == LaurentPoly(CTX, {3: CTX.qpow(3)})
    mix = LaurentPoly(CTX, {1: 1, -1: 1})
    assert L_op(mix, 1) == LaurentPoly(CTX, {1: CTX.qpow(-1), -1: CTX.q})


def test_L_is_argument_rescaling():
    rng = random.Random(5)
    x0 = Fraction(7, 3)
    for _ in range(20):
        f = rand_poly(rng, CTX)
        assert L_op(f, 1).evaluate(x0) == f.evaluate(x0 / CTX.q)
        assert L_op(f, -1).evaluate(x0) == f.evaluate(x0 * CTX.q)


def test_leibniz_both_forms_and_comultiplication():
    rng = random.Random(17)
    for _ in range(60):
        f, g = rand_poly(rng, CTX), rand_poly(rng, CTX)
        assert leibniz_residual(f, g, form=1).is_zero()
        assert leibniz_residual(f, g, form=2).is_zero()
        assert comultiplication_residual(f, g).is_zero()


def test_morphism_relation():
    rng = random.Random(29)
    for _ in range(40):
        assert morphism_residual(rand_poly(rng, CTX)).is_zero()


def test_nabla_kernel_is_constants():
    for n in range(-8, 9):
        f = LaurentPoly.monomial(CTX, n)
        assert nabla(f).is_zero() == (n == 0)
    assert nabla(LaurentPoly(CTX, {0: 42})).is_zero()


def test_nabla_image_excludes_x_inverse():
    with pytest.raises(NotInImage):
        nabla_preimage(LaurentPoly.monomial(CTX, -1))
    rng = random.Random(31)
    for _ in range(20):
        f = rand_poly(rng, CTX)
        f = f - LaurentPoly(CTX, {-1: f.coeffs.get(-1, 0)})
        assert nabla(nabla_preimage(f)) == f


def test_differential_monomial():
    d = differential(LaurentPoly.monomial(CTX, 4))
    assert d.coeff == LaurentPoly(CTX, {3: CTX.qnum(4)})
    assert d.b == 1 and d.variant == "A"


def test_dx_commutes_with_x_at_default_convention():
    # b = 1, variant A: x dx == dx x
    w = OneForm(LaurentPoly.one(CTX), b=1, variant="A")
    assert w.left_mul(LaurentPoly.monomial(CTX, 1)) == \
        w.right_mul(LaurentPoly.monomial(CTX, 1))


def test_d_leibniz_all_conventions():
    rng = random.Random(41)
    for b in (-2, -1, 0, 1, 2):
        for variant in ("A", "B"):
            for _ in range(10):
                f = rand_poly(rng, CTX, max_terms=3)
                g = rand_poly(rng, CTX, max_terms=3)
                assert d_leibniz_residual(f, g, b, variant).is_zero()


def test_d_leibniz_worked_example():
    # d(x * x^2) expands to [3] dx x^2 along both routes
    f = LaurentPoly.monomial(CTX, 1)
    g = LaurentPoly.monomial(CTX, 2)
    assert d_leibniz_residual(f, g, 1, "A").is_zero()
    lhs = differential(f * g)
    assert lhs.coeff == LaurentPoly(CTX, {2: CTX.qnum(3)})


def test_d_squared_vanishes():
    rng = random.Random(43)
    for _ in range(10):
        assert d_squared(rand_poly(rng, CTX)).is_zero()
        assert d_squared(rand_poly(rng, CTX), b=-1, variant="B").is_zero()


def test_double_backend_matches_exact():
    dctx = QContext(1.5)
    rng = random.Random(47)
    for _ in range(20):
        f = rand_poly(rng, CTX)
        fd = LaurentPoly(dctx, {n: complex(c) for n, c in f.coeffs.items()})
        ge = nabla(f)
        gd = nabla(fd)
        assert set(ge.coeffs) == set(gd.coeffs)
        for n, c in ge.coeffs.items():
            assert abs(complex(c) - gd.coeffs[n]) < 1e-12 * max(1.0, abs(complex(c)))
