"""Field calculus: nabla routes, scale map, Leibniz rules, one-forms."""

import math
import random
import struct
from fractions import Fraction

import pytest

from qcalc.batteries import rand_poly
from qcalc.context import QTABLE_SPAN, QContext
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
from qcalc.integration import definite_integral
from qcalc.scalars import QQi

CTX = QContext(Fraction(3, 2))


def test_context_backends():
    # a context keeps q in the number type it is given; an int becomes a
    # Fraction
    assert type(CTX.q) is Fraction and CTX.lam == Fraction(5, 6)
    two = QContext(2)
    assert type(two.q) is Fraction and two.lam == Fraction(3, 2)
    d = QContext(2.0)
    assert type(d.q) is float and d.lam == 1.5
    assert d.sqrt_q == 2.0 ** 0.5 and CTX.sqrt_q == 1.5 ** 0.5
    for bad in (Fraction(1, 2), 1, 1.0, math.nan):
        with pytest.raises(ValueError):
            QContext(bad)
    with pytest.raises(TypeError):
        QContext("2")
    assert CTX.qnum(2) == CTX.q + 1 / CTX.q


def _bits(x):
    return struct.pack("<d", x)


@pytest.mark.parametrize("q", [2.0, 1.5, 1.1, 3.7])
def test_float_context_is_the_double_formulas_bit_for_bit(q):
    ctx = QContext(q)
    lam = q - 1.0 / q
    assert _bits(ctx.lam) == _bits(lam)
    assert _bits(ctx.inv_lam) == _bits(1.0 / lam)
    for n in range(-40, 41):
        got = ctx.qpow(n)
        assert type(got) is float and _bits(got) == _bits(q ** n)


def test_nabla_monomials():
    f = LaurentPoly.monomial(CTX, 2)
    assert nabla(f) == LaurentPoly(CTX, {1: CTX.qnum(2)})
    assert nabla(LaurentPoly(CTX, {0: 1})).is_zero()
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
    w = OneForm(LaurentPoly(CTX, {0: 1}), b=1, variant="A")
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


def test_fields_reject_a_double_context():
    with pytest.raises(ValueError, match=r"QContext\(Fraction\(1\.5\)\)"):
        LaurentPoly(QContext(1.5), {1: 1})


# -- reference: Fraction/QQi dicts ---------------------------------------------
#
# The exact backend stores Gaussian integers over one denominator.  The
# reference below is the plain {n: QQi} form with Fraction arithmetic,
# q-numbers from Fraction powers, and nothing shared with the storage.

REF_QS = [Fraction(3, 2), Fraction(5, 3), Fraction(2)]


def _ref(coeffs):
    return {n: c for n, c in coeffs.items() if not c.is_zero()}


def ref_add(a, b, sign=1):
    out = dict(a)
    for n, c in b.items():
        out[n] = out.get(n, QQi(0)) + c * sign
    return _ref(out)


def ref_mul(a, b):
    out = {}
    for n1, c1 in a.items():
        for n2, c2 in b.items():
            out[n1 + n2] = out.get(n1 + n2, QQi(0)) + c1 * c2
    return _ref(out)


def ref_qnum(q, n):
    return (q ** n - q ** -n) / (q - 1 / q)


def ref_nabla(q, a):
    return _ref({n - 1: c * ref_qnum(q, n) for n, c in a.items()})


def ref_L(q, a, power):
    return _ref({n: c * q ** (-power * n) for n, c in a.items()})


def ref_preimage(q, a):
    return {n + 1: c * (1 / ref_qnum(q, n + 1)) for n, c in a.items()}


def ref_evaluate(a, x0):
    acc = QQi(0)
    for n, c in a.items():
        acc = acc + c * Fraction(x0) ** n
    return acc


def ref_definite_integral(q, a, lo, hi, sector):
    acc = QQi(0)
    for n in range(lo + 1, hi, 2):
        pt = sector * q ** n
        acc = acc + ref_evaluate(a, pt) * pt
    return acc * (q - 1 / q)


def rand_gauss(rng, max_terms=6, span=12):
    """{n: QQi} with Gaussian-rational coefficients, denominators 1..7."""
    return {rng.randrange(-span, span + 1):
            QQi(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))
            for _ in range(rng.randrange(1, max_terms + 1))}


def _canonical(f):
    parts = [p for pair in f._c.values() for p in pair]
    return (all(re or im for re, im in f._c.values()) and f.den > 0
            and math.gcd(f.den, *parts) == 1 and (f._c or f.den == 1))


def _agrees(f, want):
    """f holds the reference dict `want`, in canonical form."""
    return (_canonical(f) and f.coeffs == _ref(want)
            and f == LaurentPoly(f.ctx, want))


def _ref_pairs(seed, count=40):
    rng = random.Random(seed)
    return [(rand_gauss(rng), rand_gauss(rng)) for _ in range(count)]


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_exact_q_pairs_match_fraction_powers(q):
    ctx = QContext(q)
    for k in range(-40, 41):
        for got, want in ((ctx.qpow_pair(k), q ** k),
                          (ctx.qnum_pair(k), ref_qnum(q, k))):
            num, den = got
            assert den > 0 and math.gcd(num, den) == 1
            assert Fraction(num, den) == want
        assert ctx.qpow(k) == q ** k and ctx.qnum(k) == ref_qnum(q, k)


def test_exact_q_pair_table_is_bounded():
    ctx = QContext(Fraction(5, 3))
    for k in range(-3 * QTABLE_SPAN, 3 * QTABLE_SPAN):
        assert Fraction(*ctx.qpow_pair(k)) == ctx.q ** k
        ctx.qnum_pair(k)
    assert len(ctx._pow) == 2 * QTABLE_SPAN + 1
    assert len(ctx._qnum) == 2 * QTABLE_SPAN


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_ring_ops_match_reference(q):
    ctx = QContext(q)
    for a, b in _ref_pairs(101):
        f, g = LaurentPoly(ctx, a), LaurentPoly(ctx, b)
        assert _agrees(f, a)
        assert _agrees(f + g, ref_add(a, b))
        assert _agrees(f - g, ref_add(a, b, -1))
        assert _agrees(-f, ref_add({}, a, -1))
        assert _agrees(f * g, ref_mul(a, b))
        assert _agrees(f.conj(), {n: c.conj() for n, c in a.items()})
        assert _agrees(f.scale(QQi(Fraction(2, 7), -3)),
                       {n: c * QQi(Fraction(2, 7), -3) for n, c in a.items()})


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_derivative_and_scale_map_match_reference(q):
    ctx = QContext(q)
    for a, _ in _ref_pairs(103):
        f = LaurentPoly(ctx, a)
        want = ref_nabla(q, a)
        assert _agrees(nabla(f, "qnumber"), want)
        assert _agrees(nabla(f, "shift"), want)
        for power in (1, -1, 2, -2):
            assert _agrees(L_op(f, power), ref_L(q, a, power))
        image = {n: c for n, c in a.items() if n != -1}
        assert _agrees(nabla_preimage(LaurentPoly(ctx, image)),
                       ref_preimage(q, image))


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_evaluate_and_integral_match_reference(q):
    ctx = QContext(q)
    rng = random.Random(107)
    for a, _ in _ref_pairs(107, count=25):
        f = LaurentPoly(ctx, a)
        for x0 in (Fraction(7, 3), Fraction(-5, 4), q, -1 / q, 1):
            got = f.evaluate(x0)
            assert isinstance(got, QQi) and got == ref_evaluate(a, x0)
        lo = rng.randrange(-6, 3)
        hi = lo + 2 * rng.randrange(1, 5)
        sector = rng.choice((1, -1))
        assert definite_integral(f, lo, hi, sector) \
            == ref_definite_integral(q, a, lo, hi, sector)


def test_evaluate_at_zero():
    f = LaurentPoly(CTX, {0: QQi(Fraction(1, 3), 2), 3: 5})
    assert f.evaluate(0) == QQi(Fraction(1, 3), 2)
    assert LaurentPoly.zero(CTX).evaluate(0) == QQi(0)
    with pytest.raises(ZeroDivisionError):
        LaurentPoly(CTX, {-2: 1}).evaluate(Fraction(0))


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_results_that_cancel_are_the_canonical_zero(q):
    ctx = QContext(q)
    zero = LaurentPoly.zero(ctx)
    assert zero.den == 1 and not zero._c
    for a, b in _ref_pairs(109, count=20):
        f, g = LaurentPoly(ctx, a), LaurentPoly(ctx, b)
        for z in (f - f, f + (-f), f * g - g * f,
                  L_op(L_op(f, 2), -2) - f,
                  nabla(f, "shift") - nabla(f),
                  f * zero, f.scale(0), zero.conj()):
            assert z.is_zero() and z == zero and z.den == 1 and not z._c
    # one denominator cancels against another: 1/6 x - 2/12 x = 0
    f = LaurentPoly(ctx, {1: Fraction(1, 6), 2: QQi(0, Fraction(1, 4))})
    g = LaurentPoly(ctx, {1: Fraction(2, 12), 2: QQi(0, Fraction(-3, 4))})
    assert (f - g) == LaurentPoly(ctx, {2: QQi(0, Fraction(1, 1))})
    assert (f - g).den == 1


@pytest.mark.parametrize("q", REF_QS, ids=str)
def test_equal_values_by_different_routes_compare_equal(q):
    ctx = QContext(q)
    for a, b in _ref_pairs(113, count=20):
        f, g = LaurentPoly(ctx, a), LaurentPoly(ctx, b)
        h = LaurentPoly(ctx, a) - g
        assert (f + g) * h == f * h + g * h
        assert L_op(f * g, 1) == L_op(f, 1) * L_op(g, 1)
        assert L_op(f, 2) == L_op(L_op(f, 1), 1)
        assert L_op(nabla(f), 1) == nabla(L_op(f, 1)).scale(q)
        assert f.scale(Fraction(1, 6)) + f.scale(Fraction(1, 3)) \
            == f.scale(Fraction(1, 2))
    # 1/6 + 1/3 reduces to 1/2 over denominator 2
    half = LaurentPoly(ctx, {0: Fraction(1, 6)}) \
        + LaurentPoly(ctx, {0: Fraction(1, 3)})
    assert half.den == 2 and half == LaurentPoly(ctx, {0: Fraction(1, 2)})


def test_values_that_differ_compare_unequal():
    # same integer parts over different denominators, and vice versa
    assert LaurentPoly(CTX, {1: Fraction(1, 2)}) != LaurentPoly(CTX, {1: 1})
    assert LaurentPoly(CTX, {1: QQi(1, 1)}) != LaurentPoly(CTX, {1: 1})
    assert LaurentPoly(CTX, {1: 1}) != LaurentPoly(CTX, {2: 1})
    f = LaurentPoly(CTX, {3: QQi(Fraction(2, 3), 1)})
    assert f.scale(2) != f and L_op(f, 1) != f


def test_coeffs_view_has_int_parts_and_is_a_copy():
    f = LaurentPoly(CTX, {2: QQi(Fraction(4, 2), 3), -1: QQi(Fraction(1, 2))})
    view = f.coeffs
    assert type(view[2].re) is int and type(view[2].im) is int
    assert view[-1] == QQi(Fraction(1, 2)) and type(view[-1].im) is int
    assert view == {2: QQi(2, 3), -1: QQi(Fraction(1, 2))}
    before = LaurentPoly(CTX, view)
    view[5] = QQi(7)
    del view[2]
    assert f == before and f.coeffs == {2: QQi(2, 3), -1: QQi(Fraction(1, 2))}
    assert type((f * f).coeffs[4].re) is int
