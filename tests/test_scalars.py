"""Exact coefficient ring: arithmetic, lam localization, text round trip."""

import math
import random
from fractions import Fraction

import pytest

from qcalc.context import QContext
from qcalc.fields import LaurentPoly
from qcalc.scalars import QQi, Scalar

LAM = Scalar.q_power(1) - Scalar.q_power(-1)


def test_qqi_field_ops():
    a = QQi(Fraction(1, 2), Fraction(-3, 4))
    b = QQi(2, 1)
    assert a + b == QQi(Fraction(5, 2), Fraction(1, 4))
    assert a * b == QQi(Fraction(7, 4), -1)
    assert (a / b) * b == a
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0


def test_qqi_int_and_integral_fraction_are_one_value():
    a, b = QQi(2, 0), QQi(Fraction(4, 2), 0)
    assert a == b and hash(a) == hash(b)
    assert type(b.re) is int


def test_scalar_int_and_integral_fraction_coefficients_agree():
    # the algebra caches and AlgebraElement equality key on Scalar hashes
    for lam in (0, 1, 2):
        a = Scalar({2: QQi(3, -1), -4: QQi(0, 5)}, lam)
        b = Scalar({2: QQi(Fraction(6, 2), Fraction(-1)),
                    -4: QQi(Fraction(0), Fraction(10, 2))}, lam)
        assert a == b and hash(a) == hash(b)


def test_integral_arithmetic_keeps_int_parts():
    rng = random.Random(7)
    for _ in range(100):
        a = QQi(rng.randrange(-50, 51), rng.randrange(-50, 51))
        b = QQi(rng.randrange(-50, 51), rng.randrange(-50, 51))
        for c in (a + b, a - b, a * b, -a, a.conj(), 3 * a + 1):
            assert type(c.re) is int and type(c.im) is int
    z = (Scalar.qnum(3) + Scalar.i() * Scalar.s_power(-1)) * Scalar.qnum(-2)
    z = z * Scalar.inv_lam() + LAM
    for c in z.num.values():
        assert type(c.re) is int and type(c.im) is int


def test_qqi_division_is_exact():
    assert QQi(1) / QQi(0, 2) == QQi(0, Fraction(-1, 2))
    assert type((QQi(1) / QQi(0, 2)).im) is Fraction
    assert (QQi(1) / QQi(3)) * QQi(3) == QQi(1)
    # an integral quotient lands back on int parts
    c = QQi(4, 2) / QQi(2, 1)
    assert c == QQi(2, 0) and type(c.re) is int and type(c.im) is int


def test_qqi_coerces_other_inputs_through_fraction():
    z = QQi(0.5, True)
    assert z.re == Fraction(1, 2) and type(z.re) is Fraction
    assert z.im == 1 and type(z.im) is not bool
    assert QQi(0.1).re == Fraction(0.1)
    with pytest.raises(ValueError):
        QQi(float("nan"))


def test_qnum_small_values():
    # [0]=0, [1]=1, [2]=q+1/q, [-1]=-1, [3]=q^2+1+q^-2
    assert Scalar.qnum(0).is_zero()
    assert Scalar.qnum(1) == Scalar.from_rational(1)
    assert Scalar.qnum(-1) == Scalar.from_rational(-1)
    assert Scalar.qnum(2) == Scalar({2: 1, -2: 1})
    assert Scalar.qnum(3) == Scalar({4: 1, 0: 1, -4: 1})
    assert Scalar.qnum(-2) == -Scalar.qnum(2)


def test_qnum_matches_closed_form_numerically():
    q = 1.5
    for n in range(-8, 9):
        want = (q ** n - q ** (-n)) / (q - 1 / q)
        got = Scalar.qnum(n).evaluate(q)
        assert got.imag == 0
        assert math.isclose(got.real, want, rel_tol=1e-13, abs_tol=1e-13)


def test_lam_localization_cancels():
    lam = LAM
    inv = Scalar.inv_lam()
    assert lam * inv == Scalar.from_rational(1)
    assert inv * lam * lam == lam
    # (q^n - q^-n)/lam normalizes to the polynomial [n]
    for n in range(1, 7):
        num = Scalar.q_power(n) - Scalar.q_power(-n)
        assert num * Scalar.inv_lam() == Scalar.qnum(n)


def test_lam_power_is_minimal():
    s = Scalar({0: 1}, lam=2)
    assert s.lam == 2
    t = s * LAM
    assert t.lam == 1
    assert t.num == {0: QQi(1, 0)}


def test_add_mixed_lam_denominators():
    # 1/lam + 1 = (1 + lam)/lam, and back
    x = Scalar.inv_lam() + Scalar.from_rational(1)
    assert x.lam == 1
    assert x - Scalar.from_rational(1) == Scalar.inv_lam()


def test_conj_is_antilinear_on_i():
    z = Scalar.i() * Scalar.s_power(3) + Scalar.from_rational(2)
    assert z.conj() == -Scalar.i() * Scalar.s_power(3) + Scalar.from_rational(2)
    assert (z * z.conj()).conj() == z * z.conj()


def test_evaluate_exact_even_powers():
    q = Fraction(3, 2)
    z = Scalar.q_power(2) - Scalar.q_power(-1) * Scalar.i()
    v = z.evaluate_exact(q)
    assert v.re == Fraction(9, 4)
    assert v.im == -Fraction(2, 3)
    with pytest.raises(ValueError):
        Scalar.s_power(1).evaluate_exact(q)


def test_evaluate_matches_exact():
    q = Fraction(3, 2)
    z = Scalar.qnum(4) * Scalar.inv_lam() + Scalar.i() * Scalar.q_power(-2)
    approx = z.evaluate(float(q))
    exact = z.evaluate_exact(q)
    assert math.isclose(approx.real, float(exact.re), rel_tol=1e-13)
    assert math.isclose(approx.imag, float(exact.im), rel_tol=1e-13)


def test_str_examples():
    assert str(Scalar()) == "0"
    assert str(Scalar.from_rational(-2)) == "-2"
    assert str(Scalar.qnum(2)) == "s^2 + s^-2"
    assert str(Scalar.i() * Scalar.s_power(1) * Scalar.inv_lam()) == "(i*s^1)/lam"
    assert str(Scalar({0: QQi(0, -1)}, lam=2)) == "(-1*i)/lam^2"


def test_qqi_str_in_scalar_grammar():
    assert [str(QQi(*c)) for c in [(0, 0), (Fraction(3, 2), 0), (0, -1),
                                   (0, 1), (Fraction(1, 2), 3), (-2, 5)]] \
        == ["0", "3/2", "-i", "i", "1/2 + 3*i", "-2 + 5*i"]
    # exact Laurent polynomials print their coefficients through it
    poly = LaurentPoly(QContext(Fraction(3, 2)),
                       {2: QQi(Fraction(1, 2), 3), 0: 1})
    assert str(poly) == "(1/2 + 3*i) x^2 + (1)"
