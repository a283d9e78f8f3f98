"""Properties of the Kronecker-packed coefficient ring.

Values are drawn as {s power: Gaussian rational} maps over a lam power and
checked against exact and floating evaluation, so the packed arithmetic is
tested against the ring it represents rather than against its own layout.
"""

import copy
import math
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.scalars import QQi, Scalar

LAM = Scalar.q_power(1) - Scalar.q_power(-1)
Q_EXACT = Fraction(3, 2)
Q_FLOAT = 1.7

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

small = st.integers(-9, 9)
rational = st.one_of(small, st.fractions(-9, 9, max_denominator=4))


def scalars(exponents=st.integers(-6, 6), parts=small, max_lam=2):
    coeff = st.builds(QQi, parts, parts)
    return st.builds(Scalar, st.dictionaries(exponents, coeff, max_size=5),
                     st.integers(0, max_lam))


even = scalars(exponents=st.integers(-3, 3).map(lambda k: 2 * k))
with_fractions = scalars(parts=rational)
huge = scalars(exponents=st.integers(-3, 3).map(lambda k: 2 * k),
               parts=st.integers(-2 ** 200, 2 ** 200), max_lam=1)


def exact(z):
    return z.evaluate_exact(Q_EXACT)


def close(z, w):
    scale = max(1.0, abs(z), abs(w))
    return abs(z - w) <= 1e-9 * scale


@PROPERTY
@given(even, even, even)
def test_ring_axioms_hold_exactly(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Scalar() == a and a * Scalar.from_rational(1) == a
    assert (a - a).is_zero() and (a * Scalar()).is_zero()
    assert -(-a) == a and a.conj().conj() == a


@PROPERTY
@given(even, even)
def test_ring_operations_agree_with_exact_evaluation(a, b):
    assert exact(a + b) == exact(a) + exact(b)
    assert exact(a * b) == exact(a) * exact(b)
    assert exact(a - b) == exact(a) - exact(b)
    assert exact(a.conj()) == exact(a).conj()


@PROPERTY
@given(scalars(), scalars())
def test_ring_operations_agree_with_float_evaluation(a, b):
    va, vb = a.evaluate(Q_FLOAT), b.evaluate(Q_FLOAT)
    assert close((a + b).evaluate(Q_FLOAT), va + vb)
    assert close((a * b).evaluate(Q_FLOAT), va * vb)


@PROPERTY
@given(scalars(), scalars(), scalars())
def test_equal_values_by_different_routes_hash_equal(a, b, c):
    routes = [
        (a * b) * c + a,
        a * (c * b) + a,
        a * (b * c + Scalar.from_rational(1)),
        (a * LAM) * (b * c + Scalar.from_rational(1))
        * Scalar.inv_lam(),
    ]
    first = routes[0]
    routes.append(Scalar(first.num, first.lam) + Scalar())
    for z in routes[1:]:
        assert z == first and hash(z) == hash(first)
        assert z.lam == first.lam and z.num == first.num


@PROPERTY
@given(scalars(), st.integers(1, 3))
def test_lam_multiply_then_divide_round_trips(a, k):
    lam, inv = LAM, Scalar.inv_lam()
    up = a
    for _ in range(k):
        up = up * lam
    down = up
    for _ in range(k):
        down = down * inv
    assert down == a and hash(down) == hash(a)
    if not a.is_zero():
        assert up.lam == max(a.lam - k, 0)


@PROPERTY
@given(scalars(max_lam=0), st.integers(1, 3))
def test_numerator_not_divisible_by_lam_keeps_its_lam_power(a, k):
    # the numerator is divisible by lam = s^-2 (s^4 - 1) exactly when its
    # coefficient sums over each exponent class mod 4 vanish
    sums = [sum((c for e, c in a.num.items() if e % 4 == r), QQi())
            for r in range(4)]
    z = Scalar(a.num, k)
    if a.is_zero():
        assert z.is_zero() and z.lam == 0
    elif any(not s.is_zero() for s in sums):
        assert z.lam == k and z.num == a.num
    else:
        assert z.lam < k


def test_lam_division_reads_the_quotient():
    # (q^3 - q^-3)/lam = [3] = q^2 + 1 + q^-2
    z = Scalar({6: 1, -6: -1}, lam=1)
    assert z.lam == 0 and z.num == {4: QQi(1), 0: QQi(1), -4: QQi(1)}
    assert z == Scalar.qnum(3)
    # s^4 + 1 is not a multiple of s^4 - 1
    assert Scalar({4: 1, 0: 1}, lam=1).lam == 1


@PROPERTY
@given(huge, huge, even)
def test_wide_coefficients_stay_exact(a, b, c):
    for z in (a + b, a * b, a * c, (a + c) * (b - c)):
        assert Scalar(z.num, z.lam) == z
    assert exact(a * b) == exact(a) * exact(b)
    assert exact(a + c) == exact(a) + exact(c)
    assert (a + c) - a == c and hash((a + c) - a) == hash(c)
    assert (a * b) * c == a * (b * c)


def test_wide_slot_is_taken_and_left():
    big = Scalar({0: 2 ** 200, 5: -(2 ** 200) + 3})
    assert big._w > 64
    assert big.num == {0: QQi(2 ** 200), 5: QQi(-(2 ** 200) + 3)}
    narrow = (big + Scalar.from_rational(7)) - big
    assert narrow == Scalar.from_rational(7)
    assert hash(narrow) == hash(Scalar.from_rational(7))
    assert narrow._w == 64
    square = big * big
    assert square.num[0] == QQi(2 ** 400)
    assert square.num[10] == QQi((2 ** 200 - 3) ** 2)


def test_sums_at_the_edge_of_the_narrow_slot():
    edge = Scalar({0: 2 ** 62})  # the largest 1-norm a 64-bit slot holds
    assert edge._w == 64
    for z, want in ((edge + edge, 2 ** 63), (-edge - edge, -(2 ** 63)),
                    (edge * 2 + edge, 3 * 2 ** 62)):
        assert z.num == {0: QQi(want)} and z == Scalar({0: want})


def test_lam_quotient_can_outgrow_its_numerator():
    # c (s^12 - 1)/lam = c (s^10 + s^6 + s^2): the 1-norm goes from 2c to 3c
    c = 2 ** 61
    z = Scalar({12: c, 0: -c}, lam=1)
    assert z.lam == 0 and z.num == {10: QQi(c), 6: QQi(c), 2: QQi(c)}
    assert Scalar(z.num) == z and hash(Scalar(z.num)) == hash(z)


def test_growth_past_the_narrow_slot_is_exact():
    # repeated squaring takes the 1-norm through several slot widths
    z = Scalar({0: 3, 2: -1, 4: QQi(0, 2)}, lam=1)
    want = exact(z)
    for _ in range(7):
        z, want = z * z, want * want
        assert exact(z) == want and Scalar(z.num, z.lam) == z
    norm = sum(abs(c.re) + abs(c.im) for c in z.num.values())
    assert norm > 2 ** 64 and z._w > 64


def test_denominator_cancels_to_canonical_form():
    half = Scalar({2: Fraction(1, 2), 0: QQi(0, Fraction(1, 2))})
    assert half.num == {2: QQi(Fraction(1, 2)), 0: QQi(0, Fraction(1, 2))}
    assert half * 2 == Scalar({2: 1, 0: QQi(0, 1)})
    assert hash(half * 2) == hash(Scalar({2: 1, 0: QQi(0, 1)}))
    assert half + half == half * 2
    third = Scalar({0: Fraction(1, 3)}, lam=1)
    assert third * 3 == Scalar.inv_lam()
    assert (half * third).num == {2: QQi(Fraction(1, 6)),
                                  0: QQi(0, Fraction(1, 6))}


def test_copies_and_pickles_are_equal_values():
    for z in (Scalar.qnum(2), Scalar(), Scalar({0: 2 ** 200}, lam=1)):
        for twin in (copy.copy(z), copy.deepcopy(z),
                     pickle.loads(pickle.dumps(z))):
            assert twin == z and hash(twin) == hash(z)
    assert Scalar().is_zero() and str(Scalar()) == "0"


def test_num_is_a_fresh_view():
    z = Scalar.qnum(2)
    view = z.num
    view[0] = QQi(5)
    assert z == Scalar({2: 1, -2: 1}) and 0 not in z.num


@PROPERTY
@given(scalars(max_lam=0))
def test_evaluate_is_the_correctly_rounded_sum(a):
    s = math.sqrt(Q_FLOAT)
    terms = {e: (float(c.re) * s ** e, float(c.im) * s ** e)
             for e, c in a.num.items()}
    got = a.evaluate(Q_FLOAT)
    assert got.real == float(sum(Fraction(t[0]) for t in terms.values()))
    assert got.imag == float(sum(Fraction(t[1]) for t in terms.values()))
