"""Normal-ordering kernel: rewrite rules, involution, momentum closed form."""

import random

import pytest

from qcalc.algebra import (
    AlgebraElement,
    InternalOrderingError,
    bar,
    extract_nabla_L,
    format_element,
    multiply,
    p_closed_form,
    parse_element,
    reduce_p,
)
from qcalc.batteries import rand_element
from qcalc.scalars import QQI_I, Scalar

X = AlgebraElement.x
P = AlgebraElement.p
L = AlgebraElement.L
ONE = AlgebraElement.one()
I = Scalar.i()
ROOT_Q = Scalar.s_power(1)


# -- frozen rewrite rules ---------------------------------------------------


def test_p_times_x_stored_form():
    want = AlgebraElement({(1, 1, 0): Scalar.q_power(1),
                           (0, 0, 1): -I * ROOT_Q})
    assert multiply(P(), X()).same_stored(want)


def test_L_times_x_stored_form():
    want = AlgebraElement({(1, 0, 1): Scalar.q_power(-1)})
    assert multiply(L(), X()).same_stored(want)


def test_p_times_x_inverse_stored_form():
    want = AlgebraElement({(-1, 1, 0): Scalar.q_power(-1),
                           (-2, 0, 1): I * ROOT_Q})
    assert multiply(P(), X(-1)).same_stored(want)


def test_p_x_inverse_rule_multiplies_back():
    assert multiply(multiply(P(), X(-1)), X()).same_stored(P())


def test_inverse_pairs_cancel():
    assert multiply(X(), X(-1)).same_stored(ONE)
    assert multiply(X(-1), X()).same_stored(ONE)
    assert multiply(L(), L(-1)).same_stored(ONE)
    assert multiply(L(-1), L()).same_stored(ONE)


def test_defining_relation_normal_orders_to_iL():
    lhs = multiply(X(), P()).scale(ROOT_Q) - multiply(P(), X()).scale(
        Scalar.s_power(-1))
    assert lhs.same_stored(AlgebraElement({(0, 0, 1): I}))


def test_conjugate_relation_reduces_to_minus_iL_inverse():
    lhs = multiply(P(), X()).scale(ROOT_Q) - multiply(X(), P()).scale(
        Scalar.s_power(-1))
    want = AlgebraElement({(0, 0, -1): -I})
    assert not lhs.same_stored(want)  # distinct as stored forms
    assert lhs == want                # equal after eliminating p


# -- bar ----------------------------------------------------------------


def test_bar_generators():
    assert bar(X()) == X()
    assert bar(P()) == P()
    assert bar(L()).same_stored(L(-1))
    assert bar(ONE.scale(I)).same_stored(ONE.scale(-I))


def test_bar_of_relation_gives_conjugate_relation():
    rel = multiply(X(), P()).scale(ROOT_Q) \
        - multiply(P(), X()).scale(Scalar.s_power(-1)) \
        - AlgebraElement({(0, 0, 1): I})
    flipped = multiply(P(), X()).scale(ROOT_Q) \
        - multiply(X(), P()).scale(Scalar.s_power(-1)) \
        + AlgebraElement({(0, 0, -1): I})
    assert bar(rel) == flipped


def test_bar_involution_and_antihomomorphism_random():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_element(rng)
        b = rand_element(rng)
        assert bar(bar(a)) == a
        assert bar(multiply(a, b)) == multiply(bar(b), bar(a))


def test_associativity_random():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_element(rng)
        b = rand_element(rng)
        c = rand_element(rng)
        assert multiply(multiply(a, b), c).same_stored(
            multiply(a, multiply(b, c)))


# -- momentum closed form ---------------------------------------------------


def test_p_closed_form_monomials():
    e = p_closed_form()
    assert set(e.terms) == {(-1, 0, 1), (-1, 0, -1)}
    assert e.terms[(-1, 0, 1)] == Scalar({1: QQI_I}, lam=1)
    assert e.terms[(-1, 0, -1)] == Scalar({-1: -QQI_I}, lam=1)


def test_x_times_p_closed_form():
    want = AlgebraElement({(0, 0, 1): Scalar({1: QQI_I}, lam=1),
                           (0, 0, -1): Scalar({-1: -QQI_I}, lam=1)})
    assert multiply(X(), p_closed_form()).same_stored(want)


def test_p_closed_form_is_hermitian():
    assert bar(p_closed_form()).same_stored(p_closed_form())


def test_p_closed_form_equals_p_under_reduction():
    assert P() == p_closed_form()
    assert reduce_p(P()).same_stored(p_closed_form())


def test_closed_form_satisfies_defining_relation_without_p():
    pc = p_closed_form()
    lhs = multiply(X(), pc).scale(ROOT_Q) - multiply(pc, X()).scale(
        Scalar.s_power(-1))
    assert lhs.same_stored(AlgebraElement({(0, 0, 1): I}))


def test_reduce_is_multiplicative_random():
    rng = random.Random(23)
    for _ in range(30):
        a = rand_element(rng)
        b = rand_element(rng)
        lhs = reduce_p(multiply(a, b))
        rhs = multiply(reduce_p(a), reduce_p(b))
        assert lhs.same_stored(rhs)


# -- extraction of the derivative and scale action -------------------------


def test_extract_on_monomials():
    for n in range(-10, 11):
        h, g, j = extract_nabla_L({n: 1})
        want_h = {} if n == 0 else {n - 1: Scalar.qnum(n)}
        assert h == want_h
        assert g == {n: Scalar.q_power(n)}
        assert j == {n: Scalar.q_power(-n)}


def test_extract_on_constants_and_x_inverse():
    h, _, _ = extract_nabla_L({0: 5})
    assert h == {}
    h, _, _ = extract_nabla_L({-1: 1})
    assert h == {-2: Scalar.from_rational(-1)}


def test_extract_is_linear():
    h, g, j = extract_nabla_L({2: 3, -1: 7})
    assert h == {1: Scalar.qnum(2) * Scalar.from_rational(3),
                 -2: Scalar.from_rational(-7)}
    assert g == {2: Scalar.q_power(2) * Scalar.from_rational(3),
                 -1: Scalar.q_power(-1) * Scalar.from_rational(7)}
    assert j == {2: Scalar.q_power(-2) * Scalar.from_rational(3),
                 -1: Scalar.q_power(1) * Scalar.from_rational(7)}


def test_extract_rejects_non_fields():
    with pytest.raises(InternalOrderingError):
        extract_nabla_L(AlgebraElement({(0, 1, 0): Scalar.from_rational(1)}))


# -- text round trip -------------------------------------------------------


def test_format_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(50):
        e = rand_element(rng, max_terms=5, span=3)
        assert parse_element(format_element(e)).same_stored(e)


def test_format_examples():
    e = AlgebraElement({(1, 1, 0): Scalar.q_power(1),
                        (0, 0, 1): -I * ROOT_Q})
    assert format_element(e) == "(-1*i*s^1) L^1 + (s^2) x^1 p^1"
    assert format_element(AlgebraElement.zero()) == "(0)"
    assert parse_element("(0)").is_zero()
