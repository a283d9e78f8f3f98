"""Normal-ordering kernel: rewrite rules, involution, momentum closed form."""

import random
from fractions import Fraction

import pytest

from qcalc import algebra
from qcalc.algebra import (
    AlgebraElement,
    InternalOrderingError,
    bar,
    extract_nabla_L,
    format_element,
    multiply,
    p_closed_form,
    reduce_p,
)
from qcalc.batteries import rand_element
from qcalc.batteries import run as run_battery
from qcalc.scalars import QQI_I, QQi, Scalar

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


def test_equality_matches_the_two_sided_reduction_random():
    # == reduces the difference once; reducing each side must agree
    rng = random.Random(20261018)
    gap = P() - p_closed_form()
    equal_after_reduction = unequal = 0
    for k in range(40):
        a = rand_element(rng, max_terms=4, span=3)
        if k % 2:
            # a multiple of p - p_closed_form() reduces to zero
            b = a + multiply(multiply(rand_element(rng), gap),
                             rand_element(rng))
        else:
            b = rand_element(rng, max_terms=4, span=3)
        two_sided = reduce_p(a).same_stored(reduce_p(b))
        assert (a == b) is two_sided and (b == a) is two_sided
        if two_sided and not a.same_stored(b):
            equal_after_reduction += 1
        unequal += not two_sided
    assert equal_after_reduction >= 15 and unequal >= 15


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


# -- text form --------------------------------------------------------------


def test_format_examples():
    e = AlgebraElement({(1, 1, 0): Scalar.q_power(1),
                        (0, 0, 1): -I * ROOT_Q})
    assert format_element(e) == "(-1*i*s^1) L^1 + (s^2) x^1 p^1"
    assert format_element(AlgebraElement()) == "(0)"


# -- caches -----------------------------------------------------------------


def test_caches_are_bounded_and_hold_one_default_battery():
    caches = (algebra._MONO_CACHE, algebra._REDUCE_CACHE, algebra._BAR_CACHE)
    for cache in caches:
        cache.cache_clear()
    run_battery("verify-algebra", {})
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None
        assert info.currsize == info.misses  # nothing was evicted


def test_cache_clear_leaves_every_algebra_memo_cold():
    # every CLI run, and every exact-ring bench session, starts cold
    memos = [v for k, v in vars(algebra).items() if not k.startswith("__")
             and (hasattr(v, "cache_info") or isinstance(v, dict))]
    tables = [m for m in memos if hasattr(m, "cache_info")]
    e = AlgebraElement({(1, 2, -1): Scalar.from_rational(3)})
    for op in (lambda: multiply(e, e), lambda: bar(e), lambda: reduce_p(e)):
        for cache in (algebra._MONO_CACHE, algebra._REDUCE_CACHE,
                      algebra._BAR_CACHE):
            cache.cache_clear()
        for memo in memos:
            assert (memo.cache_info().currsize if memo in tables
                    else len(memo)) == 0
        op()
        assert sum(m.cache_info().misses for m in tables) > 0


# -- reference ordering -------------------------------------------------------


MINUS_I_ROOT_Q = -I * ROOT_Q


def _ref_push_p_once(terms):
    """Left-multiply an ordered term dict by p, one rewrite at a time."""
    out = {}
    for (a, b, c), s in terms.items():
        _ref_merge(out, (a, b + 1, c), Scalar.q_power(a) * s)
        _ref_merge(out, (a - 1, b, c + 1),
                   MINUS_I_ROOT_Q * Scalar.qnum(a) * Scalar.q_power(b) * s)
    return out


def _ref_merge(terms, key, s):
    s = terms.pop(key, Scalar()) + s
    if not s.is_zero():
        terms[key] = s


def _ref_multiply(lhs, rhs):
    out = {}
    for (a1, b1, c1), s1 in lhs.terms.items():
        for (a2, b2, c2), s2 in rhs.terms.items():
            terms = {(a2, b2, 0): Scalar.q_power(c1 * (b2 - a2)) * s1 * s2}
            for _ in range(b1):
                terms = _ref_push_p_once(terms)
            for (a, b, c), s in terms.items():
                _ref_merge(out, (a1 + a, b, c + c1 + c2), s)
    return AlgebraElement(out)


def _ref_bar(e):
    out = AlgebraElement()
    for (a, b, c), s in e.terms.items():
        mono = _ref_multiply(L(-c), _ref_multiply(P(b), X(a)))
        out = out + mono.scale(s.conj())
    return out


def _ref_reduce(e, p_powers):
    """x^a p^b L^c -> x^a P^b L^c, P = p_closed_form(), by products."""
    out = AlgebraElement()
    for (a, b, c), s in e.terms.items():
        image = _ref_multiply(_ref_multiply(X(a), p_powers[b]), L(c))
        out = out + image.scale(s)
    return out


def test_products_bar_and_reduction_match_one_p_at_a_time_ordering():
    p_powers = [ONE]
    for _ in range(8):
        p_powers.append(_ref_multiply(p_powers[-1], p_closed_form()))
    rng = random.Random(31)
    top_p = low_x = 0
    for _ in range(30):
        a = rand_element(rng, max_terms=5, span=4)
        b = rand_element(rng, max_terms=5, span=4)
        ab = multiply(a, b)
        assert ab.same_stored(_ref_multiply(a, b))
        for e in (a, ab):
            assert bar(e).same_stored(_ref_bar(e))
            assert reduce_p(e).same_stored(_ref_reduce(e, p_powers))
        top_p = max(top_p, *(k[1] for k in ab.terms))
        low_x = min(low_x, *(k[0] for k in ab.terms))
    assert top_p == 8 and low_x < 0


@pytest.mark.parametrize("v", [
    Scalar.from_rational(1),
    Scalar({-3: 2, 1: QQI_I, 4: -7}),
    Scalar({0: Fraction(1, 3), 2: QQi(Fraction(5, 6), -1)}),
    Scalar({1: QQI_I}, lam=1),
    Scalar({-1: 3, 5: QQi(0, Fraction(2, 9))}, lam=3),
    Scalar({0: 1 << 70, 3: -(1 << 90)}),  # a digit wider than 64 bits
    Scalar(),
])
def test_shift_is_multiplication_by_a_power_of_s(v):
    for k in range(-9, 10):
        want = v * Scalar.s_power(k)
        got = v.shift(k)
        assert got == want and hash(got) == hash(want)
