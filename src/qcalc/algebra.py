"""Normal-ordering kernel for the x, p, Lambda algebra.

Elements are stored as exact linear combinations of ordered monomials
x^a p^b L^c (b >= 0, L is the scale generator).  Products are normally
ordered with the rewrite rules

    p x^a   -> q^a x^a p - i q^(1/2) [a] x^(a-1) L        (any a in Z)
    L^c x^a -> q^(-c a) x^a L^c
    L^c p^b -> q^(c b)  p^b L^c

which are exact in the coefficient ring of scalars.py.  Every ordering
this module does reads one table: p^b x^a = sum_k C_k x^(a-k) p^(b-k) L^k,
built once per (b, a) one p at a time, with C_0 = q^(ab).  Products, bar
and moving L^k past a p power add only pure q-power phases, which are
shifts of a coefficient's lowest s power.  The momentum generator also has
a p-free closed form p = i q^(1/2) lam^-1 x^-1 (L - q^-1 L^-1), and
substituting it is a ring homomorphism onto the span of the x^a L^c; the
image of x^a p^b L^c is that form's b-th power shifted by (a, c).
Structural equality of stored forms is `same_stored`; `==` compares the
p-eliminated images, which is the equality under which bar is an involution.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import QQI_I, Scalar, _as_scalar

_MINUS_I_ROOT_Q = Scalar({1: -QQI_I})  # -i q^(1/2)


class InternalOrderingError(Exception):
    """An ordered product fell outside the pattern it must match."""


def _merge(terms, key, scalar):
    cur = terms.get(key)
    cur = scalar if cur is None else cur + scalar
    if cur.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = cur


class AlgebraElement:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        for (a, b, c), coeff in (terms or {}).items():
            if b < 0:
                raise ValueError("negative power of p is not representable")
            coeff = _as_scalar(coeff)
            if not coeff.is_zero():
                _merge(out, (a, b, c), coeff)
        self.terms = out

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls):
        return cls({(0, 0, 0): Scalar.from_rational(1)})

    @classmethod
    def x(cls, n=1):
        return cls({(n, 0, 0): Scalar.from_rational(1)})

    @classmethod
    def p(cls, n=1):
        return cls({(0, n, 0): Scalar.from_rational(1)})

    @classmethod
    def L(cls, n=1):
        return cls({(0, 0, n): Scalar.from_rational(1)})

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            _merge(out, key, c)
        e = AlgebraElement.__new__(AlgebraElement)
        e.terms = out
        return e

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        e = AlgebraElement.__new__(AlgebraElement)
        e.terms = {k: -c for k, c in self.terms.items()}
        return e

    def scale(self, s):
        if not isinstance(s, Scalar):
            s = Scalar.from_rational(s)
        out = {}
        for key, c in self.terms.items():
            _merge(out, key, c * s)
        e = AlgebraElement.__new__(AlgebraElement)
        e.terms = out
        return e

    def is_zero(self):
        return not self.terms

    def same_stored(self, other):
        """Equality of stored normally-ordered forms."""
        return self.terms == other.terms

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.terms == other.terms:
            return True
        # reduce_p is linear, so this is reduce_p(self) == reduce_p(other)
        return reduce_p(self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        return f"AlgebraElement<{format_element(self)}>"


# The ordering table and the powers of the momentum closed form are bounded
# LRUs, larger than what one default verify-algebra run fills (72 and 5
# entries), so that run never evicts.  Callers only read the cached
# results.  The _*_CACHE names give each table's cache_info() and
# cache_clear(); products and bar share the ordering table.


@lru_cache(maxsize=1 << 12)
def _ordering(b, a):
    """p^b x^a past its leading term: ((k, C_k), ...) over k >= 1 with

        p^b x^a = q^(ab) x^a p^b + sum_k C_k x^(a-k) p^(b-k) L^k,

    built one p at a time from p^(b-1) x^a by the rewrite rules.
    """
    if not b:
        return ()
    prev = {0: Scalar.q_power(a * (b - 1)), **dict(_ordering(b - 1, a))}
    out = {}
    for k, c in prev.items():
        # p x^(a-k) p^(b-1-k) L^k, where L p^(b-1-k) = q^(b-1-k) p^(b-1-k) L
        if k:
            _merge(out, k, c.shift(2 * (a - k)))
        if a != k:
            _merge(out, k + 1, _MINUS_I_ROOT_Q * Scalar.qnum(a - k)
                   * c.shift(2 * (b - 1 - k)))
    return tuple(sorted(out.items()))


_MONO_CACHE = _BAR_CACHE = _ordering


def multiply(lhs, rhs):
    """Normally-ordered product, bilinear and exact.

    (x^a1 p^b1 L^c1)(x^a2 p^b2 L^c2) = q^(c1(b2-a2)) x^a1 [p^b1 x^a2] p^b2
    L^(c1+c2), and L^k moves past p^b2 at the cost of q^(k b2).
    """
    out = {}
    for (a1, b1, c1), s1 in lhs.terms.items():
        for (a2, b2, c2), s2 in rhs.terms.items():
            s = (s1 * s2).shift(2 * c1 * (b2 - a2))
            a, b, c = a1 + a2, b1 + b2, c1 + c2
            _merge(out, (a, b, c), s.shift(2 * a2 * b1))
            if b1:
                for k, ck in _ordering(b1, a2):
                    _merge(out, (a - k, b - k, c + k),
                           (ck * s).shift(2 * k * b2))
    e = AlgebraElement.__new__(AlgebraElement)
    e.terms = out
    return e


def bar(e):
    """Antilinear product-reversing conjugation: x, p fixed, L -> L^-1.

    bar(x^a p^b L^c) = L^-c p^b x^a, and L^-c moves past every term of
    p^b x^a at the cost of q^(c(a-b)).
    """
    out = {}
    for (a, b, c), s in e.terms.items():
        s = s.conj().shift(2 * c * (a - b))
        _merge(out, (a, b, -c), s.shift(2 * a * b))
        for k, ck in _ordering(b, a):
            _merge(out, (a - k, b - k, k - c), ck * s)
    r = AlgebraElement.__new__(AlgebraElement)
    r.terms = out
    return r


def p_closed_form():
    """p as i q^(1/2) lam^-1 x^-1 (L - q^-1 L^-1), normally ordered."""
    return AlgebraElement({
        (-1, 0, 1): Scalar({1: QQI_I}, lam=1),
        (-1, 0, -1): Scalar({-1: -QQI_I}, lam=1),
    })


@lru_cache(maxsize=1 << 8)
def _p_power(b):
    """p_closed_form() ** b, a combination of the x^a L^c."""
    if not b:
        return AlgebraElement.one()
    return multiply(_p_power(b - 1), p_closed_form())


_REDUCE_CACHE = _p_power


def reduce_p(e):
    """Image of e under the substitution p -> p_closed_form().

    The image of x^a p^b L^c is x^a P^b L^c for P = p_closed_form(): P^b
    with every exponent pair shifted by (a, c) and no phase.  The result
    has no p factors; two elements are equal in the involutive algebra
    exactly when their reduced forms coincide as stored maps.
    """
    out = {}
    for (a, b, c), s in e.terms.items():
        for (a2, _, c2), s2 in _p_power(b).terms.items():
            _merge(out, (a + a2, 0, c + c2), s * s2)
    r = AlgebraElement.__new__(AlgebraElement)
    r.terms = out
    return r


def extract_nabla_L(f):
    """Split the ordered products p*f and L*f into field-valued pieces.

    f is a map {n: coefficient} for a Laurent polynomial in x (or an
    AlgebraElement supported on x powers).  The ordered product has the
    shape p*f = g(x) p - i q^(1/2) h(x) L and L*f = j(x) L; returns
    (h, g, j) as maps {n: Scalar}.  h is the q-derivative of f and j its
    rescaling by 1/q per degree.
    """
    if isinstance(f, AlgebraElement):
        felem = f
    else:
        felem = AlgebraElement({(n, 0, 0): c for n, c in f.items()})
    for (a, b, c) in felem.terms:
        if b or c:
            raise InternalOrderingError("input is not a field in x alone")
    pf = multiply(AlgebraElement.p(), felem)
    h, g = {}, {}
    minus_i_rootq_inv = Scalar({-1: QQI_I})  # 1 / (-i q^(1/2))
    for (a, b, c), s in pf.terms.items():
        if b == 1 and c == 0:
            g[a] = s
        elif b == 0 and c == 1:
            h[a] = s * minus_i_rootq_inv
        else:
            raise InternalOrderingError(f"unexpected monomial x^{a} p^{b} L^{c}")
    lf = multiply(AlgebraElement.L(), felem)
    j = {}
    for (a, b, c), s in lf.terms.items():
        if b == 0 and c == 1:
            j[a] = s
        else:
            raise InternalOrderingError(f"unexpected monomial x^{a} p^{b} L^{c}")
    return h, g, j


# -- text form ------------------------------------------------------------


def format_element(e):
    """Canonical text: `(coeff) x^a p^b L^c + ...`, monomials sorted."""
    if not e.terms:
        return "(0)"
    parts = []
    for key in sorted(e.terms):
        a, b, c = key
        s = e.terms[key]
        factors = [f"({s})"]
        if a:
            factors.append(f"x^{a}")
        if b:
            factors.append(f"p^{b}")
        if c:
            factors.append(f"L^{c}")
        parts.append(" ".join(factors))
    return " + ".join(parts)
