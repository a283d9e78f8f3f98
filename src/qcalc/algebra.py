"""Normal-ordering kernel for the x, p, Lambda algebra.

Elements are stored as exact linear combinations of ordered monomials
x^a p^b L^c (b >= 0, L is the scale generator).  Products are normally
ordered with the rewrite rules

    p x^a   -> q^a x^a p - i q^(1/2) [a] x^(a-1) L        (any a in Z)
    L^c x^a -> q^(-c a) x^a L^c
    L^c p^b -> q^(c b)  p^b L^c

which are exact in the coefficient ring of scalars.py.  The momentum
generator also has a p-free closed form p = i q^(1/2) lam^-1 x^-1 (L - q^-1 L^-1),
and substituting it is a ring homomorphism onto the span of the x^a L^c.
Structural equality of stored forms is `same_stored`; `==` compares the
p-eliminated images, which is the equality under which bar is an involution.
"""

from __future__ import annotations

from .scalars import QQI_I, Scalar, _as_scalar, parse_scalar

_MINUS_I_ROOT_Q = Scalar({1: -QQI_I})  # -i q^(1/2)

Mono = tuple  # (a, b, c) exponents of x^a p^b L^c


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
    def zero(cls):
        return cls()

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
        return reduce_p(self).terms == reduce_p(other).terms

    __hash__ = None

    def __repr__(self):
        return f"AlgebraElement<{format_element(self)}>"


def _push_p_once(terms):
    """Left-multiply an ordered term dict by p."""
    out = {}
    for (a, b, c), s in terms.items():
        _merge(out, (a, b + 1, c), Scalar.q_power(a) * s)
        coeff = _MINUS_I_ROOT_Q * Scalar.qnum(a) * Scalar.q_power(b) * s
        _merge(out, (a - 1, b, c + 1), coeff)
    return out


_MONO_CACHE = {}


def _mono_product(m1, m2):
    """Ordered product of two monomials, as a term dict.

    Cached; callers only read the result.
    """
    hit = _MONO_CACHE.get((m1, m2))
    if hit is not None:
        return hit
    a1, b1, c1 = m1
    a2, b2, c2 = m2
    phase = Scalar.q_power(-c1 * a2 + c1 * b2)
    terms = {(a2, b2, 0): phase}
    for _ in range(b1):
        terms = _push_p_once(terms)
    out = {}
    for (a, b, c), s in terms.items():
        _merge(out, (a1 + a, b, c + c1 + c2), s)
    _MONO_CACHE[(m1, m2)] = out
    return out


def multiply(lhs, rhs):
    """Normally-ordered product, bilinear and exact."""
    out = {}
    for m1, c1 in lhs.terms.items():
        for m2, c2 in rhs.terms.items():
            c = c1 * c2
            for key, s in _mono_product(m1, m2).items():
                _merge(out, key, s * c)
    e = AlgebraElement.__new__(AlgebraElement)
    e.terms = out
    return e


_BAR_CACHE = {}


def bar(e):
    """Antilinear product-reversing conjugation: x, p fixed, L -> L^-1."""
    out = AlgebraElement.zero()
    for (a, b, c), s in e.terms.items():
        rev = _BAR_CACHE.get((a, b, c))
        if rev is None:
            rev = multiply(AlgebraElement.L(-c),
                           multiply(AlgebraElement.p(b), AlgebraElement.x(a)))
            _BAR_CACHE[(a, b, c)] = rev
        out = out + rev.scale(s.conj())
    return out


def p_closed_form():
    """p as i q^(1/2) lam^-1 x^-1 (L - q^-1 L^-1), normally ordered."""
    return AlgebraElement({
        (-1, 0, 1): Scalar({1: QQI_I}, lam=1),
        (-1, 0, -1): Scalar({-1: -QQI_I}, lam=1),
    })


_P_SUBST = None
_REDUCE_CACHE = {}


def _reduce_mono(key):
    """Reduced form of a single ordered monomial, cached."""
    global _P_SUBST
    hit = _REDUCE_CACHE.get(key)
    if hit is not None:
        return hit
    if _P_SUBST is None:
        _P_SUBST = p_closed_form()
    a, b, c = key
    if b == 0:
        out = {key: Scalar.from_rational(1)}
    else:
        head = AlgebraElement({(a, b - 1, 0): Scalar.from_rational(1)})
        tail = multiply(_P_SUBST, AlgebraElement.L(c))
        out = {}
        for key2, s2 in multiply(head, tail).terms.items():
            for key3, s3 in _reduce_mono(key2).items():
                _merge(out, key3, s2 * s3)
    _REDUCE_CACHE[key] = out
    return out


def reduce_p(e):
    """Image of e under the substitution p -> p_closed_form().

    The result has no p factors; two elements are equal in the involutive
    algebra exactly when their reduced forms coincide as stored maps.
    """
    out = {}
    for key, s in e.terms.items():
        for key2, s2 in _reduce_mono(key).items():
            _merge(out, key2, s * s2)
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


def parse_element(text):
    """Inverse of format_element."""
    text = text.strip()
    terms = {}
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos] != "(":
            raise ValueError(f"expected '(' at {pos} in {text!r}")
        depth = 0
        j = pos
        while j < n:
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            raise ValueError(f"unbalanced parens in {text!r}")
        coeff_body = text[pos + 1:j]
        j += 1
        # lam denominator may follow the closing paren of the scalar
        if text[j:j + 4] == "/lam":
            j += 4
            if j < n and text[j] == "^":
                j += 1
                k = j
                while k < n and (text[k].isdigit()):
                    k += 1
                coeff = parse_scalar(f"({coeff_body})/lam^{text[j:k]}")
                j = k
            else:
                coeff = parse_scalar(f"({coeff_body})/lam")
        else:
            coeff = parse_scalar(coeff_body)
        nxt = text.find(" + ", j)
        chunk = text[j:nxt if nxt != -1 else n]
        a = b = c = 0
        for tok in chunk.split():
            gen, _, expo = tok.partition("^")
            expo = int(expo)
            if gen == "x":
                a = expo
            elif gen == "p":
                b = expo
            elif gen == "L":
                c = expo
            else:
                raise ValueError(f"bad factor {tok!r}")
        _merge(terms, (a, b, c), coeff)
        pos = nxt + 3 if nxt != -1 else n
    return AlgebraElement(terms)
