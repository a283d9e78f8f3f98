"""Exact coefficient arithmetic for the noncommutative normal-ordering kernel.

Two layers:

  * QQi       -- Gaussian rationals a + b*i; a component is an int while it
                 is integral and a Fraction otherwise.
  * Scalar    -- Laurent polynomials in s (s**2 = q) over QQi, divided by a
                 power of lam = q - 1/q = s**2 - s**-2.

Scalar is the coefficient ring of the ordered-monomial algebra.  Plain
normal ordering only ever produces Laurent polynomials in s; the momentum
closed form and the reduction it induces introduce 1/lam, and nothing else
does, so a single nonnegative lam power is kept as denominator.  The
representation is canonical: zero coefficients are stripped and the lam
power is lowered while the numerator divides exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction


class QQi:
    """Gaussian rational: re + im*i.

    Each component is an int while it is integral and a Fraction otherwise:
    normal ordering stays in Z[i], where int arithmetic is several times
    cheaper, and int and Fraction add, multiply, compare and hash as one
    number system.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _exact(re)
        self.im = im if type(im) is int else _exact(im)

    def __add__(self, other):
        other = _as_qqi(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qqi(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_qqi(other) - self

    def __mul__(self, other):
        other = _as_qqi(other)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qqi(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(Fraction(self.re * other.re + self.im * other.im) / d,
                   Fraction(self.im * other.re - self.re * other.im) / d)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def conj(self):
        return QQi(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QQi)):
            other = _as_qqi(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"


def _exact(v):
    """A QQi component: v as an exact rational, an int when integral."""
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _as_qqi(v):
    if isinstance(v, QQi):
        return v
    if isinstance(v, (int, Fraction)):
        return QQi(v, 0)
    raise TypeError(f"cannot coerce {type(v).__name__} to QQi")


QQI_ZERO = QQi(0, 0)
QQI_ONE = QQi(1, 0)
QQI_I = QQi(0, 1)

# lam = s^2 - s^-2 as a numerator dict
_LAM_NUM = {2: QQI_ONE, -2: QQi(-1, 0)}


def _divide_by_lam(num):
    """Exact Laurent division of num by s^2 - s^-2; None if not divisible."""
    if not num:
        return {}
    # f / (s^2 - s^-2) = f*s^2 / (s^4 - 1); shift to an ordinary polynomial
    shifted = {e + 2: c for e, c in num.items()}
    lo = min(shifted)
    poly = {e - lo: c for e, c in shifted.items()}
    deg = max(poly)
    quot = {}
    work = dict(poly)
    for e in range(deg, 3, -1):
        c = work.get(e)
        if c is None or c.is_zero():
            continue
        quot[e - 4] = c
        work.pop(e)
        prev = work.get(e - 4)
        r = c if prev is None else prev + c
        if r.is_zero():
            work.pop(e - 4, None)
        else:
            work[e - 4] = r
    if work:
        return None
    return {e + lo: c for e, c in quot.items()}


def _num_mul_lam(num, k):
    """Multiply a numerator dict by lam^k, k >= 0."""
    for _ in range(k):
        out = {}
        for e, c in num.items():
            for de, dc in _LAM_NUM.items():
                prod = c * dc
                prev = out.get(e + de)
                r = prod if prev is None else prev + prod
                if r.is_zero():
                    out.pop(e + de, None)
                else:
                    out[e + de] = r
        num = out
    return num


class Scalar:
    """Element (sum of c_k s^k) / lam^m with Gaussian-rational c_k, m >= 0."""

    __slots__ = ("num", "lam")

    def __init__(self, num=None, lam=0):
        num = {} if num is None else {e: v for e, c in num.items()
                                      if not (v := _as_qqi(c)).is_zero()}
        if lam < 0:
            raise ValueError("lam power must be nonnegative")
        while lam > 0 and num:
            reduced = _divide_by_lam(num)
            if reduced is None:
                break
            num = reduced
            lam -= 1
        if not num:
            lam = 0
        self.num = num
        self.lam = lam

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, v):
        return cls({0: QQi(v, 0)})

    @classmethod
    def from_qqi(cls, v):
        return cls({0: _as_qqi(v)})

    @classmethod
    def i(cls):
        return cls({0: QQI_I})

    @classmethod
    def s_power(cls, k):
        return cls({k: QQI_ONE})

    @classmethod
    def q_power(cls, n):
        return cls({2 * n: QQI_ONE})

    @classmethod
    def lam_poly(cls):
        return cls(dict(_LAM_NUM))

    @classmethod
    def inv_lam(cls):
        return cls({0: QQI_ONE}, lam=1)

    @classmethod
    def qnum(cls, n):
        """Symbolic [n] = (q^n - q^-n)/(q - q^-1), a Laurent polynomial."""
        if n == 0:
            return cls()
        sign = 1 if n > 0 else -1
        m = abs(n)
        # [m] = s^(2m-2) + s^(2m-6) + ... + s^(2-2m)
        terms = {2 * m - 2 - 4 * j: QQi(sign, 0) for j in range(m)}
        return cls(terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        m = max(self.lam, other.lam)
        a = _num_mul_lam(self.num, m - self.lam)
        b = _num_mul_lam(other.num, m - other.lam)
        out = dict(a)
        for e, c in b.items():
            prev = out.get(e)
            r = c if prev is None else prev + c
            if r.is_zero():
                out.pop(e, None)
            else:
                out[e] = r
        return Scalar(out, m)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_scalar(other))

    def __rsub__(self, other):
        return _as_scalar(other) + (-self)

    def __neg__(self):
        return Scalar({e: -c for e, c in self.num.items()}, self.lam)

    def __mul__(self, other):
        other = _as_scalar(other)
        out = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = e1 + e2
                prod = c1 * c2
                prev = out.get(e)
                r = prod if prev is None else prev + prod
                if r.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = r
        return Scalar(out, self.lam + other.lam)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation; s and lam are real and stay fixed."""
        return Scalar({e: c.conj() for e, c in self.num.items()}, self.lam)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        try:
            other = _as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.lam == other.lam and self.num == other.num

    def __hash__(self):
        return hash((self.lam, frozenset(self.num.items())))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, q):
        """Numeric value at real q > 1 (s = sqrt(q)), as a complex."""
        s = math.sqrt(float(q))
        acc = 0j
        for e, c in self.num.items():
            acc += complex(c) * s ** e
        lam = float(q) - 1.0 / float(q)
        return acc / lam ** self.lam

    def evaluate_exact(self, q):
        """Exact value at rational q as QQi; defined only for even s powers."""
        q = Fraction(q)
        acc = QQI_ZERO
        for e, c in self.num.items():
            if e % 2:
                raise ValueError("odd power of s has no exact rational value")
            acc = acc + c * (q ** (e // 2))
        lam = QQi(q - 1 / q, 0)
        for _ in range(self.lam):
            acc = acc / lam
        return acc

    # -- text form -------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e in sorted(self.num, reverse=True):
            c = self.num[e]
            for rat, tag in ((c.re, ""), (c.im, "i")):
                if rat == 0:
                    continue
                factors = []
                if rat != 1 or (not tag and e == 0):
                    factors.append(str(rat))
                if tag:
                    factors.append("i")
                if e:
                    factors.append(f"s^{e}")
                parts.append("*".join(factors) if factors else "1")
        body = " + ".join(parts)
        if self.lam == 0:
            return body
        suffix = "lam" if self.lam == 1 else f"lam^{self.lam}"
        return f"({body})/{suffix}"


def _as_scalar(v):
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar.from_rational(v)
    if isinstance(v, QQi):
        return Scalar.from_qqi(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


SCALAR_ZERO = Scalar()
SCALAR_ONE = Scalar.from_rational(1)


def parse_scalar(text):
    """Inverse of str(Scalar) for the golden-file grammar."""
    text = text.strip()
    if text == "0":
        return Scalar()
    lam = 0
    if text.startswith("(") and "/lam" in text:
        body, _, tail = text.rpartition("/lam")
        body = body.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ValueError(f"bad scalar text: {text!r}")
        body = body[1:-1]
        tail = tail.strip()
        if tail.startswith("^"):
            lam = int(tail[1:])
        elif tail == "":
            lam = 1
        else:
            raise ValueError(f"bad lam suffix: {text!r}")
        text = body
    num = {}
    for term in text.replace("- ", "+ -").split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        rat = Fraction(1)
        imag = False
        expo = 0
        for factor in term.split("*"):
            factor = factor.strip()
            if factor == "i":
                imag = True
            elif factor.startswith("s^"):
                expo = int(factor[2:])
            elif factor:
                rat = rat * Fraction(factor)
        if neg:
            rat = -rat
        c = num.get(expo, QQI_ZERO) + (QQi(0, rat) if imag else QQi(rat, 0))
        num[expo] = c
    return Scalar(num, lam)
