"""Exact coefficient arithmetic for the noncommutative normal-ordering kernel.

Two layers:

  * QQi       -- Gaussian rationals a + b*i; a component is an int while it
                 is integral and a Fraction otherwise.  Used for input,
                 printing and the read-only `Scalar.num` view.
  * Scalar    -- Laurent polynomials in s (s**2 = q) over Q(i), divided by a
                 power of lam = q - 1/q = s**2 - s**-2.

Scalar is the coefficient ring of the ordered-monomial algebra.  Plain
normal ordering only ever produces Laurent polynomials in s; the momentum
closed form and the reduction it induces introduce 1/lam, and nothing else
does, so a single nonnegative lam power is kept as denominator.

Packed form.  A Scalar is (lo, re, im, den, lam): its value is

    sum_k (r_k + i m_k) s^(lo + k)  /  (den * lam^lam)

with integer coefficient lists r and m Kronecker-packed into one Python int
each, re = sum_k r_k B^k and im = sum_k m_k B^k, in balanced base B = 2^w
(every digit in [-B/2, B/2)).  The packed int is the polynomial evaluated
at s = B, so one big-integer operation does a whole polynomial operation:

  * a product is at most three big-int products (Gauss's trick);
  * a sum is one shift, to align the lowest powers, and one add;
  * multiplying by lam = s^-2 (s^4 - 1) is (F << 4w) - F with lo -= 2;
  * lam divides the numerator exactly when each part F has
    F % (B^4 - 1) == 0 (the four sums of the coefficients over the
    exponent classes mod 4 vanish), and then the quotient's digits are
    the quotient polynomial, with lo += 2.

Digits stay exact while they stay in their slot.  Every value carries an
integer bound `norm` on the 1-norm sum_k |r_k| + |m_k| of its numerator,
which bounds every digit of any product, sum or lam quotient built from
it; an operation whose bound leaves the slot runs at a wider width, and
its result is brought back to its canonical width from the exact 1-norm.

Canonical form, so that == and hash compare ints:

  * zero is lo = re = im = lam = 0, den = 1;
  * the lowest slot is nonzero in re or im (lo is the lowest power);
  * den > 0 shares no factor with all the numerator coefficients;
  * lam is minimal: with lam > 0 the numerator is not divisible by lam;
  * w is 64 while the exact 1-norm is at most 2^62, and otherwise the
    least multiple of 64 with 1-norm <= 2^(w - 2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


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
        # a real factor on either side takes two component products
        if isinstance(other, QQi):
            if not other.im:
                other = other.re
            elif not self.im:
                r = self.re
                return QQi(r * other.re, r * other.im)
            else:
                return QQi(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)
        elif not isinstance(other, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(other).__name__} to QQi")
        return QQi(self.re * other, self.im * other)

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

    def __str__(self):
        """Scalar's term grammar at s^0: 3/2, 1/2 + 3*i, -i, 0."""
        parts = [str(self.re)] if self.re else []
        if self.im:
            parts.append({1: "i", -1: "-i"}.get(self.im, f"{self.im}*i"))
        return " + ".join(parts) or "0"


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


# -- Kronecker packing ------------------------------------------------------

_W = 64  # the slot width of every value with 1-norm <= 2^62
_LIMIT = 1 << (_W - 2)
_S4_MINUS_1 = (1 << 4 * _W) - 1


def _width(norm):
    """Canonical slot width for a 1-norm (or a bound on it)."""
    if norm <= _LIMIT:
        return _W
    return _W * ((norm.bit_length() + _W + 1) // _W)


def _digits(f, w):
    """Balanced base-2^w digits of f, lowest first."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    while f:
        d = ((f + half) & mask) - half
        out.append(d)
        f = (f - d) >> w
    return out


def _pack(digits, w):
    f = 0
    for d in reversed(digits):
        f = (f << w) + d
    return f


def _at(x, w):
    """x's packed parts at slot width w >= x._w."""
    if x._w == w:
        return x._re, x._im
    return _pack(_digits(x._re, x._w), w), _pack(_digits(x._im, x._w), w)


def _settle(re, im, w):
    """Parts repacked at the canonical width of their exact 1-norm."""
    dr, di = _digits(re, w), _digits(im, w)
    norm = sum(map(abs, dr)) + sum(map(abs, di))
    w2 = _width(norm)
    if w2 != w:
        re, im = _pack(dr, w2), _pack(di, w2)
    return re, im, w2, norm


_new = object.__new__


def _make(lo, re, im, den, lam, w, norm):
    """The canonical Scalar of a numerator packed at width w.

    norm bounds the numerator's 1-norm and is at most 2^(w - 2), so every
    digit, every exponent-class sum and every lam-quotient digit is in its
    slot.
    """
    if not (re or im):
        return SCALAR_ZERO
    low = re | im
    if not low & ((1 << w) - 1):
        k = ((low & -low).bit_length() - 1) // w
        re >>= k * w
        im >>= k * w
        lo += k
    if den != 1:
        g = math.gcd(den, *_digits(re, w), *_digits(im, w))
        if g != 1:
            den //= g
            re //= g
            im //= g
    while lam:
        if norm > 1 << (w - 2):
            re, im, w, norm = _settle(re, im, w)
        s4 = (1 << 4 * w) - 1
        qr, rem = divmod(re, s4)
        if rem:
            break
        qi, rem = divmod(im, s4)
        if rem:
            break
        # each quotient digit is a partial sum over one exponent class
        # mod 4, so the 1-norm grows at most by the digits in a class
        per_class = (max(re.bit_length(), im.bit_length()) // w) // 4
        re, im, lo, lam = qr, qi, lo + 2, lam - 1
        norm *= per_class
    if w != _W or norm > _LIMIT:
        re, im, w, norm = _settle(re, im, w)
    return _raw(lo, re, im, den, lam, w, norm)


def _raw(lo, re, im, den, lam, w, norm):
    """A Scalar from parts already in canonical form."""
    x = _new(Scalar)
    x._lo, x._re, x._im, x._den, x.lam, x._w, x._norm = (
        lo, re, im, den, lam, w, norm)
    return x


def _integer_part(v, den):
    """v * den as an int, for a QQi component v with denominator | den."""
    if type(v) is int:
        return v * den
    return v.numerator * (den // v.denominator)


class Scalar:
    """Element (sum of c_k s^k) / lam^m with Gaussian-rational c_k, m >= 0.

    Construct from a map {s power: int, Fraction or QQi}; `num` reads the
    numerator back in that form.  Values are immutable.
    """

    __slots__ = ("_lo", "_re", "_im", "_den", "lam", "_w", "_norm")

    def __new__(cls, num=None, lam=0):
        if lam < 0:
            raise ValueError("lam power must be nonnegative")
        parts, den, norm = [], 1, 0
        for e, c in (num or {}).items():
            if type(c) is int:
                r, m = c, 0
            else:
                c = _as_qqi(c)
                r, m = c.re, c.im
                # a QQi component is an int or a non-integral Fraction
                for v in (r, m):
                    if type(v) is not int:
                        den = math.lcm(den, v.denominator)
            if r or m:
                parts.append((e, r, m))
                norm += abs(r) + abs(m)
        if not parts:
            return SCALAR_ZERO
        if den != 1:
            parts = [(e, _integer_part(r, den), _integer_part(m, den))
                     for e, r, m in parts]
            norm = sum(abs(r) + abs(m) for _, r, m in parts)
        w = _width(norm)
        lo = min(parts)[0]
        re = im = 0
        for e, r, m in parts:
            re += r << (e - lo) * w
            im += m << (e - lo) * w
        return _make(lo, re, im, den, lam, w, norm)

    def __reduce__(self):
        # copy and pickle rebuild the parts; Scalar() is the shared zero
        return _raw, (self._lo, self._re, self._im, self._den, self.lam,
                      self._w, self._norm)

    @property
    def num(self):
        """Read-only {s power: QQi} view of the numerator."""
        w, den = self._w, self._den
        out = {}
        for k, (r, m) in enumerate(zip_longest(
                _digits(self._re, w), _digits(self._im, w), fillvalue=0)):
            if r or m:
                out[self._lo + k] = (QQi(r, m) if den == 1 else
                                     QQi(Fraction(r, den), Fraction(m, den)))
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, v):
        return cls({0: v})

    @classmethod
    def i(cls):
        return _make(0, 0, 1, 1, 0, _W, 1)

    @classmethod
    def s_power(cls, k):
        return _make(k, 1, 0, 1, 0, _W, 1)

    @classmethod
    def q_power(cls, n):
        return _make(2 * n, 1, 0, 1, 0, _W, 1)

    @classmethod
    def inv_lam(cls):
        return _make(0, 1, 0, 1, 1, _W, 1)

    @classmethod
    def qnum(cls, n):
        """Symbolic [n] = (q^n - q^-n)/(q - q^-1), a Laurent polynomial."""
        m = abs(n)
        # [m] = s^(2m-2) + s^(2m-6) + ... + s^(2-2m): every fourth digit a 1
        ones = ((1 << 4 * _W * m) - 1) // _S4_MINUS_1
        return _make(2 - 2 * m, ones if n > 0 else -ones, 0, 1, 0, _W, m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _as_scalar(other)
        if not (other._re or other._im):
            return self
        if not (self._re or self._im):
            return other
        a, b = (self, other) if self.lam >= other.lam else (other, self)
        k = a.lam - b.lam
        den = a._den
        if den == b._den:
            fa = fb = 1
            norm = a._norm + (b._norm << k)
        else:
            den = math.lcm(den, b._den)
            fa, fb = den // a._den, den // b._den
            norm = a._norm * fa + (b._norm << k) * fb
        w = a._w
        if w == b._w == _W and norm <= _LIMIT:
            ar, ai, br, bi = a._re, a._im, b._re, b._im
        else:
            w = max(w, b._w, _width(norm))
            (ar, ai), (br, bi) = _at(a, w), _at(b, w)
        blo = b._lo
        for _ in range(k):
            # bring b over a's denominator: times lam = s^-2 (s^4 - 1)
            br = (br << 4 * w) - br
            bi = (bi << 4 * w) - bi
            blo -= 2
        if fa != 1:
            ar, ai = ar * fa, ai * fa
        if fb != 1:
            br, bi = br * fb, bi * fb
        lo = a._lo
        if lo > blo:
            ar <<= (lo - blo) * w
            ai <<= (lo - blo) * w
            lo = blo
        elif blo > lo:
            br <<= (blo - lo) * w
            bi <<= (blo - lo) * w
        return _make(lo, ar + br, ai + bi, den, a.lam, w, norm)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_scalar(other))

    def __rsub__(self, other):
        return _as_scalar(other) + (-self)

    def __neg__(self):
        return _raw(self._lo, -self._re, -self._im, self._den, self.lam,
                    self._w, self._norm)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _as_scalar(other)
        norm = self._norm * other._norm
        if not norm:
            return SCALAR_ZERO
        w = self._w
        if w == other._w == _W and norm <= _LIMIT:
            ar, ai, br, bi = self._re, self._im, other._re, other._im
        else:
            w = max(w, other._w, _width(norm))
            (ar, ai), (br, bi) = _at(self, w), _at(other, w)
        if not ai:
            re, im = ar * br, ar * bi
        elif not bi:
            re, im = ar * br, ai * br
        elif not ar:
            re, im = -ai * bi, ai * br
        elif not br:
            re, im = -ai * bi, ar * bi
        else:
            rr, ii = ar * br, ai * bi
            re, im = rr - ii, (ar + ai) * (br + bi) - rr - ii
        lo, den, lam = self._lo + other._lo, self._den * other._den, \
            self.lam + other.lam
        if lam or den != 1 or w != _W:
            return _make(lo, re, im, den, lam, w, norm)
        # canonical already: the lowest digit is a product of nonzero ones
        return _raw(lo, re, im, 1, 0, _W, norm)

    __rmul__ = __mul__

    def shift(self, k):
        """self * s^k: only the lowest power moves, and the form stays
        canonical."""
        if not k or not (self._re or self._im):
            return self
        return _raw(self._lo + k, self._re, self._im, self._den, self.lam,
                    self._w, self._norm)

    def conj(self):
        """Complex conjugation; s and lam are real and stay fixed."""
        return _raw(self._lo, self._re, -self._im, self._den, self.lam,
                    self._w, self._norm)

    def is_zero(self):
        return not (self._re or self._im)

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = _as_scalar(other)
            except TypeError:
                return NotImplemented
        return (self._re == other._re and self._im == other._im
                and self._lo == other._lo and self.lam == other.lam
                and self._den == other._den and self._w == other._w)

    def __hash__(self):
        return hash((self._lo, self._re, self._im, self._den, self.lam))

    # -- evaluation ----------------------------------------------------

    def evaluate(self, q):
        """Numeric value at real q > 1 (s = sqrt(q)), as a complex.

        The terms are summed with math.fsum, so the value does not depend
        on the order the terms are stored in.
        """
        s = math.sqrt(float(q))
        re_terms, im_terms = [], []
        for e, c in self.num.items():
            p = s ** e
            re_terms.append(float(c.re) * p)
            im_terms.append(float(c.im) * p)
        acc = complex(math.fsum(re_terms), math.fsum(im_terms))
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
        num = self.num
        if not num:
            return "0"
        parts = []
        for e in sorted(num, reverse=True):
            c = num[e]
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
    if isinstance(v, (int, Fraction, QQi)):
        return Scalar({0: v})
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


SCALAR_ZERO = _raw(0, 0, 0, 1, 0, _W, 0)
SCALAR_ONE = Scalar.from_rational(1)
