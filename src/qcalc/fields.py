"""Calculus of fields: Laurent polynomials under the q-derivative and scale map.

nabla acts on monomials as x^n -> [n] x^(n-1) and equals
lam^-1 x^-1 (L^-1 - L); both routes are implemented and must agree.
L rescales the argument by 1/q.  The one-form layer carries the two
Leibniz-rule families for the exterior derivative d = dx nabla, indexed
by an integer b and a variant flag:

    variant A:  d(fg) = df (L^-1 g) + (L^b f) dg,   dx x = q^(1-b) x dx
    variant B:  d(fg) = df (L g)   + (L^b f) dg,    dx x = q^(-1-b) x dx

Default is variant A with b = 1, where dx and x commute.

Storage.  Fields are exact at every q: a LaurentPoly needs a context
with a Fraction q, and a double q is the exact rational it stores,
QContext(Fraction(q)).  It is Gaussian integers over one denominator:
`_c` maps n to a pair (re, im) of ints and `den` is a positive int, so
the coefficient of x^n is (re + i im) / den.  The form is canonical:

  * no entry has re == im == 0;
  * gcd(den, every re and im) == 1;
  * zero is the empty dict with den == 1;

so `==` compares the dict and den, and `is_zero` tests the dict.  A sum
takes one lcm of the two denominators and int adds; a product takes
Gaussian int products, one denominator product and one gcd.  L, nabla
and its preimage multiply degree n by the integer pair of q^(-pn), [n]
or 1/[n] from the context (q = a/b, so q^k = a^k / b^k), over one common
lcm of the pair denominators.  `evaluate` and `sum_at` sum in ints and
return a QQi; `sum_at` sums each monomial over a run of lattice points
as one geometric progression.  `coeffs` is a fresh {n: QQi} dict to
read; writing to it does not change the polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .scalars import QQi


class NotInImage(Exception):
    """The field has no preimage under nabla."""


def _poly(ctx, c, den):
    f = object.__new__(LaurentPoly)
    f.ctx = ctx
    f._c = c
    f.den = den
    return f


def _exact_poly(ctx, c, den):
    """Canonical exact poly from nonzero Gaussian-int entries over den."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(c.values()))
        if g != 1:
            den //= g
            c = {n: (re // g, im // g) for n, (re, im) in c.items()}
    return _poly(ctx, c, den)


def _power_sum(parts, u, v, den):
    """The QQi sum of (re + i im) u^lo / v^hi / den over the int tuples
    (re, im, lo, hi) in parts: one int sum over the one denominator
    u^-L v^H den, L <= 0 the least lo and H >= 0 the greatest hi.  A zero
    denominator (u = 0 with some lo < 0) raises ZeroDivisionError."""
    L = min([0, *(p[2] for p in parts)])
    H = max([0, *(p[3] for p in parts)])
    tr = ti = 0
    for re, im, lo, hi in parts:
        w = u ** (lo - L) * v ** (H - hi)
        tr += re * w
        ti += im * w
    den *= u ** -L * v ** H
    return QQi(Fraction(tr, den), Fraction(ti, den))


def _rescale(f, factor, shift=0):
    """Exact f with c x^n -> c factor(n) x^(n + shift); factor(n) is a
    rational (num, den > 0) pair of ints, all over one common lcm of the
    pair denominators.  A zero factor drops its term."""
    pairs = [factor(n) for n in f._c]
    lcm = math.lcm(*[d for _, d in pairs])
    out = {}
    for (n, (re, im)), (num, d) in zip(f._c.items(), pairs):
        if num:
            m = num * (lcm // d)
            out[n + shift] = (re * m, im * m)
    return _exact_poly(f.ctx, out, f.den * lcm)


class LaurentPoly:
    __slots__ = ("ctx", "_c", "den")

    def __init__(self, ctx, coeffs=None):
        if not isinstance(ctx.q, Fraction):
            raise ValueError(f"fields need an exact q; use "
                             f"QContext(Fraction({ctx.q!r}))")
        self.ctx = ctx
        ratios = {}
        for n, c in (coeffs or {}).items():
            c = ctx.coerce(c)
            if c.re or c.im:
                ratios[n] = (c.re.as_integer_ratio(), c.im.as_integer_ratio())
        # the lcm of the parts' reduced denominators is prime to the
        # scaled parts together, so this is already canonical
        den = math.lcm(*(d for pair in ratios.values() for _, d in pair))
        self._c = {n: (a * (den // b), x * (den // y))
                   for n, ((a, b), (x, y)) in ratios.items()}
        self.den = den

    @classmethod
    def monomial(cls, ctx, n):
        return cls(ctx, {n: 1})

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @property
    def coeffs(self):
        """A fresh {n: QQi} dict."""
        d = self.den
        if d == 1:
            return {n: QQi(re, im) for n, (re, im) in self._c.items()}
        return {n: QQi(Fraction(re, d), Fraction(im, d))
                for n, (re, im) in self._c.items()}

    def _add(self, other, sign):
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, m1, m2 = d1, 1, sign
        else:
            den = math.lcm(d1, d2)
            m1, m2 = den // d1, sign * (den // d2)
        out = dict(self._c) if m1 == 1 else {
            n: (re * m1, im * m1) for n, (re, im) in self._c.items()}
        for n, (re, im) in other._c.items():
            p = out.get(n)
            if p is None:
                out[n] = (re * m2, im * m2)
            else:
                re, im = p[0] + re * m2, p[1] + im * m2
                if re or im:
                    out[n] = (re, im)
                else:
                    del out[n]
        return _exact_poly(self.ctx, out, den)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __neg__(self):
        return _poly(self.ctx,
                     {n: (-re, -im) for n, (re, im) in self._c.items()},
                     self.den)

    def __mul__(self, other):
        # a single product of nonzero Gaussian ints is nonzero, so only a
        # degree hit twice can cancel
        out = {}
        merged = False
        right = other._c.items()
        for n1, (a, b) in self._c.items():
            for n2, (c, d) in right:
                n = n1 + n2
                p = out.get(n)
                if p is None:
                    out[n] = (a * c - b * d, a * d + b * c)
                else:
                    out[n] = (p[0] + a * c - b * d, p[1] + a * d + b * c)
                    merged = True
        if merged:
            out = {n: p for n, p in out.items() if p[0] or p[1]}
        return _exact_poly(self.ctx, out, self.den * other.den)

    def scale(self, v):
        v = self.ctx.coerce(v)
        if v.is_zero():
            return _poly(self.ctx, {}, 1)
        vd = math.lcm(v.re.denominator, v.im.denominator)
        x = v.re.numerator * (vd // v.re.denominator)
        y = v.im.numerator * (vd // v.im.denominator)
        return _exact_poly(self.ctx, {n: (a * x - b * y, a * y + b * x)
                                      for n, (a, b) in self._c.items()},
                           self.den * vd)

    def conj(self):
        return _poly(self.ctx,
                     {n: (re, -im) for n, (re, im) in self._c.items()},
                     self.den)

    def is_zero(self):
        return not self._c

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c and self.den == other.den

    __hash__ = None

    def evaluate(self, x0):
        """Exact f(x0) at a rational x0 = u/v, as a QQi: the sum of
        c_n u^n / v^n."""
        u, v = Fraction(x0).as_integer_ratio()
        return _power_sum([(re, im, n, n) for n, (re, im) in self._c.items()],
                          u, v, self.den)

    def sum_at(self, sector, sites):
        """Exact sum of x f(x) over the lattice points x = sector q^n, n in
        the range sites, as a QQi: the trace formula's weighted sum.

        With q = a/b and k sites m, c x^(e-1) contributes c sector^e times
        sum_m q^(em), and over s = em from lo to hi in steps of
        d = |e| sites.step, sum_s a^s / b^s = G a^lo / b^hi with the int
        G = sum_s a^(s-lo) b^(hi-s) = (a^(dk) - b^(dk)) / (a^d - b^d)
        (G = k for e = 0), one geometric progression per monomial.
        """
        ctx, k = self.ctx, len(sites)
        parts = []
        for n, (re, im) in self._c.items():
            e = n + 1
            d = abs(e * sites.step)
            (a_dk, b_dk), (a_d, b_d) = ctx.qpow_pair(d * k), ctx.qpow_pair(d)
            g = (a_dk - b_dk) // (a_d - b_d) if e else k
            if sector < 0 and e % 2:
                g = -g
            s0, s1 = e * sites[0], e * sites[-1]
            parts.append((re * g, im * g, min(s0, s1), max(s0, s1)))
        return _power_sum(parts, ctx.q.numerator, ctx.q.denominator, self.den)

    def __str__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for n in sorted(coeffs, reverse=True):
            c = coeffs[n]
            parts.append(f"({c}) x^{n}" if n else f"({c})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly<{self}>"


def nabla(f, route="qnumber"):
    """q-derivative: x^n -> [n] x^(n-1), or the equivalent shift route."""
    ctx = f.ctx
    if route == "qnumber":
        return _rescale(f, ctx.qnum_pair, -1)
    if route == "shift":
        g = L_op(f, -1) - L_op(f, 1)
        inv_lam = (ctx.inv_lam.numerator, ctx.inv_lam.denominator)
        return _rescale(g, lambda n: inv_lam, -1)
    raise ValueError(f"unknown route {route!r}")


def L_op(f, power=1):
    """Scale map L^power: x^n -> q^(-power*n) x^n."""
    ctx = f.ctx
    return _rescale(f, lambda n: ctx.qpow_pair(-power * n))


def _inverse_qnum_pair(ctx, n):
    num, den = ctx.qnum_pair(n)
    return (den, num) if num > 0 else (-den, -num)


def nabla_preimage(f):
    """Solve nabla(g) = f; raises NotInImage when x^-1 terms are present."""
    ctx = f.ctx
    if -1 in f._c:
        raise NotInImage("x^-1 has no preimage under nabla")
    return _rescale(f, lambda n: _inverse_qnum_pair(ctx, n + 1), 1)


# -- identity residuals (all must vanish identically) -----------------------


def leibniz_residual(f, g, form=1):
    """nabla(fg) minus one of the two product-rule expansions."""
    lhs = nabla(f * g)
    if form == 1:
        rhs = nabla(f) * L_op(g, 1) + L_op(f, -1) * nabla(g)
    elif form == 2:
        rhs = nabla(f) * L_op(g, -1) + L_op(f, 1) * nabla(g)
    else:
        raise ValueError("form must be 1 or 2")
    return lhs - rhs


def comultiplication_residual(f, g):
    """Difference of the two coproduct expansions acting on fields."""
    a = nabla(f) * L_op(g, 1) + L_op(f, -1) * nabla(g)
    b = nabla(f) * L_op(g, -1) + L_op(f, 1) * nabla(g)
    return a - b


def morphism_residual(f):
    """L(nabla f) - q nabla(L f); the grade relation L nabla = q nabla L."""
    return L_op(nabla(f), 1) - nabla(L_op(f, 1)).scale(f.ctx.q)


# -- one-forms --------------------------------------------------------------


class OneForm:
    """dx * coeff with the commutation rule indexed by (b, variant)."""

    __slots__ = ("coeff", "b", "variant")

    def __init__(self, coeff, b=1, variant="A"):
        if variant not in ("A", "B"):
            raise ValueError("variant must be 'A' or 'B'")
        self.coeff = coeff
        self.b = b
        self.variant = variant

    def _check(self, other):
        if self.b != other.b or self.variant != other.variant:
            raise ValueError("one-forms carry different Leibniz conventions")

    def __add__(self, other):
        self._check(other)
        return OneForm(self.coeff + other.coeff, self.b, self.variant)

    def __sub__(self, other):
        self._check(other)
        return OneForm(self.coeff - other.coeff, self.b, self.variant)

    def left_mul(self, f):
        """f * (dx h): move x powers of f past dx."""
        # x^m dx = q^(kappa m) dx x^m with kappa = b-1 (A) or b+1 (B)
        kappa = self.b - 1 if self.variant == "A" else self.b + 1
        return OneForm(L_op(f, -kappa) * self.coeff, self.b, self.variant)

    def right_mul(self, f):
        return OneForm(self.coeff * f, self.b, self.variant)

    def is_zero(self):
        return self.coeff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return (self.b == other.b and self.variant == other.variant
                and self.coeff == other.coeff)

    __hash__ = None

    def __repr__(self):
        return f"OneForm<dx * {self.coeff}; b={self.b}, {self.variant}>"


def differential(f, b=1, variant="A"):
    """d f = dx (nabla f) as a OneForm carrying the chosen convention."""
    return OneForm(nabla(f), b, variant)


def d_leibniz_residual(f, g, b=1, variant="A"):
    """d(fg) minus the variant's product rule; identically zero."""
    lhs = differential(f * g, b, variant)
    shift = -1 if variant == "A" else 1
    rhs = differential(f, b, variant).right_mul(L_op(g, shift)) \
        + differential(g, b, variant).left_mul(L_op(f, b))
    return lhs - rhs


def d_squared(f, b=1, variant="A"):
    """d(d f).  Ordering dx past x in dx dx x both ways forces
    (1 + q^(1-b)) dx^2 = 0 (variant A; q^(-1-b) for B), so dx^2 = 0 and
    the result is the zero 2-form, independent of f."""
    wedge_factor = 1 + (f.ctx.qpow(1 - b) if variant == "A"
                        else f.ctx.qpow(-1 - b))
    if wedge_factor == 0:
        raise ValueError("dx^2 = 0 needs 1 + q^(1-b) (B: 1 + q^(-1-b)) != 0")
    return LaurentPoly.zero(f.ctx)
