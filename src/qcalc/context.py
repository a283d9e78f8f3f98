"""Deformation-parameter context shared by all numeric layers.

A context holds q in the number type its engine computes in: a Fraction
(an int becomes one) for the field engine -- fields, their integrals and
the algebraic identity checks, with Gaussian-rational coefficients --
or a float for the lattice engine on the points +-q^n.  A double is an
exact dyadic rational, so both engines can run at one q.
lam = q - 1/q throughout.

With a Fraction q = a/b in lowest terms, every q-power and q-number is a
coprime integer pair (numerator, denominator > 0):

    q^k = a^k / b^k,    [n] = S_n / (ab)^(n-1),
    S_n = (a^(2n) - b^(2n)) / (a^2 - b^2) = sum_j a^(2j) b^(2(n-1-j)),

and [-n] = -[n].  S_n is prime to a and to b, so the pair is in lowest
terms.  `qpow_pair` and `qnum_pair` are the one source of these pairs:
each context keeps them for |k| <= QTABLE_SPAN and computes larger ones
on demand.  `qnum` reads them; `qpow` is the power q ** k, which for a
Fraction is the same a^k / b^k.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import QQi, _as_qqi

# Exponents whose exact q-power and q-number pairs a context keeps.
QTABLE_SPAN = 256


class QContext:
    __slots__ = ("q", "lam", "inv_lam", "_pow", "_qnum")

    def __init__(self, q):
        if not isinstance(q, (float, Fraction)):
            if not isinstance(q, int):
                raise TypeError("q must be a Fraction, an int or a float")
            q = Fraction(q)
        if not q > 1:
            raise ValueError("q must be > 1")
        self.q = q
        self.lam = q - 1 / q
        self.inv_lam = 1 / self.lam
        self._pow = {}
        self._qnum = {}

    @property
    def sqrt_q(self):
        return math.sqrt(self.q)

    def qpow_pair(self, k):
        """q^k as a coprime pair (num, den > 0) of ints (Fraction q)."""
        pair = self._pow.get(k)
        if pair is None:
            a, b = self.q.numerator, self.q.denominator
            pair = (a ** k, b ** k) if k >= 0 else (b ** -k, a ** -k)
            if abs(k) <= QTABLE_SPAN:
                self._pow[k] = pair
        return pair

    def qnum_pair(self, n):
        """[n] as a coprime pair (num, den > 0) of ints (Fraction q)."""
        pair = self._qnum.get(n)
        if pair is None:
            if n == 0:
                return 0, 1
            m = abs(n)
            a, b = self.q.numerator, self.q.denominator
            s = (a ** (2 * m) - b ** (2 * m)) // (a * a - b * b)
            pair = (s if n > 0 else -s, (a * b) ** (m - 1))
            if m <= QTABLE_SPAN:
                self._qnum[n] = pair
        return pair

    def qpow(self, n):
        return self.q ** n

    def qnum(self, n):
        """[n] = (q^n - q^-n) / (q - q^-1), exactly (Fraction q)."""
        return Fraction(*self.qnum_pair(n))

    def coerce(self, v):
        """Coefficient as a QQi (Fraction q)."""
        return v if isinstance(v, QQi) else _as_qqi(v)

    def __repr__(self):
        return f"QContext(q={self.q!r})"
