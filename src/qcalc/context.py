"""Deformation-parameter context shared by all numeric layers.

Two backends: exact (q a Fraction, coefficients Gaussian rationals) for
fields, their integrals and the algebraic identity checks, and double
(q a float) for lattice numerics.  lam = q - 1/q throughout.  A double
q is an exact dyadic rational, and `as_exact` gives the same q on the
exact backend.

On the exact backend, with q = a/b in lowest terms, every q-power and
q-number is a coprime integer pair (numerator, denominator > 0):

    q^k = a^k / b^k,    [n] = S_n / (ab)^(n-1),
    S_n = (a^(2n) - b^(2n)) / (a^2 - b^2) = sum_j a^(2j) b^(2(n-1-j)),

and [-n] = -[n].  S_n is prime to a and to b, so the pair is in lowest
terms.  `qpow_pair` and `qnum_pair` are the one source of these pairs:
each context keeps them for |k| <= QTABLE_SPAN and computes larger ones
on demand.  `qnum` reads them; `qpow` is the Fraction power q ** k,
which is the same a^k / b^k.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import QQi, _as_qqi

# Exponents whose exact q-power and q-number pairs a context keeps.
QTABLE_SPAN = 256


class QContext:
    __slots__ = ("q", "backend", "lam", "inv_lam", "_pow", "_qnum")

    def __init__(self, q):
        if isinstance(q, float):
            if not q > 1.0:
                raise ValueError("q must be > 1")
            self.q = q
            self.backend = "double"
            self.lam = q - 1.0 / q
            self.inv_lam = 1.0 / self.lam
        elif isinstance(q, (int, Fraction)):
            q = Fraction(q)
            if not q > 1:
                raise ValueError("q must be > 1")
            self.q = q
            self.backend = "exact"
            self.lam = q - 1 / q
            self.inv_lam = 1 / self.lam
            self._pow = {}
            self._qnum = {}
        else:
            raise TypeError("q must be a Fraction (exact) or float (double)")

    @property
    def exact(self):
        return self.backend == "exact"

    def as_exact(self):
        """This q on the exact backend.  A double q is an exact dyadic
        rational, so QContext(Fraction(q)) carries it without loss."""
        return self if self.exact else QContext(Fraction(self.q))

    @property
    def sqrt_q(self):
        if self.exact:
            raise ValueError("q^(1/2) is not rational; use the double backend")
        return math.sqrt(self.q)

    def qpow_pair(self, k):
        """q^k as a coprime pair (num, den > 0) of ints (exact backend)."""
        pair = self._pow.get(k)
        if pair is None:
            a, b = self.q.numerator, self.q.denominator
            pair = (a ** k, b ** k) if k >= 0 else (b ** -k, a ** -k)
            if abs(k) <= QTABLE_SPAN:
                self._pow[k] = pair
        return pair

    def qnum_pair(self, n):
        """[n] as a coprime pair (num, den > 0) of ints (exact backend)."""
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
        """[n] = (q^n - q^-n) / (q - q^-1)."""
        if self.exact:
            return Fraction(*self.qnum_pair(n))
        return (self.qpow(n) - self.qpow(-n)) * self.inv_lam

    def coerce(self, v):
        """Coefficient as a QQi (exact backend)."""
        return v if isinstance(v, QQi) else _as_qqi(v)

    def __repr__(self):
        return f"QContext(q={self.q!r}, backend={self.backend})"
