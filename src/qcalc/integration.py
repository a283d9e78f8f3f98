"""Jackson integration of fields: the inverse-derivative series and the
exact definite integral.

The definite integral between same-parity exponents is the weighted trace

    integral from sigma q^(2N) to sigma q^(2M) of h
        = lam * sum_{mu=N+1}^{M} (sigma q^(2mu-1)) h(sigma q^(2mu-1))

(and the odd-endpoint twin), i.e. it samples only sites of the opposite
parity.  On a LaurentPoly (exact at every q) each monomial's sum over
those sites is one geometric progression in ints (LaurentPoly.sum_at),
and the integral is a QQi.

This module is the field engine's half and imports no numpy.  The same
trace formula on lattice data, the improper integral, the scalar product
and the Green identity live in qcalc.lattice, which raises this module's
ParityMismatch and NotConverged.
"""

from __future__ import annotations

from .fields import LaurentPoly, L_op


class DivergentBranch(Exception):
    """The chosen inverse-derivative series diverges for this field."""


class ParityMismatch(Exception):
    """Definite-integral endpoints must share parity."""


class NotConverged(Exception):
    """Window tails of an improper integral exceed tolerance."""


def nabla_inverse_series(f, branch, terms):
    """Truncated shift-operator series for the inverse derivative.

    branch 'plus':  lam * sum_nu L^(2nu) L (x f), converges for x^m, m >= 0
    branch 'minus': -lam * sum_nu L^(-2nu) L^-1 (x f), converges for m <= -2
    """
    ctx = f.ctx
    if branch == "plus":
        if any(m <= -1 for m in f.coeffs):
            raise DivergentBranch("plus branch needs monomials x^m, m >= 0")
        sign, direction = 1, 1
    elif branch == "minus":
        if any(m >= -1 for m in f.coeffs):
            raise DivergentBranch("minus branch needs monomials x^m, m <= -2")
        sign, direction = -1, -1
    else:
        raise ValueError("branch must be 'plus' or 'minus'")
    xf = LaurentPoly(ctx, {m + 1: c for m, c in f.coeffs.items()})
    acc = LaurentPoly.zero(ctx)
    for nu in range(terms):
        acc = acc + L_op(xf, direction * (2 * nu + 1))
    return acc.scale(sign * ctx.lam)


def _site_exponents(lower_exp, upper_exp):
    if (upper_exp - lower_exp) % 2:
        raise ParityMismatch("endpoints must share parity")
    if lower_exp >= upper_exp:
        raise ValueError("need lower_exp < upper_exp")
    return range(lower_exp + 1, upper_exp, 2)


def definite_integral(h, lower_exp, upper_exp, sector=1):
    """Trace-formula integral of the LaurentPoly h from sigma q^lower to
    sigma q^upper, summed exactly: a QQi."""
    sites = _site_exponents(lower_exp, upper_exp)
    return h.scale(h.ctx.lam).sum_at(sector, sites)


def monomial_integral_closed_form(ctx, n, lower_exp, upper_exp):
    """x^n from q^lower to q^upper: (q^(upper(n+1)) - q^(lower(n+1)))/[n+1];
    for n = -1, lam times the number of double steps."""
    if (upper_exp - lower_exp) % 2:
        raise ParityMismatch("endpoints must share parity")
    if n == -1:
        return ctx.lam * ((upper_exp - lower_exp) // 2)
    num = ctx.qpow(upper_exp * (n + 1)) - ctx.qpow(lower_exp * (n + 1))
    return num / ctx.qnum(n + 1)
