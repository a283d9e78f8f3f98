"""Jackson integration: inverse-derivative series, definite, improper;
scalar product; Green.

The definite integral between same-parity exponents is the weighted trace

    integral from sigma q^(2N) to sigma q^(2M) of h
        = lam * sum_{mu=N+1}^{M} (sigma q^(2mu-1)) h(sigma q^(2mu-1))

(and the odd-endpoint twin), i.e. it samples only sites of the opposite
parity.  The improper integral halves the sum of both parity families
and weights each sector with its sign, which cancels the sign of the x
eigenvalue and leaves the positive Jackson measure (1/2) lam q^n per site.

Two halves share the trace formula.  On fields (LaurentPoly, exact at
every q) the inverse-derivative series and the definite integral are
exact, and the integral is a QQi.  On lattice data (LatticeFn, doubles)
the definite and improper integrals, the scalar product and the Green
identity sum complex floats.
"""

from __future__ import annotations

import numpy as np

from .fields import LaurentPoly, L_op
from .lattice import GridMismatch, LatticeFn, worst


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
    """Trace-formula integral from sigma q^lower to sigma q^upper.

    h may be a LaurentPoly (summed exactly, a QQi) or a LatticeFn
    (sampled at the opposite-parity sites in between, a complex).
    """
    if isinstance(h, LatticeFn):
        ctx = h.grid.ctx
        acc = 0j
        for n in _site_exponents(lower_exp, upper_exp):
            acc += (sector * ctx.qpow(n)) * h.value(sector, n)
        return ctx.lam * acc
    ctx = h.ctx
    sites = [sector * ctx.qpow(n)
             for n in _site_exponents(lower_exp, upper_exp)]
    return ctx.coerce(ctx.lam) * h.sum_at(sites, power=1)


def monomial_integral_closed_form(ctx, n, lower_exp, upper_exp):
    """x^n from q^lower to q^upper: (q^(upper(n+1)) - q^(lower(n+1)))/[n+1];
    for n = -1, lam times the number of double steps."""
    if (upper_exp - lower_exp) % 2:
        raise ParityMismatch("endpoints must share parity")
    if n == -1:
        return ctx.lam * ((upper_exp - lower_exp) // 2)
    num = ctx.qpow(upper_exp * (n + 1)) - ctx.qpow(lower_exp * (n + 1))
    return num / ctx.qnum(n + 1)


def improper_integral(h, tail_tol=1e-10):
    """(1/2) lam sum over sectors and all valid sites of q^n h(sigma q^n),
    the sector sign being cancelled against the x eigenvalue's sign."""
    ctx = h.grid.ctx
    cols = h.valid_slice()
    terms = h.grid.qpows[cols] * h.data[:, cols]
    # summed in order from 0j, sector-major: a pairwise sum rounds otherwise
    acc = np.cumsum(np.concatenate(([0j], terms.ravel())))[-1]
    i = np.arange(terms.shape[-1])
    edge = (i < 2) | (i >= i.size - 2)
    # scalar moduli: np.abs rounds some of them differently
    worst_tail = worst(map(abs, (ctx.lam * terms[:, edge]).ravel().tolist()))
    if not worst_tail <= tail_tol:  # a NaN tail fails too
        raise NotConverged(
            f"window tail term {worst_tail:.3e} exceeds {tail_tol:.3e}")
    return 0.5 * ctx.lam * acc


def scalar_product(chi, psi, tail_tol=1e-10):
    """(chi, psi) = improper integral of conj(chi) psi."""
    if chi.grid != psi.grid:
        raise GridMismatch("scalar product needs a common grid")
    return improper_integral(chi.conj() * psi, tail_tol=tail_tol)


def norm(psi, tail_tol=1e-10):
    return abs(scalar_product(psi, psi, tail_tol=tail_tol)) ** 0.5


def check_green(f, g, lower_exp, upper_exp):
    """LHS - RHS of the windowed Green identity on sector +1 lattice data.

    LHS: definite integral of (nabla^2 f) g - f (nabla^2 g);
    RHS: boundary values of (nabla f)(L^-1 g) - (L^-1 f)(nabla g).
    """
    integrand = f.nabla2_fn() * g - f * g.nabla2_fn()
    lhs = definite_integral(integrand, lower_exp, upper_exp)
    flux = f.nabla_fn() * g.L_shift(-1) - f.L_shift(-1) * g.nabla_fn()
    rhs = flux.value(1, upper_exp) - flux.value(1, lower_exp)
    return lhs - rhs
