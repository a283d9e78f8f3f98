"""The field engine's batteries: verify-algebra, leibniz and integrate.

They compute exactly, on the normal-ordering ring and on Laurent fields
over `QContext(q)` at any rational q > 1, and import no numpy.  Only
integrate's lattice rows need the lattice engine: it imports them from
`doubles` when q is a double the lattice takes.  `print_integral` is
integrate's one-shot form, `--poly`: one definite integral, exactly.
"""

import random
import re
from fractions import Fraction

from ..algebra import (
    AlgebraElement,
    bar,
    extract_nabla_L,
    multiply,
    p_closed_form,
    reduce_p,
)
from ..context import QContext
from ..fields import (
    LaurentPoly,
    NotInImage,
    comultiplication_residual,
    d_leibniz_residual,
    d_squared,
    leibniz_residual,
    morphism_residual,
    nabla,
    nabla_preimage,
)
from ..integration import (
    definite_integral,
    monomial_integral_closed_form,
    nabla_inverse_series,
)
from ..scalars import QQi, Scalar
from ..verdicts import row
from . import REGISTRY, ConfigError, lattice_context, resolve


# -- random generators (seeded) -----------------------------------------------


def rand_element(rng, max_terms=3, span=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = (rng.randrange(-span, span + 1),
               rng.randrange(0, span + 1),
               rng.randrange(-span, span + 1))
        num = {rng.randrange(-2, 3): rng.randrange(-4, 5) or 1
               for _ in range(rng.randrange(1, 3))}
        terms[key] = Scalar({e: v for e, v in num.items()})
    return AlgebraElement(terms)


def rand_poly(rng, ctx, max_terms=5):
    coeffs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        n = rng.randrange(-6, 7)
        coeffs[n] = QQi(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))
    return LaurentPoly(ctx, coeffs)


# -- verify-algebra -----------------------------------------------------------


def verify_algebra(q, params):
    # the normal-ordering ring is symbolic in the square root of q, so the
    # battery takes no q and q is None
    trials, seed = params["trials"], params["seed"]
    rng = random.Random(seed)
    X, P, L = AlgebraElement.x, AlgebraElement.p, AlgebraElement.L
    ONE = AlgebraElement.one()
    I = Scalar.i()
    RQ, RQI = Scalar.s_power(1), Scalar.s_power(-1)
    rows = []

    lhs = multiply(X(), P()).scale(RQ) - multiply(P(), X()).scale(RQI)
    rows.append(row("defining-relation",
                    not lhs.same_stored(AlgebraElement({(0, 0, 1): I}))))
    conj_lhs = multiply(P(), X()).scale(RQ) - multiply(X(), P()).scale(RQI)
    rows.append(row("conjugate-relation",
                    conj_lhs != AlgebraElement({(0, 0, -1): -I})))
    rel = lhs - AlgebraElement({(0, 0, 1): I})
    flipped = conj_lhs + AlgebraElement({(0, 0, -1): I})
    rows.append(row("bar-of-relation",
                    not (bar(rel) == flipped and bar(flipped) == rel)))
    rows.append(row("inverse-pairs",
                    not (multiply(X(), X(-1)).same_stored(ONE)
                         and multiply(X(-1), X()).same_stored(ONE)
                         and multiply(L(), L(-1)).same_stored(ONE)
                         and multiply(L(-1), L()).same_stored(ONE))))

    invol = antihom = assoc = True
    for _ in range(trials):
        a = rand_element(rng)
        b = rand_element(rng)
        c = rand_element(rng)
        invol = invol and bar(bar(a)) == a
        antihom = antihom and bar(multiply(a, b)) == multiply(bar(b), bar(a))
        assoc = assoc and multiply(multiply(a, b), c).same_stored(
            multiply(a, multiply(b, c)))
    rows.append(row("bar-involution", not invol))
    rows.append(row("bar-antihomomorphism", not antihom))
    rows.append(row("associativity", not assoc))

    pc = p_closed_form()
    rows.append(row("momentum-closed-form",
                    not (P() == pc and reduce_p(P()).same_stored(pc))))
    rows.append(row("closed-form-hermitian", not bar(pc).same_stored(pc)))
    cf_rel = multiply(X(), pc).scale(RQ) - multiply(pc, X()).scale(RQI)
    rows.append(row("closed-form-relation",
                    not cf_rel.same_stored(AlgebraElement({(0, 0, 1): I}))))

    extract_ok = True
    for n in range(-10, 11):
        h, g, j = extract_nabla_L({n: 1})
        want_h = {} if n == 0 else {n - 1: Scalar.qnum(n)}
        extract_ok = (extract_ok and h == want_h
                      and g == {n: Scalar.q_power(n)}
                      and j == {n: Scalar.q_power(-n)})
    rows.append(row("derivative-extraction", not extract_ok))

    rows.append(row("scale-exchange-p", not multiply(L(), P()).same_stored(
        multiply(P(), L()).scale(Scalar.q_power(1)))))
    rows.append(row("scale-exchange-x", not multiply(L(), X()).same_stored(
        multiply(X(), L()).scale(Scalar.q_power(-1)))))
    rows.append(row("generator-conjugation",
                    not (bar(X()) == X() and bar(P()) == P()
                         and bar(L()).same_stored(L(-1)))))

    return rows, {"trials": trials, "seed": seed}, ()


# -- leibniz ------------------------------------------------------------------


# (variant, b) of the one-form conventions the leibniz battery checks
D_CONVENTIONS = (("A", 1), ("A", -1), ("B", 1), ("B", -1))


def leibniz(q, params):
    ctx = QContext(q)
    trials, seed = params["trials"], params["seed"]
    rng = random.Random(seed)

    form1 = form2 = comult = morph = d_squared_ok = True
    d_leibniz = dict.fromkeys(D_CONVENTIONS, True)
    for _ in range(trials):
        f = rand_poly(rng, ctx)
        g = rand_poly(rng, ctx)
        form1 = form1 and leibniz_residual(f, g, form=1).is_zero()
        form2 = form2 and leibniz_residual(f, g, form=2).is_zero()
        comult = comult and comultiplication_residual(f, g).is_zero()
        morph = morph and morphism_residual(f).is_zero()
        for variant, b in D_CONVENTIONS:
            d_leibniz[variant, b] = d_leibniz[variant, b] and \
                d_leibniz_residual(f, g, b, variant).is_zero()
            d_squared_ok = d_squared_ok and \
                d_squared(f, b, variant).is_zero()
    rows = [row("product-rule-form1", not form1),
            row("product-rule-form2", not form2),
            row("comultiplication", not comult),
            row("scale-morphism", not morph)]

    kernel_ok = all(nabla(LaurentPoly.monomial(ctx, n)).is_zero() == (n == 0)
                    for n in range(-8, 9))
    rows.append(row("derivative-kernel", not kernel_ok))

    round_trip = True
    for _ in range(50):
        h = rand_poly(rng, ctx)
        image = LaurentPoly(ctx, {n: c for n, c in h.coeffs.items()
                                  if n != -1})
        if image.is_zero():
            continue
        round_trip = round_trip and (nabla(nabla_preimage(image))
                                     == image)
    rows.append(row("preimage-round-trip", not round_trip))

    try:
        nabla_preimage(LaurentPoly.monomial(ctx, -1))
        refused = False
    except NotInImage:
        refused = True
    rows.append(row("x-inverse-not-in-image", not refused))

    # the paper's exterior calculus: d = dx nabla under each convention
    rows += [row(f"d-leibniz-{variant}-b{b:+d}", not ok)
             for (variant, b), ok in d_leibniz.items()]
    rows.append(row("d-squared", not d_squared_ok))
    return rows, {"q": str(ctx.q), "trials": trials, "seed": seed}, ()


# -- integrate ----------------------------------------------------------------


def _inverse_series_gap(ctx):
    """T terms of the inverse-derivative series on x^m against
    nabla_preimage(x^m) times the truncation factor 1 - q^(-2T(m+1)) (plus
    branch, m >= 0) or 1 - q^(2T(m+1)) (minus branch, m <= -2): true on
    any mismatch."""
    for m in range(-5, 6):
        if m == -1:
            continue
        branch, sign = ("plus", -1) if m >= 0 else ("minus", 1)
        f = LaurentPoly.monomial(ctx, m)
        for terms in (1, 2, 5):
            got = nabla_inverse_series(f, branch, terms)
            want = nabla_preimage(f).scale(
                1 - ctx.qpow(2 * sign * terms * (m + 1)))
            if got != want:
                return True
    return False


def integrate(q, params):
    ctx = QContext(q)
    trials, seed = params["trials"], params["seed"]
    rng = random.Random(seed)
    used = {"q": str(q), "trials": trials, "seed": seed}

    # closed form for monomial integrals, both endpoint parities
    agree = True
    for n in range(-5, 6):
        if n == -1:
            continue
        h = LaurentPoly.monomial(ctx, n)
        agree = agree and definite_integral(h, -4, 4) == ctx.coerce(
            monomial_integral_closed_form(ctx, n, -4, 4))
        agree = agree and definite_integral(h, -3, 5) == ctx.coerce(
            monomial_integral_closed_form(ctx, n, -3, 5))
    rows = [row("trace-vs-closed-form", not agree, 1e-12)]
    h = LaurentPoly.monomial(ctx, -1)
    rows.append(row("x-inverse-rule", definite_integral(h, -6, 4)
                    != ctx.coerce(ctx.lam * 5), 1e-12))

    try:
        lattice = lattice_context(q)
    except ConfigError:
        pass  # no lattice at this q: the field rows alone
    else:
        from .doubles import _lattice_integral_rows
        rows += _lattice_integral_rows(lattice, rng, trials)
    rows.append(row("inverse-series", _inverse_series_gap(ctx), 1e-12))

    stokes = True
    for _ in range(trials):
        coeffs = {rng.randrange(-4, 5): Fraction(rng.randrange(-9, 10), 3)
                  for _ in range(4)}
        f = LaurentPoly(ctx, {n: ctx.coerce(c) for n, c in coeffs.items()})
        N = rng.randrange(-6, 3)
        M = rng.randrange(N + 1, 9)
        if (M - N) % 2:
            M += 1
        got = definite_integral(nabla(f), N, M)
        want = f.evaluate(ctx.qpow(M)) - f.evaluate(ctx.qpow(N))
        stokes = stokes and got == ctx.coerce(want)
    rows.append(row("field-stokes", not stokes, 1e-12))
    return rows, used, ()


# -- one-shot integral --------------------------------------------------------


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?\*?(x(?:\^(-?\d+))?)?")


def _parse_poly(ctx, text):
    """Sums of Laurent monomials: '2*x^3 - x^-1 + 1/2'."""
    src = text.replace(" ", "")
    if not src:
        raise ConfigError("empty polynomial")
    coeffs = {}
    pos = 0
    while pos < len(src):
        m = _TERM.match(src, pos)
        if m is None or m.end() == pos or (m.group(2) is None
                                           and m.group(3) is None):
            raise ConfigError(f"cannot parse polynomial near {src[pos:]!r}")
        sign, num, xpart, expo = m.groups()
        c = Fraction(num) if num else Fraction(1)
        if sign == "-":
            c = -c
        n = (int(expo) if expo else 1) if xpart else 0
        coeffs[n] = coeffs.get(n, 0) + c
        pos = m.end()
    return LaurentPoly(ctx, coeffs)


def print_integral(given):
    """The integral exactly at q; a fraction q prints the exact value, a
    decimal q prints it rounded to a double."""
    q, params = resolve("integrate", given)
    lo, hi = params["from_exp"], params["to_exp"]
    if lo is None or hi is None:
        raise ConfigError("--poly needs --from and --to lattice exponents")
    val = definite_integral(_parse_poly(QContext(q), params["poly"]),
                            lo, hi, sector=params["sector"])
    q_param, = (p for p in REGISTRY["integrate"].params if p.key == "q")
    print(val if "/" in q_param.pick(given) else f"{float(val.re):g}")
    return 0
