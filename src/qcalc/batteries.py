"""Residual batteries: one per CLI subcommand, shared with the acceptance gate.

A battery checks one family of the library's identities.  It is a
function `(q, params) -> (rows, used, extra)`: `rows` holds one
verdict per check (name, worst residual, tolerance, ok), `used` is the
effective configuration echoed into the report, and `extra` lists
further artifacts as (file name, text) pairs.

There is one q, an exact rational (`parse_q`), and two engines that
compute at it.  The field engine (leibniz, integrate's field rows) runs
on `QContext(q)` at any q > 1.  The lattice engine runs on
`lattice_context(q)`, whose q is a double; it refuses a q that is not
exactly its double.  verify-algebra is symbolic in q^(1/2) and takes
no q.

`REGISTRY` records per subcommand its battery and its parameters with
their defaults.  `run` resolves a battery's parameters against the
registry (given values win over defaults), validates them and calls the
battery with the parsed q (None when it declares no q); the CLI builds
its flags and help from the same records.
"""

import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    AlgebraElement,
    InternalOrderingError,
    bar,
    extract_nabla_L,
    multiply,
    p_closed_form,
    reduce_p,
)
from .context import QContext
from .fields import (
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
from .fourier import QFourier, SublatticeSeq
from .gauge import DEFAULT_SCENARIO, RouteMismatch, scenario_report
from .integration import (
    DivergentBranch,
    NotConverged,
    ParityMismatch,
    definite_integral,
    monomial_integral_closed_form,
    nabla_inverse_series,
)
from .lattice import (
    GridMismatch,
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    check_green,
    definite_integral as lattice_integral,
    improper_integral,
    row,
    running_sum,
    to_csv,
    worst,
)
from .oscillator import (
    NoDecay,
    build_ladder,
    gaussian_fourier_pair,
    ground_state,
    hermite_match_residuals,
    level_table_csv,
    raising_on_ground_residual,
    series_match_residual,
    spectrum_table,
)
from .scalars import QQi, Scalar
from .schrodinger import (
    EvolutionState,
    GridTooSmall,
    Hamiltonian,
    NonHermitianHamiltonian,
    build_representation,
    check_noether,
    continuity_residual,
    energy_form_residual,
    evolve as evolve_state,
    free_evolve,
    history_to_csv,
    stationary_state,
)
from .special import DivergentProduct, OutOfRadius, SpecialFunctions


class ConfigError(Exception):
    """Bad flag or config-file value; maps to exit status 2."""


# Exceptions the library raises when a configuration lies outside what a
# battery can compute (window too narrow, q too large for doubles, ...).
# The CLI reports them as configuration errors, exit status 2.
LIBRARY_ERRORS = (
    DivergentBranch, DivergentProduct, GridMismatch, GridTooSmall,
    InsufficientPadding, InternalOrderingError, NoDecay,
    NonHermitianHamiltonian, NotConverged, NotInImage, OutOfRadius,
    OverflowError, ParityMismatch, RouteMismatch, ValueError,
)

# Below this q the normalising products (q^-4; q^-4)_inf of the lattice
# engine underflow (they fall like exp(-pi^2 / (24 ln q))); the field
# engine runs at any q > 1.
Q_MIN_DOUBLE = 1.001


def lattice_context(q):
    """The lattice engine's context at the exact rational q:
    QContext(float(q)).  ConfigError unless that double is finite, at
    least Q_MIN_DOUBLE and exactly q; the message names the double."""
    try:
        x = float(q)
    except OverflowError:
        x = math.inf
    if not Q_MIN_DOUBLE <= x < math.inf:
        raise ConfigError(f"the lattice needs a finite q >= {Q_MIN_DOUBLE}, "
                          f"got {x!r}")
    if x != q:
        raise ConfigError(f"the lattice needs q as a double and {q} is not "
                          f"one; pass q as {x!r}")
    return QContext(x)


# -- verdicts -----------------------------------------------------------------


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


def rand_lattice_fn(rng, grid, lo=None, hi=None):
    lo = grid.n_min if lo is None else lo
    hi = grid.n_max if hi is None else hi
    sites = {}
    for s in grid.sectors:
        for n in range(lo, hi + 1):
            sites[(s, n)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return LatticeFn.from_sites(grid, sites)


def rand_seq(rng, ctx, family="even"):
    vals = []
    for k in range(-40, 41):
        prof = ctx.qpow(-((k - 2) ** 2))
        vals.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * prof)
    return SublatticeSeq(ctx, -40, np.array(vals), family=family)


def eigen_packet(rep, H, rng):
    c = np.zeros((len(rep.grid.sectors), rep.grid.size), dtype=complex)
    # sector by sector, so the draws keep their order
    for v, evals, evecs in zip(c, *H.eigh()):
        idx = [i for i in range(len(evals)) if evals[i] < 0.5][:4]
        if not idx:
            raise ConfigError("energy cut leaves no modes in the window")
        for i in idx:
            v += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * evecs[:, i]
    total = math.sqrt(sum(np.vdot(v, v).real for v in c))
    return rep.lattice_fn(c / total)


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


def _lattice_integral_rows(ctx, rng, trials):
    """Stokes, summation by parts, hermiticity of nabla^2 and the Green
    identity on random lattice functions."""
    grid = LatticeGrid(ctx, -12, 12)
    stokes = []
    for _ in range(trials):
        f = rand_lattice_fn(rng, grid)
        got = lattice_integral(f.nabla_fn(), -7, 7)
        want = f.value(1, 7) - f.value(1, -7)
        stokes.append(abs(got - want) / max(1.0, abs(want)))

    partial, herm, green = [], [], []
    for _ in range(20):
        chi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        psi = rand_lattice_fn(rng, grid, lo=-6, hi=6)
        a = improper_integral(chi.conj().nabla_fn() * psi.L_shift(1)) \
            + improper_integral(chi.conj().L_shift(-1) * psi.nabla_fn())
        b = improper_integral(chi.conj().nabla_fn() * psi.L_shift(-1)) \
            + improper_integral(chi.conj().L_shift(1) * psi.nabla_fn())
        partial += [abs(a), abs(b)]
        lhs = improper_integral(chi.nabla2_fn().conj() * psi)
        rhs = improper_integral(chi.conj() * psi.nabla2_fn())
        herm.append(abs(lhs - rhs))
        green.append(abs(check_green(chi, psi, -6, 6)))
    return [row("stokes", worst(stokes), 1e-12),
            row("partial-integration", worst(partial), 1e-12),
            row("nabla2-hermiticity", worst(herm), 1e-12),
            row("green-identity", worst(green), 1e-12)]


# -- special-tables -----------------------------------------------------------


def _kernels(sf, kind, lo, hi):
    """The kind's kernel at q^m, m = lo ... hi, from its two parity rows."""
    out = np.empty(hi - lo + 1)
    out[0::2] = sf.kernel_row(kind, lo, hi - (hi - lo) % 2)
    out[1::2] = sf.kernel_row(kind, lo + 1, hi - (hi - lo + 1) % 2)
    return out


def _sampled_kernel(sf, grid, kind, y_exp):
    """The kind's kernel at x y, y = q^y_exp, on every site x = sigma q^n of
    the grid: the entry at q^(n + y_exp), signed for sin (odd in sigma)."""
    vals = _kernels(sf, kind, grid.n_min + y_exp, grid.n_max + y_exp)
    sign = np.array(grid.sectors) ** (kind == "sin")
    return LatticeFn(grid, np.outer(sign, vals))


def special_tables(q, params):
    ctx = lattice_context(q)
    sf = SpecialFunctions(ctx)
    q = ctx.q
    k_max = params["k_max"]

    lines = ["k,point,cos,sin"]
    for k, c, s in zip(range(-k_max, k_max + 1),
                       *(_kernels(sf, kind, -k_max, k_max).tolist()
                         for kind in ("cos", "sin"))):
        lines.append(f"{k},{repr(float(ctx.qpow(k)))},{repr(c)},{repr(s)}")
    table = "\n".join(lines) + "\n"

    # the kernels at q^m, m = -14 ... 12; z / q^2 is the point q^(m - 2)
    cos, sin = (dict(zip(range(-14, 13), _kernels(sf, kind, -14, 12).tolist()))
                for kind in ("cos", "sin"))
    rec = []
    for m in range(-12, 13, 2):
        z = q ** m
        rec.append(abs((cos[m] - cos[m - 2]) / z + q ** -2 * sin[m - 2]))
        rec.append(abs((sin[m] - sin[m - 2]) / z - cos[m]))
    for m in range(-9, 12, 2):
        z = q ** m
        rec.append(abs((sin[m] - sin[m - 2]) / z - cos[m])
                   / max(1.0, abs(cos[m])))
    rows = [row("recurrences", worst(rec), 1e-12)]

    grid = LatticeGrid(ctx, -8, 8)
    deriv = []
    for y_exp in (0, 1, 3):
        y = ctx.qpow(y_exp)
        cos_f = _sampled_kernel(sf, grid, "cos", y_exp)
        sin_f = _sampled_kernel(sf, grid, "sin", y_exp)
        rhs_c = sin_f.L_shift(1).scale(-ctx.inv_lam / q * y)
        rhs_s = cos_f.L_shift(-1).scale(ctx.inv_lam * q * y)
        scale = max(rhs_c.max_abs_interior(), rhs_s.max_abs_interior(), 1.0)
        deriv.append((cos_f.nabla_fn() - rhs_c).max_abs_interior() / scale)
        deriv.append((sin_f.nabla_fn() - rhs_s).max_abs_interior() / scale)
    rows.append(row("derivative-relations", worst(deriv), 1e-10))

    # second derivative reproduces the eigenvalue at y = q
    y = ctx.qpow(1)
    eig = []
    cos_f = _sampled_kernel(sf, grid, "cos", 1)
    sin_f = _sampled_kernel(sf, grid, "sin", 1)
    for f, fac in ((cos_f, 1.0 / q), (sin_f, q)):
        lhs = f.nabla2_fn()
        rhs = f.scale(-y * y * ctx.inv_lam ** 2 * fac)
        cols = lhs.valid_slice()
        for a, b in zip(lhs.data[:, cols].ravel(), rhs.data[:, cols].ravel()):
            if abs(a) < 1e-200 and abs(b) < 1e-200:
                continue
            eig.append(abs(a - b) / max(abs(a), abs(b)))
    rows.append(row("eigenvalue-relation", worst(eig), 1e-9))

    # Gram matrix of both kernels over |k| <= 60: gram[kind][n][m] sums
    # q^-2k kernel(q^-2(k+n)) kernel(q^-2(k+m)) in order of k
    nq = sf.n_q()
    ns = range(-6, 7)
    w = sf.point_row(-120, 120)[::-1]  # q^-2k, k = -60 ... 60
    # the kernel at q^-2(k+n) is entry 66 - (k + n) of a row from q^-132
    at = 66 - np.add.outer(ns, range(-60, 61))
    gram = {}
    for kind in ("cos", "sin"):
        kern = sf.kernel_row(kind, -132, 132)[at]
        gram[kind] = running_sum(w * kern[:, None] * kern[None]).tolist()
    diag, off = [], []
    for (i, n), (j, m) in itertools.product(enumerate(ns), repeat=2):
        acc_c, acc_s = gram["cos"][i][j], gram["sin"][i][j]
        if n == m:
            want = q ** (2 * n) / nq ** 2
            diag += [abs(acc_c - want) / want, abs(acc_s - want) / want]
        else:
            off += [abs(acc_c), abs(acc_s)]
    rows.append(row("orthogonality-diagonal", worst(diag), 1e-10))
    rows.append(row("orthogonality-offdiagonal", worst(off), 1e-10))

    consts = sf.gauss_sum_constants(1.0)
    rows.append(row("gauss-constants",
                    worst(abs(a - b) for a, b in consts.values()), 1e-12))

    return (rows, {"q": str(ctx.q), "k_max": k_max},
            [("special_values.csv", table)])


# -- fourier ------------------------------------------------------------------


def fourier(q, params):
    ctx = lattice_context(q)
    qf = QFourier(ctx)
    seed, m_cut = params["seed"], params["m_cut"]
    rng = random.Random(seed)

    iso_c, iso_s, rt_c, rt_s, dbl = [], [], [], [], []
    for _ in range(5):
        f = rand_seq(rng, ctx)
        g = qf.qft_cos(f)
        a = f.weighted_norm_sq()
        iso_c.append(abs(a - g.weighted_norm_sq()) / a)
        rt_c.append((qf.qft_cos_inverse(g) - f).max_abs())
        dbl.append((qf.qft_cos(g) - f).max_abs())
        fo = rand_seq(rng, ctx, family="odd")
        go = qf.qft_sin(fo)
        b = fo.weighted_norm_sq()
        iso_s.append(abs(b - go.weighted_norm_sq()) / b)
        rt_s.append((qf.qft_sin_inverse(go) - fo).max_abs())
    rows = [row("isometry-cos", worst(iso_c), 1e-10),
            row("isometry-sin", worst(iso_s), 1e-10),
            row("round-trip-cos", worst(rt_c), 1e-8),
            row("round-trip-sin", worst(rt_s), 1e-8),
            row("double-transform", worst(dbl), 1e-8)]

    ks = range(-10, 11)
    step_dev = []
    for M in (-1, 0, 2):
        direct = qf.step_transform(M, ks)
        step_dev += [abs(direct[k] - qf.step_closed_form(M, k)) for k in ks]
    rows.append(row("step-closed-form", worst(step_dev), 1e-8))

    inv_dev = []
    for M in (0, 1):
        g = qf.step_inverse(M, range(-6, 7))
        inv_dev += [abs(g[n] - (1.0 if n <= M else 0.0))
                    for n in range(-6, 7)]
    rows.append(row("step-round-trip", worst(inv_dev), 1e-8))

    direct = qf.step_transform(m_cut, ks)
    lines = ["k,value"]
    for k in ks:
        lines.append(f"{k},{repr(float(np.real(direct[k])))}")
    table = "\n".join(lines) + "\n"

    return (rows, {"q": str(ctx.q), "seed": seed, "m_cut": m_cut},
            [("step_transform.csv", table)])


# -- spectrum -----------------------------------------------------------------


def spectrum(q, params):
    ctx = lattice_context(q)
    lo, hi = params["window"]
    mass, n_max = params["mass"], params["n_max"]
    rep = build_representation(LatticeGrid(ctx, lo, hi))
    H = Hamiltonian(rep, mass=mass)

    lines = ["family,label,n,energy,residual"]
    resids = []
    sl = rep.interior(2)
    plus = rep.grid.row(1)
    for fam in ("C", "S"):
        for lab in ("2n+1", "2n"):
            for n in range(n_max):
                psi, e = stationary_state(rep, fam, lab, n, 1, mass)
                c = rep.coords(psi)
                r = (H.stencil @ c)[plus] - e * c[plus]
                denom = np.max(np.abs(e * c[plus, sl]))
                resid = float(np.max(np.abs(r[sl])) / denom)
                resids.append(resid)
                lines.append(f"{fam},{lab},{n},{repr(float(e))},"
                             f"{repr(resid)}")
    rows = [row("eigenvalue-table", worst(resids), 1e-6),
            row("heisenberg-relation", rep.relation_residual(), 1e-12),
            row("nabla-adjoint", rep.adjoint_residual(), 1e-10)]

    used = {"q": str(ctx.q), "window": [lo, hi], "mass": mass,
            "n_max": n_max}
    return rows, used, [("spectrum.csv", "\n".join(lines) + "\n")]


# -- evolve -------------------------------------------------------------------


# the initial state's keys and the values run when a config omits one
INITIAL = {"family": "C", "label": "2n+1", "n": 0, "sector": 1}


def _potential_sites(grid, pot):
    """A config's {"[sigma, n]": value} map as {(sigma, n): value}; a key
    that is no site of the grid or has no finite real value raises."""
    if not isinstance(pot, dict):
        raise ValueError(f"potential must be null or a map, got {pot!r}")
    sites = {}
    for key, val in pot.items():
        try:
            site = tuple(json.loads(key))
        except (TypeError, ValueError):
            site = ()
        if not (len(site) == 2 and {type(v) for v in site} == {int}
                and site[0] in grid.sectors
                and grid.n_min <= site[1] <= grid.n_max):
            raise ValueError(f"potential key {key!r} is not a site [sigma, n]"
                             f" with n in [{grid.n_min}, {grid.n_max}]")
        # int and float compare exactly: no NaN, inf or too large an int
        if type(val) not in (int, float) or not abs(val) <= sys.float_info.max:
            raise ValueError(f"potential value at {key!r} is not a finite "
                             f"real: {val!r}")
        sites[site] = val
    return sites


def evolve(q, params):
    ctx = lattice_context(q)
    lo, hi = params["window"]
    seed, dt, steps, mass = (params[k] for k in ("seed", "dt", "steps",
                                                 "mass"))
    initial = {**INITIAL, **params["initial"]}
    for key, val in initial.items():
        if key not in INITIAL or type(val) is not type(INITIAL[key]):
            raise ConfigError(f"initial: {key!r}: {val!r} does not fit "
                              f"{INITIAL} (keys and value types)")
    grid = LatticeGrid(ctx, lo, hi)
    pot = params["potential"]
    if pot is not None:
        pot = LatticeFn.from_sites(grid, _potential_sites(grid, pot)).data
    rep = build_representation(grid)
    H = Hamiltonian(rep, mass=mass, potential=pot)
    psi0, _ = stationary_state(rep, **initial, mass=mass)
    start = EvolutionState(psi0)
    final = evolve_state(start, H, dt, steps, record=True)
    rows = [row("norm-drift", abs(final.norm() - start.norm()), 1e-8),
            row("energy-drift", abs(H.energy(rep.coords(final.psi))
                                    - H.energy(rep.coords(psi0))), 1e-8)]

    # drift of |psi| under the analytic propagator, for the initial state
    # and two reference states; the deep window keeps the expansion error
    # at the cut
    deep = build_representation(LatticeGrid(ctx, -36, 12))
    drift = []
    for fam, lab, n in dict.fromkeys((
            (initial["family"], initial["label"], initial["n"]),
            ("C", "2n+1", 0), ("C", "2n", 1))):
        psi, _ = stationary_state(deep, fam, lab, n, 1, mass)
        psit = free_evolve(deep, psi, 1.0, family=fam, mass=mass)
        drift += [abs(abs(psit.value(sg, m)) - abs(psi.value(sg, m)))
                  for m in range(-12, 13) for sg in (1, -1)]
    rows.append(row("stationarity-drift", worst(drift), 1e-6))

    # continuity for a random low-energy packet after 37 steps and for a
    # band-limited cos/sin mix after one long step
    rng = random.Random(seed)
    packet = evolve_state(EvolutionState(eigen_packet(rep, H, rng)), H, dt,
                          steps=37)
    pc, _ = stationary_state(rep, "C", "2n+1", 0, 1, mass)
    ps, _ = stationary_state(rep, "S", "2n+1", 0, 1, mass)
    mix = rep.lattice_fn(H.band_limit(rep.coords(pc + ps.scale(0.7j)), 5.0))
    mixed = evolve_state(EvolutionState(mix), H, 0.37)
    rows.append(row("continuity", worst(
        continuity_residual(state.psi, H, dt=dt) for state in (packet, mixed)),
        1e-6))

    probe = rand_lattice_fn(rng, rep.grid)
    rows.append(row("noether-current", check_noether(probe, mass=mass), 1e-10))
    # quadratic-form comparison integrates shifted derivatives, whose
    # support must stay 6 sites clear of the window edge
    compact = rand_lattice_fn(rng, rep.grid, lo=lo + 6, hi=hi - 6)
    rows.append(row("adjoint-identity", energy_form_residual(compact, mass),
                    1e-12))

    used = {"q": str(ctx.q), "window": [lo, hi], "dt": dt, "steps": steps,
            "mass": mass, "seed": seed, "initial": initial}
    return rows, used, [("history.csv", history_to_csv(final))]


# -- gauge --------------------------------------------------------------------


def gauge(q, params):
    cfg = dict(params, q=lattice_context(q).q)
    return scenario_report(cfg), cfg, ()


# -- oscillator ---------------------------------------------------------------


def oscillator(q, params):
    ctx = lattice_context(q)
    lo, hi = params["window"]
    levels, m_index = params["levels"], params["m_index"]
    rep = build_representation(LatticeGrid(ctx, lo, hi))
    pair = build_ladder(rep, m_index=m_index)
    rows = [row("commutator-normalized", pair.commutator_residual(), 1e-10)]

    if m_index == 1:
        psi0 = ground_state(pair)
        rows += [
            row("ground-state-defect", pair.lowering_defect(psi0), 1e-8),
            row("ground-series-match", series_match_residual(pair, psi0),
                1e-8),
            row("raising-identity", raising_on_ground_residual(pair, psi0),
                1e-10),
            row("hermite-tower", worst(hermite_match_residuals(pair, 6)),
                1e-6),
        ]
        table = spectrum_table(pair, n_levels=levels)
        gp = gaussian_fourier_pair(ctx)
        rows += [
            row("ladder-spectrum", worst(r for _, _, r in table), 1e-6),
            row("gaussian-pair", gp["max_rel"], 1e-8),
            row("gaussian-constants",
                worst(c["deviation"] for c in gp["constants"].values()),
                1e-12),
            row("number-operator-form", pair.hamiltonian_residual(), 1e-10),
            row("raising-xi-exchange", pair.raising_xi_residual(), 1e-10),
        ]
        lines = ["n,energy,residual"]
        for n, e, r in table:
            lines.append(f"{n},{repr(float(e))},{repr(float(r))}")
        extra = [("levels.csv", "\n".join(lines) + "\n"),
                 ("ground_state.csv", to_csv(psi0)),
                 ("gaussian_pair.json",
                  json.dumps(gp, indent=2, sort_keys=True) + "\n")]
    else:
        extra = [("levels.csv", level_table_csv(pair, n_levels=levels))]

    used = {"q": str(ctx.q), "window": [lo, hi], "levels": levels,
            "m_index": m_index}
    return rows, used, extra


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """One battery parameter: config key, default, flag and valid range.

    `kind` is int, float, str, dict, "window" (two ints LO < HI) or None
    (any JSON value).  `low` is the smallest int allowed, the bound a
    float must exceed, or the smallest span of a window.  `flag` is the
    option spelling when it is not the key's; False marks a config-file
    key with no flag.
    """

    key: str
    default: object
    help: str = ""
    kind: object = int
    low: object = None
    choices: tuple = None
    flag: str = None

    @property
    def option(self):
        if self.flag is False:
            return None
        return self.flag or "--" + self.key.replace("_", "-")

    def pick(self, given):
        """The given value (a default when absent or null), checked."""
        value = given.get(self.key)
        return self.check(self.default if value is None else value)

    def check(self, value):
        """The value converted to its kind; ConfigError when out of range
        or when no flag could spell it, such as a bool, or a float for an
        int key."""
        if value is None or self.kind is None:
            return value
        if self.kind == "window":
            return _window(value, self.low or 1)
        try:
            if isinstance(value, bool):
                raise TypeError("a bool is no flag value")
            out = _int(value) if self.kind is int else self.kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{self.key}: cannot read {value!r}") from exc
        if self.kind is float and not math.isfinite(out):
            raise ConfigError(f"{self.key} must be finite, got {value!r}")
        if self.low is not None and (out <= self.low if self.kind is float
                                     else out < self.low):
            bound = ">" if self.kind is float else ">="
            raise ConfigError(f"{self.key} must be {bound} {self.low}, "
                              f"got {value!r}")
        if self.choices is not None and out not in self.choices:
            raise ConfigError(f"{self.key} must be one of {self.choices}, "
                              f"got {value!r}")
        return out


def _int(value):
    """int(value) for an int or a string of one, as a flag spells it;
    TypeError for any other value, a float or a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _window(value, span):
    message = f"window must be two integers LO < HI, got {value!r}"
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(message)
    try:
        lo, hi = map(_int, value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if lo >= hi:
        raise ConfigError(message)
    if hi - lo < span:
        raise ConfigError(f"this battery needs a window spanning >= {span}, "
                          f"got {value!r}")
    return lo, hi


@dataclass(frozen=True)
class Battery:
    run: object
    help: str
    params: tuple


def _q(default):
    return Param("q", default, "deformation parameter q > 1, a decimal or a "
                 "fraction such as 3/2; lattice checks need q to be a double",
                 kind=str)


def _window_param(default, span=1):
    return Param("window", default, "lattice exponent range", kind="window",
                 low=span)


def _seed(default=0):
    return Param("seed", default, "RNG seed", low=0)


_MASS = Param("mass", 1.0, "particle mass", kind=float, low=0.0)

REGISTRY = {
    "verify-algebra": Battery(
        verify_algebra,
        "normal-ordering ring: relations, bar, associativity, derivative "
        "extraction",
        (_seed(), Param("trials", 200, "random elements", low=1))),
    "leibniz": Battery(
        leibniz,
        "field calculus: product rules, comultiplication, kernel and "
        "image, one-form product rules and d^2 = 0",
        (_q("3/2"), _seed(), Param("trials", 500, "random pairs", low=1))),
    "integrate": Battery(
        integrate,
        "Jackson integrals: closed forms, Stokes, Green, hermiticity, "
        "inverse-derivative series; or one definite integral",
        (_q("2"), _seed(), Param("trials", 100, "random fields", low=1),
         Param("poly", None, "integrand, e.g. '2*x^3 - x^-1 + 1'", kind=str),
         Param("from_exp", None, "lower lattice exponent (point q^N)",
               flag="--from"),
         Param("to_exp", None, "upper lattice exponent (point q^M)",
               flag="--to"),
         Param("sector", 1, "half-line sign", choices=(1, -1)))),
    "special-tables": Battery(
        special_tables,
        "deformed trig tables, recurrences, orthogonality",
        (_q("2"),
         Param("k_max", 12, "table half-width in lattice exponents", low=0))),
    "fourier": Battery(
        fourier,
        "transform isometry, inversion, step functions",
        (_q("2"), _seed(),
         Param("m_cut", 0, "step cut exponent for the CSV table"))),
    "spectrum": Battery(
        spectrum,
        "second-derivative eigenvalue table, Heisenberg relation and "
        "nabla adjoint on the lattice window",
        (_q("2"), _window_param((-12, 12)),
         Param("n_max", 3, "levels per family", low=1), _MASS)),
    "evolve": Battery(
        evolve,
        "unitary evolution: norm and energy drift, stationarity, "
        "continuity, Noether current",
        # the adjoint identity keeps its probe 6 sites clear of both edges
        (_q("2"), _window_param((-12, 12), span=14), _seed(),
         Param("dt", 1e-3, "time step", kind=float, low=0.0),
         Param("steps", 200, "step count", low=1), _MASS,
         Param("initial", INITIAL, kind=dict, flag=False),
         Param("potential", None, kind=None, flag=False))),
    "gauge": Battery(
        gauge,
        "covariance battery for the gauged derivative and curvature",
        (_q(DEFAULT_SCENARIO["q"]),
         _window_param(tuple(DEFAULT_SCENARIO["window"])),
         _seed(DEFAULT_SCENARIO["seed"]),
         Param("dt", DEFAULT_SCENARIO["dt"], "time step", kind=float,
               low=0.0),
         Param("transforms", DEFAULT_SCENARIO["transforms"],
               "random phase transforms", low=1),
         Param("einbein_amplitude", DEFAULT_SCENARIO["einbein_amplitude"],
               kind=float, flag=False),
         Param("alpha_amplitude", DEFAULT_SCENARIO["alpha_amplitude"],
               kind=float, flag=False))),
    "oscillator": Battery(
        oscillator,
        "ladder pair, ground state, level table, Gaussian transform pair, "
        "number-operator form and xi exchange",
        (_q("2"), _window_param((-12, 12)),
         Param("levels", 4, "levels to tabulate", low=1),
         Param("m_index", 1, "ladder index m", low=1))),
}


def parse_q(value):
    """q as one exact rational: a fraction as written, a decimal as the
    exact value of its double."""
    text = str(value).strip()
    try:
        q = Fraction(text) if "/" in text else Fraction(float(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse q={value!r} as a finite "
                          f"number") from exc
    if not q > 1:
        raise ConfigError("q must be greater than 1")
    return q


def resolve(name, given):
    """q and validated parameters: given values win over defaults.  A
    battery that declares no q gets None."""
    params = {p.key: p.pick(given) for p in REGISTRY[name].params}
    if "q" not in params:
        return None, params
    return parse_q(params.pop("q")), params


def run(name, given):
    """Resolve a battery's parameters and run it: (rows, used, extra).

    Floating-point overflow and invalid operations stay silent: `row`
    fails every NaN or inf residual, and a configuration the library
    cannot compute raises one of LIBRARY_ERRORS.
    """
    q, params = resolve(name, given)
    with np.errstate(all="ignore"):
        return REGISTRY[name].run(q, params)
