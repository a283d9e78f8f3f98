"""Residual batteries: one per CLI subcommand, shared with the acceptance gate.

A battery checks one family of the library's identities.  It is a
function `(ctx, params) -> (rows, used, extra)`: `rows` holds one
verdict per check (name, worst residual, tolerance, ok), `used` is the
effective configuration echoed into the report, and `extra` lists
further artifacts as (file name, text) pairs.

`REGISTRY` records per subcommand its battery, the arithmetic backend
it demands and its parameters with their defaults.  `run` resolves a
battery's parameters against the registry (given values win over
defaults), validates them, picks the backend from q and calls the
battery; the CLI builds its flags and help from the same records.
"""

import itertools
import json
import math
import random
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
    leibniz_residual,
    morphism_residual,
    nabla,
    nabla_preimage,
)
from .fourier import QFourier, SublatticeSeq, WindowTooSmall
from .gauge import DEFAULT_SCENARIO, RouteMismatch, scenario_report
from .integration import (
    DivergentBranch,
    NotConverged,
    NotIntegrable,
    ParityMismatch,
    check_green,
    definite_integral,
    improper_integral,
    monomial_integral_closed_form,
)
from .lattice import (
    GridMismatch,
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    to_csv,
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
    experiment_from_json,
    free_evolve,
    history_to_csv,
    stationary_state,
)
from .special import DivergentProduct, SpecialFunctions


class ConfigError(Exception):
    """Bad flag or config-file value; maps to exit status 2."""


# Exceptions the library raises when a configuration lies outside what a
# battery can compute (window too narrow, q too large for doubles, ...).
# The CLI reports them as configuration errors, exit status 2.
LIBRARY_ERRORS = (
    DivergentBranch, DivergentProduct, GridMismatch, GridTooSmall,
    InsufficientPadding, InternalOrderingError, NoDecay,
    NonHermitianHamiltonian, NotConverged, NotInImage, NotIntegrable,
    OverflowError, ParityMismatch, RouteMismatch, ValueError, WindowTooSmall,
)

# Below this q the normalising products (q^-4; q^-4)_inf of the double
# backend underflow (they fall like exp(-pi^2 / (24 ln q))).
Q_MIN_DOUBLE = 1.001


# -- verdicts -----------------------------------------------------------------


def row(check, residual, tolerance=0.5):
    """One verdict; it passes only on a finite residual below tolerance.

    All-or-nothing checks pass a bool that is true on failure: residual 1
    against tolerance 0.5.
    """
    residual = float(residual)
    return {"check": check, "residual": residual,
            "tolerance": float(tolerance), "ok": bool(residual < tolerance)}


def worst(residuals):
    """Largest residual (0.0 for none); NaN as soon as one is NaN."""
    out = 0.0
    for r in residuals:
        r = float(r)
        if r != r:
            return r
        if r > out:
            out = r
    return out


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


def rand_poly(rng, ctx, max_terms=5, span=6):
    coeffs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        n = rng.randrange(-span, span + 1)
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


def rand_seq(rng, ctx, k_lo=-40, k_hi=40, family="even", center=2):
    vals = []
    for k in range(k_lo, k_hi + 1):
        prof = ctx.qpow(-((k - center) ** 2))
        vals.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * prof)
    return SublatticeSeq(ctx, k_lo, np.array(vals), family=family)


def eigen_packet(rep, H, rng, e_cut=0.5, per_sector=4):
    c = {}
    for s in rep.grid.sectors:
        evals, evecs = H.eig(s)
        idx = [i for i in range(len(evals)) if evals[i] < e_cut][:per_sector]
        if not idx:
            raise ConfigError("energy cut leaves no modes in the window")
        v = np.zeros(rep.grid.size, dtype=complex)
        for i in idx:
            v += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * evecs[:, i]
        c[s] = v
    total = math.sqrt(sum(np.vdot(v, v).real for v in c.values()))
    return rep.lattice_fn({s: v / total for s, v in c.items()})


# -- verify-algebra -----------------------------------------------------------


def verify_algebra(ctx, params):
    # the normal-ordering ring is symbolic in the square root of q;
    # q only pins the backend contract and is echoed back
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

    return rows, {"q": str(ctx.q), "trials": trials, "seed": seed}, ()


# -- leibniz ------------------------------------------------------------------


def leibniz(ctx, params):
    trials, seed = params["trials"], params["seed"]
    rng = random.Random(seed)

    form1 = form2 = comult = morph = True
    for _ in range(trials):
        f = rand_poly(rng, ctx)
        g = rand_poly(rng, ctx)
        form1 = form1 and leibniz_residual(f, g, form=1).is_zero()
        form2 = form2 and leibniz_residual(f, g, form=2).is_zero()
        comult = comult and comultiplication_residual(f, g).is_zero()
        morph = morph and morphism_residual(f).is_zero()
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

    return rows, {"q": str(ctx.q), "trials": trials, "seed": seed}, ()


# -- integrate ----------------------------------------------------------------


def integrate(ctx, params):
    trials, seed = params["trials"], params["seed"]
    rng = random.Random(seed)
    used = {"q": str(ctx.q), "trials": trials, "seed": seed,
            "backend": ctx.backend}

    # closed form for monomial integrals, both endpoint parities
    if ctx.exact:
        agree = True
        for n in range(-5, 6):
            if n == -1:
                continue
            h = LaurentPoly.monomial(ctx, n)
            agree = agree and definite_integral(h, -4, 4) == ctx.coerce(
                monomial_integral_closed_form(ctx, n, -4, 4))
            agree = agree and definite_integral(h, -3, 5) == ctx.coerce(
                monomial_integral_closed_form(ctx, n, -3, 5))
        rows = [row("trace-vs-closed-form", not agree)]
        h = LaurentPoly.monomial(ctx, -1)
        rows.append(row("x-inverse-rule", definite_integral(h, -6, 4)
                        != ctx.coerce(ctx.lam * 5)))
        stokes = True
        for _ in range(trials):
            coeffs = {rng.randrange(-4, 5): Fraction(rng.randrange(-9, 10), 3)
                      for _ in range(4)}
            f = LaurentPoly(ctx, {n: ctx.coerce(c)
                                  for n, c in coeffs.items()})
            N = rng.randrange(-6, 3)
            M = rng.randrange(N + 1, 9)
            if (M - N) % 2:
                M += 1
            got = definite_integral(nabla(f), N, M)
            want = f.evaluate(ctx.qpow(M)) - f.evaluate(ctx.qpow(N))
            stokes = stokes and got == ctx.coerce(want)
        rows.append(row("stokes", not stokes))
        return rows, used, ()

    closed = []
    for n in range(-5, 6):
        if n == -1:
            continue
        h = LaurentPoly.monomial(ctx, n)
        for lo, hi in ((-4, 4), (-3, 5)):
            want = monomial_integral_closed_form(ctx, n, lo, hi)
            got = definite_integral(h, lo, hi)
            closed.append(abs(got - want) / max(1.0, abs(want)))
    h = LaurentPoly.monomial(ctx, -1)
    rows = [row("trace-vs-closed-form", worst(closed), 1e-12),
            row("x-inverse-rule",
                abs(definite_integral(h, -6, 4) - ctx.lam * 5), 1e-12)]

    grid = LatticeGrid(ctx, -12, 12)
    stokes = []
    for _ in range(trials):
        f = rand_lattice_fn(rng, grid)
        got = definite_integral(f.nabla_fn(), -7, 7)
        want = f.value(1, 7) - f.value(1, -7)
        stokes.append(abs(got - want) / max(1.0, abs(want)))
    rows.append(row("stokes", worst(stokes), 1e-12))

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
    rows.append(row("partial-integration", worst(partial), 1e-12))
    rows.append(row("nabla2-hermiticity", worst(herm), 1e-12))
    rows.append(row("green-identity", worst(green), 1e-12))
    return rows, used, ()


# -- special-tables -----------------------------------------------------------


def special_tables(ctx, params):
    sf = SpecialFunctions(ctx)
    q = ctx.q
    k_max = params["k_max"]

    lines = ["k,point,cos,sin"]
    for k in range(-k_max, k_max + 1):
        z = ctx.qpow(k)
        lines.append(f"{k},{repr(float(z))},{repr(float(sf.cos_q(z)))},"
                     f"{repr(float(sf.sin_q(z)))}")
    table = "\n".join(lines) + "\n"

    rec = []
    for l in range(-6, 7):
        z = q ** (2 * l)
        rec.append(abs((sf.cos_q(z) - sf.cos_q(z / q ** 2)) / z
                       + q ** -2 * sf.sin_q(z / q ** 2)))
        rec.append(abs((sf.sin_q(z) - sf.sin_q(z / q ** 2)) / z
                       - sf.cos_q(z)))
    for l in range(-5, 6):
        z = q ** (2 * l + 1)
        rec.append(abs((sf.sin_q(z) - sf.sin_q(z / q ** 2)) / z
                       - sf.cos_q(z)) / max(1.0, abs(sf.cos_q(z))))
    rows = [row("recurrences", worst(rec), 1e-12)]

    grid = LatticeGrid(ctx, -8, 8)
    deriv = []
    for y_exp in (0, 1, 3):
        y = ctx.qpow(y_exp)
        cos_f = LatticeFn.from_callable(grid, lambda x: sf.cos_q(x * y))
        sin_f = LatticeFn.from_callable(grid, lambda x: sf.sin_q(x * y))
        rhs_c = sin_f.L_shift(1).scale(-ctx.inv_lam / q * y)
        rhs_s = cos_f.L_shift(-1).scale(ctx.inv_lam * q * y)
        scale = max(rhs_c.max_abs_interior(), rhs_s.max_abs_interior(), 1.0)
        deriv.append((cos_f.nabla_fn() - rhs_c).max_abs_interior() / scale)
        deriv.append((sin_f.nabla_fn() - rhs_s).max_abs_interior() / scale)
    rows.append(row("derivative-relations", worst(deriv), 1e-10))

    # second derivative reproduces the eigenvalue at y = q
    y = ctx.qpow(1)
    eig = []
    cos_f = LatticeFn.from_callable(grid, lambda x: sf.cos_q(x * y))
    sin_f = LatticeFn.from_callable(grid, lambda x: sf.sin_q(x * y))
    for f, fac in ((cos_f, 1.0 / q), (sin_f, q)):
        lhs = f.nabla2_fn()
        rhs = f.scale(-y * y * ctx.inv_lam ** 2 * fac)
        lo, hi = lhs.valid_window()
        for s in grid.sectors:
            for n in range(lo, hi + 1):
                a = lhs.value(s, n)
                b = rhs.value(s, n, require_valid=False)
                if abs(a) < 1e-200 and abs(b) < 1e-200:
                    continue
                eig.append(abs(a - b) / max(abs(a), abs(b)))
    rows.append(row("eigenvalue-relation", worst(eig), 1e-9))

    # Gram matrix of both kernels over |k| <= 60
    nq = sf.n_q()
    diag, off = [], []
    for n, m in itertools.product(range(-6, 7), repeat=2):
        acc_c = acc_s = 0.0
        for k in range(-60, 61):
            w = q ** (-2 * k)
            acc_c += w * sf.cos_q(q ** (-2 * (k + n))) \
                * sf.cos_q(q ** (-2 * (k + m)))
            acc_s += w * sf.sin_q(q ** (-2 * (k + n))) \
                * sf.sin_q(q ** (-2 * (k + m)))
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


def fourier(ctx, params):
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


def spectrum(ctx, params):
    lo, hi = params["window"]
    mass, n_max = params["mass"], params["n_max"]
    rep = build_representation(LatticeGrid(ctx, lo, hi))
    H = Hamiltonian(rep, mass=mass)

    lines = ["family,label,n,energy,residual"]
    resids = []
    sl = rep.interior(2)
    for fam in ("C", "S"):
        for lab in ("2n+1", "2n"):
            for n in range(n_max):
                psi, e = stationary_state(rep, fam, lab, n, 1, mass)
                c = rep.coeffs(psi)
                r = H.matrices[1] @ c[1] - e * c[1]
                denom = np.max(np.abs(e * c[1][sl]))
                resid = float(np.max(np.abs(r[sl])) / denom)
                resids.append(resid)
                lines.append(f"{fam},{lab},{n},{repr(float(e))},"
                             f"{repr(resid)}")
    rows = [row("eigenvalue-table", worst(resids), 1e-6)]

    used = {"q": str(ctx.q), "window": [lo, hi], "mass": mass,
            "n_max": n_max}
    return rows, used, [("spectrum.csv", "\n".join(lines) + "\n")]


# -- evolve -------------------------------------------------------------------


def evolve(ctx, params):
    lo, hi = params["window"]
    seed, dt, steps, mass, initial = (params[k] for k in (
        "seed", "dt", "steps", "mass", "initial"))
    exp = {"q": ctx.q, "window": [lo, hi], "dt": dt, "steps": steps,
           "mass": mass, "potential": params["potential"],
           "initial": initial}
    result = experiment_from_json(json.dumps(exp))
    H = result["hamiltonian"]
    rep = result["rep"]
    c0 = rep.coeffs(result["initial"])
    cT = rep.coeffs(result["final"].psi)
    rows = [row("norm-drift", result["norm_drift"], 1e-8),
            row("energy-drift", abs(H.energy(cT) - H.energy(c0)), 1e-8)]

    # drift of |psi| under the analytic propagator, for the initial state
    # and two reference states; the deep window keeps the expansion error
    # at the cut
    deep = build_representation(LatticeGrid(ctx, -36, 12))
    drift = []
    for fam, lab, n in dict.fromkeys((
            (initial.get("family", "C"), initial.get("label", "2n+1"),
             int(initial.get("n", 0))),
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
    mix = rep.lattice_fn(H.band_limit(rep.coeffs(pc + ps.scale(0.7j)), 5.0))
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
    return rows, used, [("history.csv", history_to_csv(result["final"]))]


# -- gauge --------------------------------------------------------------------


def gauge(ctx, params):
    cfg = dict(params, q=float(ctx.q))
    return scenario_report(cfg), cfg, ()


# -- oscillator ---------------------------------------------------------------


def oscillator(ctx, params):
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
        """The value converted to its kind; ConfigError when out of range."""
        if value is None or self.kind is None:
            return value
        if self.kind == "window":
            return _window(value, self.low or 1)
        try:
            out = self.kind(value)
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


def _window(value, span):
    try:
        lo, hi = (int(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"window must be two integers LO < HI, "
                          f"got {value!r}") from exc
    if lo >= hi:
        raise ConfigError(f"window must be two integers LO < HI, "
                          f"got {value!r}")
    if hi - lo < span:
        raise ConfigError(f"this battery needs a window spanning >= {span}, "
                          f"got {value!r}")
    return lo, hi


@dataclass(frozen=True)
class Battery:
    run: object
    backend: str  # "exact", "double" or "either"
    help: str
    params: tuple


def _q(default):
    return Param("q", default, "deformation parameter; a fraction like 3/2 "
                 "selects exact arithmetic, a decimal selects doubles",
                 kind=str)


def _window_param(default, span=1):
    return Param("window", default, "lattice exponent range", kind="window",
                 low=span)


def _seed(default=0):
    return Param("seed", default, "RNG seed", low=0)


_MASS = Param("mass", 1.0, "particle mass", kind=float, low=0.0)

REGISTRY = {
    "verify-algebra": Battery(
        verify_algebra, "exact",
        "normal-ordering ring: relations, bar, associativity, derivative "
        "extraction",
        (_q("3/2"), _seed(), Param("trials", 200, "random elements", low=1))),
    "leibniz": Battery(
        leibniz, "exact",
        "field calculus: product rules, comultiplication, kernel and image",
        (_q("3/2"), _seed(), Param("trials", 500, "random pairs", low=1))),
    "integrate": Battery(
        integrate, "either",
        "Jackson integrals: closed forms, Stokes, Green, hermiticity; or "
        "one definite integral",
        (_q("2"), _seed(), Param("trials", 100, "random fields", low=1),
         Param("poly", None, "integrand, e.g. '2*x^3 - x^-1 + 1'", kind=str),
         Param("from_exp", None, "lower lattice exponent (point q^N)",
               flag="--from"),
         Param("to_exp", None, "upper lattice exponent (point q^M)",
               flag="--to"),
         Param("sector", 1, "half-line sign", choices=(1, -1)))),
    "special-tables": Battery(
        special_tables, "double",
        "deformed trig tables, recurrences, orthogonality",
        (_q("2"),
         Param("k_max", 12, "table half-width in lattice exponents", low=0))),
    "fourier": Battery(
        fourier, "double",
        "transform isometry, inversion, step functions",
        (_q("2"), _seed(),
         Param("m_cut", 0, "step cut exponent for the CSV table"))),
    "spectrum": Battery(
        spectrum, "double",
        "second-derivative eigenvalue table on the lattice window",
        (_q("2"), _window_param((-12, 12)),
         Param("n_max", 3, "levels per family", low=1), _MASS)),
    "evolve": Battery(
        evolve, "double",
        "unitary evolution: norm and energy drift, stationarity, "
        "continuity, Noether current",
        # the adjoint identity keeps its probe 6 sites clear of both edges
        (_q("2"), _window_param((-12, 12), span=14), _seed(),
         Param("dt", 1e-3, "time step", kind=float, low=0.0),
         Param("steps", 200, "step count", low=1), _MASS,
         Param("initial", {"family": "C", "label": "2n+1", "n": 0,
                           "sector": 1}, kind=dict, flag=False),
         Param("potential", None, kind=None, flag=False))),
    "gauge": Battery(
        gauge, "double",
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
        oscillator, "double",
        "ladder pair, ground state, level table, Gaussian transform pair",
        (_q("2"), _window_param((-12, 12)),
         Param("levels", 4, "levels to tabulate", low=1),
         Param("m_index", 1, "ladder index m", low=1))),
}


def parse_q(value):
    """Backend selection: fractions run exact, decimals run double."""
    text = str(value).strip()
    try:
        q = Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse q={value!r}") from exc
    if not q > 1:
        raise ConfigError("q must be greater than 1")
    if isinstance(q, float) and not Q_MIN_DOUBLE <= q < math.inf:
        raise ConfigError(f"the double backend needs finite q >= "
                          f"{Q_MIN_DOUBLE}, got {value!r}")
    return QContext(q)


def resolve(name, given):
    """Context and validated parameters: given values win over defaults."""
    battery = REGISTRY[name]
    params = {p.key: p.pick(given) for p in battery.params}
    ctx = parse_q(params.pop("q"))
    if battery.backend not in ("either", ctx.backend):
        example = "a fraction, e.g. --q 3/2" if ctx.backend == "double" \
            else "a decimal, e.g. --q 2"
        raise ConfigError(f"this battery runs on the {battery.backend} "
                          f"backend; pass q as {example}")
    return ctx, params


def run(name, given):
    """Resolve a battery's parameters and run it: (rows, used, extra)."""
    ctx, params = resolve(name, given)
    return REGISTRY[name].run(ctx, params)
