"""The lattice engine's batteries: special-tables, fourier, spectrum,
evolve, gauge and oscillator.

They sample the lattice points +-q^n in doubles, on
`lattice_context(q)`, and this is the one battery module that imports
numpy.  integrate's lattice rows (`_lattice_integral_rows`) live here
too, for the field engine's integrate to import when q is a double.
`LIBRARY_ERRORS` names the exceptions the library raises, in either
engine, when a configuration lies outside what a battery can compute.
"""

import itertools
import json
import math
import random
import sys

import numpy as np

from ..algebra import InternalOrderingError
from ..fields import NotInImage
from ..fourier import QFourier, SublatticeSeq
from ..gauge import RouteMismatch, scenario_report
from ..integration import DivergentBranch, NotConverged, ParityMismatch
from ..lattice import (
    GridMismatch,
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    check_green,
    definite_integral as lattice_integral,
    improper_integral,
    running_sum,
    to_csv,
)
from ..oscillator import (
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
from ..schrodinger import (
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
from ..special import DivergentProduct, OutOfRadius, SpecialFunctions
from ..verdicts import row, worst
from . import INITIAL, ConfigError, lattice_context


# Exceptions the library raises when a configuration lies outside what a
# battery can compute (window too narrow, q too large for doubles, ...).
# The CLI reports them as configuration errors, exit status 2.
LIBRARY_ERRORS = (
    DivergentBranch, DivergentProduct, GridMismatch, GridTooSmall,
    InsufficientPadding, InternalOrderingError, NoDecay,
    NonHermitianHamiltonian, NotConverged, NotInImage, OutOfRadius,
    OverflowError, ParityMismatch, RouteMismatch, ValueError,
)


# -- random generators (seeded) -----------------------------------------------


def rand_lattice_fn(rng, grid, lo=None, hi=None):
    lo = grid.n_min if lo is None else lo
    hi = grid.n_max if hi is None else hi
    sites = {(s, n): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for s in grid.sectors for n in range(lo, hi + 1)}
    return LatticeFn.from_sites(grid, sites)


def rand_seq(rng, ctx, family="even"):
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            * ctx.qpow(-((k - 2) ** 2)) for k in range(-40, 41)]
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


# -- integrate's lattice rows -------------------------------------------------


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


def _refuse_overflow(ctx, k, message):
    """ConfigError(message) unless q^k is a finite double: a battery
    refuses a q or a flag whose sums would leave the double range."""
    try:
        ctx.qpow(k)
    except OverflowError:
        raise ConfigError(message) from None


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
    q = ctx.q
    k_max = params["k_max"]
    _refuse_overflow(ctx, 120, f"q: q^120, the largest weight of the "
                     f"orthogonality sums, overflows a double at q = {q!r}")
    _refuse_overflow(ctx, k_max, f"k_max: q^k_max overflows a double at "
                     f"q = {q!r}, k_max = {k_max}")
    sf = SpecialFunctions(ctx)

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
    seed, m_cut = params["seed"], params["m_cut"]
    _refuse_overflow(ctx, 81, f"q: q^81, the largest weight of the random "
                     f"sequences, overflows a double at q = {ctx.q!r}")
    _refuse_overflow(ctx, 2 * m_cut, f"m_cut: q^(2 m_cut) overflows a double "
                     f"at q = {ctx.q!r}, m_cut = {m_cut}")
    qf = QFourier(ctx)
    rng = random.Random(seed)

    iso_c, iso_s, rt_c, rt_s, dbl = [], [], [], [], []
    for _ in range(5):
        f = rand_seq(rng, ctx)
        g = qf.qft_cos(f)
        a = f.weighted_norm_sq()
        iso_c.append(abs(a - g.weighted_norm_sq()) / a)
        # the inverse is the forward transform: one sum serves both rows
        rt_c.append((qf.qft_cos_inverse(g) - f).max_abs())
        dbl.append(rt_c[-1])
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
