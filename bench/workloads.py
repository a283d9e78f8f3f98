"""The four benchmark workloads, each driving qcalc's public API.

A workload is built from a seed (its set-up, timed as `setup_s`), then
runs ops by index.  Each op records its check verdicts in a `Checks`
and routes every call into the library through the tracer, so the
traced run gets one span per call at the benchmark's own call sites.
Tolerances are the ones the CLI batteries use for the same checks.
"""

import math
import operator
import os
import random
from fractions import Fraction

import numpy as np

from qcalc import algebra
from qcalc.algebra import AlgebraElement, bar, multiply, reduce_p
from qcalc.context import QContext
from qcalc.fields import (
    LaurentPoly,
    comultiplication_residual,
    leibniz_residual,
    morphism_residual,
    nabla,
    nabla_preimage,
)
from qcalc.fourier import QFourier, SublatticeSeq
from qcalc.gauge import RouteMismatch, scenario_report
from qcalc.integration import NotConverged, definite_integral
from qcalc.lattice import InsufficientPadding, LatticeGrid
from qcalc.oscillator import NoDecay, build_ladder, ground_state, spectrum_table
from qcalc.scalars import QQi, Scalar
from qcalc.schrodinger import (
    EvolutionState,
    Hamiltonian,
    build_representation,
    check_noether,
    continuity_residual,
    density_current,
    evolve,
    history_to_csv,
    stationary_state,
)

# Library exceptions an op counts as a failed check and then carries on.
LIBRARY_ERRORS = (RouteMismatch, InsufficientPadding, NoDecay, NotConverged)


def _ndarray_bytes(obj):
    """Bytes held in ndarrays among an object's attributes, one level deep."""
    total = 0
    for val in vars(obj).values():
        items = val.values() if isinstance(val, dict) else [val]
        for item in items:
            for arr in (item if isinstance(item, tuple) else (item,)):
                if isinstance(arr, np.ndarray):
                    total += arr.nbytes
    return total


def _entries(cache):
    """Entry count of a dict cache or of an lru_cache-wrapped function."""
    if cache is None:
        return 0
    if hasattr(cache, "cache_info"):
        return cache.cache_info().currsize
    return len(cache)


class KernelProbe:
    """Counts kernel lookups on one SpecialFunctions instance (traced only).

    A lookup of a (kind, z) not requested before on the instance is a
    cache miss; a miss with |z| > q^2 takes the mpmath series path.
    """

    def __init__(self, sf):
        self.sf = sf
        self.lookups = 0
        self.seen = set()
        self.series_mp = 0
        q2 = sf.ctx.q ** 2
        for kind in ("cos_q", "sin_q"):
            orig = getattr(sf, kind)

            def counted(z, with_bound=False, _orig=orig, _kind=kind):
                self.lookups += 1
                key = (_kind, float(z))
                if key not in self.seen:
                    self.seen.add(key)
                    if abs(key[1]) > q2:
                        self.series_mp += 1
                return _orig(z, with_bound)

            setattr(sf, kind, counted)

    def entries(self):
        cache = getattr(self.sf, "_cache", None)
        return len(self.seen) if cache is None else _entries(cache)


class Workload:
    """What the op loop asks of a workload besides its ops."""

    def at_boundary(self, i):
        """Whether a run may stop before op i."""
        return True

    def prepare(self, i):
        """Untimed work before op i."""

    def known_failure(self, op, check):
        """Whether today's program is known to fail this check on this op."""
        return False

    def end_counts(self):
        """Per-layer counts read once at the end of the run."""
        return {}


# -- exact-ring ---------------------------------------------------------------


def rand_element(rng, max_terms=3, span=2):
    """Random AlgebraElement, shaped as the verify-algebra battery draws them."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = (rng.randrange(-span, span + 1),
               rng.randrange(0, span + 1),
               rng.randrange(-span, span + 1))
        num = {rng.randrange(-2, 3): rng.randrange(-4, 5) or 1
               for _ in range(rng.randrange(1, 3))}
        terms[key] = Scalar(num)
    return AlgebraElement(terms)


def rand_poly(rng, ctx, max_terms=5, span=6):
    """Random LaurentPoly, shaped as the leibniz battery draws them."""
    coeffs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        n = rng.randrange(-span, span + 1)
        coeffs[n] = QQi(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)),
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)))
    return LaurentPoly(ctx, coeffs)


_ALGEBRA_CACHES = ("_MONO_CACHE", "_REDUCE_CACHE", "_BAR_CACHE")


def _coeff_parts(elements):
    """The rational parts of every coefficient of the given elements."""
    for e in elements:
        for s in e.terms.values():
            for c in s.num.values():
                yield c.re
                yield c.im


def _cost_estimate(trial):
    """Log-cost of a trial, fitted to measured trials (R^2 = 0.82): it
    grows with the top momentum power and the term count of the first
    two elements; the third element barely matters."""
    a, b = trial[:2]
    return (0.9 * max(key[1] for key in a.terms) + 0.25 * len(a.terms)
            + 0.6 * max(key[1] for key in b.terms) + 0.35 * len(b.terms))


def stratified_order(items, cost, strata, rng):
    """Interleave cost strata: each block of `strata` items from the start
    holds one item of each, whatever the seed drew."""
    ranked = sorted(items, key=cost)
    size = len(ranked) // strata
    groups = [ranked[k * size:(k + 1) * size] for k in range(strata)]
    for group in groups:
        rng.shuffle(group)
    return [group[k] for k in range(size) for group in groups]


class ExactRing(Workload):
    """Sessions of one trial per cost stratum, each starting cold.

    Every CLI invocation starts with the algebra module caches empty, so
    each session of `strata` trials does too.
    """

    pool = 1000
    strata = 50

    def __init__(self, seed):
        self.ctx = QContext(Fraction(3, 2))
        rng = random.Random(seed)
        trials = []
        for _ in range(self.pool):
            a, b, c = (rand_element(rng) for _ in range(3))
            f, g = rand_poly(rng, self.ctx), rand_poly(rng, self.ctx)
            lo = rng.randrange(-6, 3)
            hi = rng.randrange(lo + 1, 9)
            hi += (hi - lo) % 2
            trials.append((a, b, c, f, g, lo, hi))
        self.trials = stratified_order(trials, _cost_estimate, self.strata, rng)

    def at_boundary(self, i):
        return i % self.strata == 0

    def prepare(self, i):
        if i % self.strata == 0:
            self._clear_caches()

    def _clear_caches(self):
        # the caches are module state that the roadmap plans to bound,
        # possibly as lru_cache wrappers; clear whichever form is there
        for name in _ALGEBRA_CACHES:
            cache = getattr(algebra, name, None)
            if hasattr(cache, "cache_clear"):
                cache.cache_clear()
            elif cache is not None:
                cache.clear()

    def _mul(self, tr, x, y):
        out = tr.call("algebra.multiply", multiply, x, y)
        if tr.enabled:
            tr.count("algebra.multiply.terms_out", len(out.terms))
        return out

    def op(self, i, tr, chk):
        a, b, c, f, g, lo, hi = self.trials[i % self.pool]
        call = tr.call

        ab = self._mul(tr, a, b)
        left = self._mul(tr, ab, c)
        right = self._mul(tr, a, self._mul(tr, b, c))
        chk.flag("associativity", left.same_stored(right))

        bar_a = call("algebra.bar", bar, a)
        bar_bar_a = call("algebra.bar", bar, bar_a)
        chk.flag("bar-involution",
                 call("algebra.equal", operator.eq, bar_bar_a, a))
        rev = self._mul(tr, call("algebra.bar", bar, b), bar_a)
        chk.flag("bar-antihomomorphism",
                 call("algebra.equal", operator.eq,
                      call("algebra.bar", bar, ab), rev))

        red = call("algebra.reduce_p", reduce_p, ab)
        red_ab = self._mul(tr, call("algebra.reduce_p", reduce_p, a),
                           call("algebra.reduce_p", reduce_p, b))
        chk.flag("reduce-multiplicative", red.same_stored(red_ab))

        coeffs = list(ab.terms.values())
        commutes = []
        for x, y in zip(coeffs, coeffs[1:]):
            for kind, fn in (("mul", operator.mul), ("add", operator.add)):
                commutes.append(call(f"scalars.{kind}", fn, x, y)
                                == call(f"scalars.{kind}", fn, y, x))
        chk.flag("scalar-commutativity", all(commutes))
        if tr.enabled:
            parts = list(_coeff_parts((ab, left, right, red)))
            tr.count("scalars.parts", len(parts))
            tr.count("scalars.nonintegral_parts",
                     sum(1 for p in parts if p.denominator != 1))
            tr.peak("scalars.coeff_bits_max",
                    max((max(p.numerator.bit_length(),
                             p.denominator.bit_length()) for p in parts),
                        default=0))

        for form in (1, 2):
            chk.flag(f"product-rule-form{form}",
                     call("fields.leibniz_residual", leibniz_residual,
                          f, g, form).is_zero())
        chk.flag("comultiplication",
                 call("fields.comultiplication_residual",
                      comultiplication_residual, f, g).is_zero())
        chk.flag("scale-morphism",
                 call("fields.morphism_residual", morphism_residual,
                      f).is_zero())
        image = LaurentPoly(self.ctx, {n: v for n, v in f.coeffs.items()
                                       if n != -1})
        if not image.is_zero():
            pre = call("fields.nabla_preimage", nabla_preimage, image)
            chk.flag("preimage-round-trip",
                     call("fields.nabla", nabla, pre) == image)

        got = call("integration.definite_integral", definite_integral,
                   call("fields.nabla", nabla, f), lo, hi)
        want = f.evaluate(self.ctx.qpow(hi)) - f.evaluate(self.ctx.qpow(lo))
        chk.flag("stokes", got == self.ctx.coerce(want))

    def end_counts(self):
        return {f"algebra.{key}_cache.entries":
                _entries(getattr(algebra, f"_{key.upper()}_CACHE", None))
                for key in ("mono", "reduce", "bar")}


# -- lattice-window -------------------------------------------------------------


# Window half-widths, from the CLI default outwards.  Op cost grows with
# the window; with seven rungs the median op falls in the middle of the
# +-24 rung and p90 inside the +-48 one, not on a boundary between two.
LADDER = (12, 16, 20, 24, 32, 40, 48)

# Checks today's program fails on the wide windows, by check-name prefix
# and the smallest half-width where they fail.  They stay in the run and
# in the failure fraction; only a failure outside this list fails an op.
KNOWN_FAILURES = (
    ("gauge.", 12),
    ("spectrum.eigenvalue-table", 24),
    ("oscillator.", 16),
)


def _worst(values):
    """Largest residual; NaN if any residual is NaN."""
    return float(np.max(np.asarray(values, dtype=float)))


class LatticeWindow(Workload):
    q = 2.0
    n_max = 3
    levels = 4

    def __init__(self, seed):
        self.ctx = QContext(self.q)
        rng = random.Random(seed)
        self.gauge_seeds = [rng.randrange(2 ** 31) for _ in range(len(LADDER))]

    def at_boundary(self, i):
        # whole ladder cycles only, so every window weighs the same
        return i % len(LADDER) == 0

    def known_failure(self, op, check):
        w = LADDER[op % len(LADDER)]
        return any(check.startswith(prefix) and w >= w_min
                   for prefix, w_min in KNOWN_FAILURES)

    def op(self, i, tr, chk):
        w = LADDER[i % len(LADDER)]
        call = tr.call
        rep = call("schrodinger.build_representation", build_representation,
                   LatticeGrid(self.ctx, -w, w))
        probe = KernelProbe(rep.sf) if tr.enabled else None
        H = call("schrodinger.Hamiltonian", Hamiltonian, rep)
        for s in rep.grid.sectors:
            evals, evecs = call("schrodinger.Hamiltonian.eig", H.eig, s)
            chk.flag("spectrum.eig-finite", np.all(np.isfinite(evals))
                     and np.all(np.isfinite(evecs)))

        with chk.guard("spectrum", LIBRARY_ERRORS):
            resid = []
            rows = rep.interior(2)
            for fam in ("C", "S"):
                for lab in ("2n+1", "2n"):
                    for n in range(self.n_max):
                        psi, e = call("schrodinger.stationary_state",
                                      stationary_state, rep, fam, lab, n, 1)
                        c = rep.coeffs(psi)[1]
                        r = H.matrices[1] @ c - e * c
                        resid.append(np.max(np.abs(r[rows]))
                                     / np.max(np.abs(e * c[rows])))
            chk.residual("spectrum.eigenvalue-table", _worst(resid), 1e-6)

        with chk.guard("oscillator", LIBRARY_ERRORS):
            pair = call("oscillator.build_ladder", build_ladder, rep)
            chk.residual("oscillator.commutator-normalized",
                         call("oscillator.commutator_residual",
                              pair.commutator_residual), 1e-10)
            psi0 = call("oscillator.ground_state", ground_state, pair)
            chk.residual("oscillator.ground-state-defect",
                         call("oscillator.lowering_defect",
                              pair.lowering_defect, psi0), 1e-8)
            table = call("oscillator.spectrum_table", spectrum_table, pair,
                         self.levels)
            chk.residual("oscillator.ladder-spectrum",
                         _worst([r for _, _, r in table]), 1e-6)

        with chk.guard("gauge.scenario_report", LIBRARY_ERRORS):
            cfg = {"q": self.q, "window": [-w, w],
                   "seed": self.gauge_seeds[i % len(LADDER)]}
            for row in call("gauge.scenario_report", scenario_report, cfg):
                chk.flag("gauge." + row["check"],
                         row["ok"] and math.isfinite(row["residual"]))

        if tr.enabled:
            tr.count("gauge.failed", sum(1 for name in chk.failed()
                                         if name.startswith("gauge.")))
            tr.count("special.series_mp.calls", probe.series_mp)
            tr.count("schrodinger.representation.bytes", _ndarray_bytes(rep))
            tr.count("schrodinger.hamiltonian.bytes", _ndarray_bytes(H))


# -- evolve-long ----------------------------------------------------------------


def eigen_packet(rep, H, rng, e_cut=0.5, per_sector=4):
    """Normalized random mix of the lowest modes, as the evolve battery draws."""
    c = {}
    for s in rep.grid.sectors:
        evals, evecs = H.eig(s)
        v = np.zeros(rep.grid.size, dtype=complex)
        for k in np.flatnonzero(evals < e_cut)[:per_sector]:
            v += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * evecs[:, k]
        c[s] = v
    total = math.sqrt(sum(np.vdot(v, v).real for v in c.values()))
    return rep.lattice_fn({s: v / total for s, v in c.items()})


class EvolveLong(Workload):
    q = 2.0
    window = 12
    dt = 1e-3
    segment = 100

    def __init__(self, seed, out_dir):
        ctx = QContext(self.q)
        self.rep = build_representation(
            LatticeGrid(ctx, -self.window, self.window))
        self.H = Hamiltonian(self.rep)
        self.packet = eigen_packet(self.rep, self.H, random.Random(seed))
        self.norm0 = EvolutionState(self.packet).norm()
        self.csv_path = os.path.join(out_dir, "history.csv")
        self.state = EvolutionState(self.packet)
        self.recent = []  # (rho, j) of the last two steps

    def at_boundary(self, i):
        # a run ends with a segment, so its last op writes the history CSV
        return i % self.segment == 0

    def op(self, i, tr, chk):
        call = tr.call
        state = call("schrodinger.evolve", evolve, self.state, self.H,
                     self.dt, 1, True)
        _, rho, j = state.history[-1]
        if len(self.recent) == 2:
            # central difference around the previous step
            (rho_back, _), (_, j_mid) = self.recent
            div = call("lattice.LatticeFn.nabla_fn", j_mid.nabla_fn)
            drho = (rho - rho_back).scale(0.5 / self.dt)
            chk.residual("continuity-step", (drho + div).max_abs_interior(),
                         1e-6)
            # the same divergence through the scale map: nabla = q L^-1 nabla L
            shifted = call("lattice.LatticeFn.L_shift", j_mid.L_shift, 1)
            inner = call("lattice.LatticeFn.nabla_fn", shifted.nabla_fn)
            routed = call("lattice.LatticeFn.L_shift", inner.L_shift, -1)
            gap = (routed.scale(self.q) - div).max_abs_interior()
            chk.residual("divergence-routes",
                         gap / max(div.max_abs_interior(), 1e-300), 1e-12)
        self.recent = [self.recent[-1], (rho, j)] if self.recent else [(rho, j)]

        if (i + 1) % self.segment == 0:
            psi = state.psi
            chk.residual("continuity",
                         call("schrodinger.continuity_residual",
                              continuity_residual, psi, self.H, self.dt), 1e-6)
            chk.residual("noether-current",
                         call("schrodinger.check_noether", check_noether, psi),
                         1e-10)
            chk.residual("norm-drift", state.norm() - self.norm0, 1e-8)
            rho_now, j_now = call("schrodinger.density_current",
                                  density_current, psi)
            chk.residual("history-matches-state",
                         _worst([(rho_now - rho).max_abs_interior(),
                                 (j_now - j).max_abs_interior()]), 1e-12)
            text = call("schrodinger.history_to_csv", history_to_csv, state)
            with open(self.csv_path, "w") as fh:
                fh.write(text)
            if tr.enabled:
                tr.count("io.history.bytes", len(text))
            lo, hi = j.valid_window()
            rows = self.segment * len(self.rep.grid.sectors) * (hi - lo + 1)
            chk.flag("history-csv-rows", text.count("\n") == rows + 1)
            state = EvolutionState(psi, state.time)
        self.state = state


# -- q-kernels ------------------------------------------------------------------


def rand_seq(rng, ctx, k_lo=-40, k_hi=40, family="even", center=2):
    """Random SublatticeSeq, shaped as the fourier battery draws them."""
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            * ctx.qpow(-((k - center) ** 2)) for k in range(k_lo, k_hi + 1)]
    return SublatticeSeq(ctx, k_lo, np.array(vals), family=family)


_KERNEL_CHECKS = ("isometry-cos", "isometry-sin", "round-trip-cos",
                  "round-trip-sin", "step-closed-form")


def _is_power_of_two(q):
    return math.frexp(q)[0] == 0.5


class QKernels(Workload):
    """Transforms over a fresh kernel cache every six ops.

    Seven q groups in eight run at q = 2; the eighth takes a distinct q,
    drawn from the lower and the upper half of [q_lo, q_hi) in turn, so
    every 16 groups cost about the same.  Off powers of two the lattice
    points q^n are not exact doubles, and today's kernel sums come out
    inf or NaN there; those checks are known failures.
    """

    q = 2.0
    q_lo, q_hi = 1.5, 4.0
    cycle = 8
    strata = 2
    groups = 320
    plan = ("cos", "sin", "step", "cos", "sin", "step")
    step_ks = range(-10, 11)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.inputs = []
        for g in range(self.groups):
            q = self.q
            if g % self.cycle == self.cycle - 1:
                stratum = (g // self.cycle) % self.strata
                q = self.q_lo + (self.q_hi - self.q_lo) \
                    * (stratum + rng.random()) / self.strata
            ctx = QContext(q)
            ops = []
            for kind in self.plan:
                if kind == "step":
                    ops.append(rng.choice((-1, 0, 2)))
                else:
                    ops.append(rand_seq(
                        rng, ctx, family="even" if kind == "cos" else "odd"))
            self.inputs.append((ctx, ops))
        self.qf = None
        self.probe = None

    def at_boundary(self, i):
        return i % (self.strata * self.cycle * len(self.plan)) == 0

    def known_failure(self, op, check):
        ctx, _ = self.inputs[(op // len(self.plan)) % len(self.inputs)]
        return check in _KERNEL_CHECKS and not _is_power_of_two(ctx.q)

    def op(self, i, tr, chk):
        group, k = divmod(i, len(self.plan))
        ctx, ops = self.inputs[group % len(self.inputs)]
        call = tr.call
        if k == 0:
            self.qf = call("fourier.QFourier", QFourier, ctx)
            self.probe = KernelProbe(self.qf.sf) if tr.enabled else None
        qf = self.qf
        probe = self.probe
        if probe is not None:
            lookups, entries, mp = (probe.lookups, probe.entries(),
                                    probe.series_mp)
        kind, arg = self.plan[k], ops[k]
        if kind == "step":
            with chk.guard("step", LIBRARY_ERRORS):
                direct = call("fourier.step_transform", qf.step_transform,
                              arg, self.step_ks)
                chk.residual("step-closed-form", _worst(
                    [abs(direct[kk] - qf.step_closed_form(arg, kk))
                     for kk in self.step_ks]), 1e-8)
        else:
            fwd = qf.qft_cos if kind == "cos" else qf.qft_sin
            inv = qf.qft_cos_inverse if kind == "cos" else qf.qft_sin_inverse
            with chk.guard(kind, LIBRARY_ERRORS):
                g = call("fourier.transform", fwd, arg)
                back = call("fourier.transform", inv, g)
                a = arg.weighted_norm_sq()
                chk.residual(f"isometry-{kind}",
                             (a - g.weighted_norm_sq()) / a, 1e-10)
                chk.residual(f"round-trip-{kind}", (back - arg).max_abs(),
                             1e-8)
            if tr.enabled:
                # computed: two dense N x N float64 kernel matrices
                tr.count("fourier.kernel_matrix.bytes",
                         2 * 8 * arg.values.size ** 2)
        if probe is not None:
            tr.count("special.lookups", probe.lookups - lookups)
            tr.count("special.misses", probe.entries() - entries)
            tr.count("special.series_mp.calls", probe.series_mp - mp)
            tr.peak("special.cache.entries", probe.entries())


def make(name, seed, out_dir):
    """Set up the named workload from its seed."""
    if name == "evolve-long":
        return EvolveLong(seed, out_dir)
    makers = {"exact-ring": ExactRing, "lattice-window": LatticeWindow,
              "q-kernels": QKernels}
    return makers[name](seed)
