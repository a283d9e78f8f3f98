"""Benchmark of qcalc: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qcalc from `src/` there.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones listed in BENCHMARK.json; with
`--trace 1` they are the per-layer ones, from a run whose traced blocks,
with a span around every call the benchmark makes into qcalc, take
turns with untraced ones; the two give the tracing overhead.  See
bench/README.md.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools are pinned before numpy loads, so a run measures
# the program rather than thread scheduling on a shared machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Runs and ops are timed in process CPU time: the program is
# single-threaded and CPU-bound, so this equals wall time on an idle
# machine, and it leaves out the time a shared host gives other tenants.
# A run on a busy host then still does the same ops as on an idle one.
CLOCK = time.process_time
SETUP_PROBES = 5
# A run must end within 180 s of wall time: each op loop stops after
# HARD_STOP_S, and every child process gets what is left of RUN_BUDGET_S.
HARD_STOP_S = 60.0
RUN_BUDGET_S = 170.0
_RUN_START = time.monotonic()
SUBCOMMANDS = ("verify-algebra", "leibniz", "integrate", "special-tables",
               "fourier", "spectrum", "evolve", "gauge", "oscillator")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def time_left():
    left = RUN_BUDGET_S - (time.monotonic() - _RUN_START)
    if left <= 0:
        raise BenchError("out of time for this run")
    return left


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def import_workloads():
    if not (SRC / "qcalc" / "__init__.py").is_file():
        raise BenchError(f"no qcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcalc
    if Path(qcalc.__file__).resolve().parent != SRC / "qcalc":
        raise BenchError(f"qcalc imported from {qcalc.__file__}, not {SRC}")
    import workloads
    return workloads


def environment():
    from importlib.metadata import PackageNotFoundError, version

    import mpmath
    import numpy

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- set-up time ----------------------------------------------------------------


def probe_setup(workload, seed, out_dir):
    """Child side: set the workload up and print when the first op could start."""
    workloads = import_workloads()
    workloads.make(workload, seed, out_dir)
    print(repr(time.monotonic()))


def measure_setup(workload, seed, out_dir):
    """Median time from spawning a fresh process to its first op."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed),
             "--out-dir", str(out_dir)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=time_left())
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples), samples


# -- the op loop ------------------------------------------------------------------


class OpRun:
    """The ops one tracer ran: CPU times, their CPU total, the verdicts."""

    def __init__(self, tracer, known):
        self.tracer = tracer
        self.durations = []
        self.elapsed = 0.0
        self.tally = benchlib.Tally(known)


def run_ops(wl, tracers, seconds, min_ops=benchlib.MIN_OPS):
    """Run ops for `seconds` of CPU time per tracer, at least min_ops each.

    Several tracers take turns, one block of ops each (a block ends where
    the workload allows a run to stop), in the order ABBA ABBA ... so
    that drift in the host's speed and first-block costs fall on all of
    them alike.  Returns one OpRun per tracer.
    """
    runs = [OpRun(tr, wl.known_failure) for tr in tracers]
    n = len(runs)
    clock = CLOCK
    wall_start = time.perf_counter()
    start = block_start = clock()
    turn = block = 0
    i = 0
    while True:
        if i > 0 and wl.at_boundary(i):
            now = clock()
            runs[turn].elapsed += now - block_start
            block_start = now
            block += 1
            if (n == 1 or block % (2 * n) == 0) and (
                    (min(r.tally.ops for r in runs) >= min_ops
                     and now - start >= seconds * n)
                    or time.perf_counter() - wall_start >= HARD_STOP_S):
                break
            turn = block % n if (block // n) % 2 == 0 else n - 1 - block % n
        run = runs[turn]
        tr = run.tracer
        wl.prepare(i)
        chk = benchlib.Checks()
        tr.op_id = i
        t0 = clock()
        try:
            with tr.span("bench.op"):
                wl.op(i, tr, chk)
        except Exception as exc:  # an op that breaks is counted, the run goes on
            chk.raised("unexpected", exc)
            traceback.print_exc(file=sys.stderr)
        run.durations.append(clock() - t0)
        run.tally.add(i, chk)
        i += 1
    return runs


# -- per-layer metrics ------------------------------------------------------------


def time_cli(out_dir):
    """Wall time of each subcommand at default flags, each in a fresh process."""
    env = child_env()
    code = ("import time; t = time.perf_counter(); import qcalc.cli; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=time_left())
    if proc.returncode != 0:
        raise BenchError(f"cannot import qcalc.cli: {proc.stderr.strip()}")
    out = {"cli.import_s": float(proc.stdout.split()[-1])}
    failed = 0
    for sub in SUBCOMMANDS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "qcalc.cli", sub, "--out",
             str(out_dir / "cli")],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=time_left())
        out[f"cli.{sub}.wall_s"] = time.perf_counter() - start
        failed += proc.returncode != 0
    out["cli.failed"] = failed
    return out


def layer_metrics(tr, ops, end_counts):
    """Span and count figures per op, ratios, peaks and run-end counts."""
    out = {}
    for name, (calls, busy) in benchlib.span_stats(tr.spans).items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.busy_s"] = busy / ops
    counts = dict(tr.counts)
    for name, value in counts.items():
        out[name] = value / ops
    if counts.get("scalars.parts"):
        out["scalars.nonintegral_frac"] = (counts["scalars.nonintegral_parts"]
                                           / counts["scalars.parts"])
    if counts.get("special.lookups"):
        out["special.cache.hit_ratio"] = (1.0 - counts["special.misses"]
                                          / counts["special.lookups"])
    out.update(tr.peaks)
    out.update(end_counts)
    return out


def write_trace(path, tr):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tr.spans}, fh, separators=(",", ":"))


# -- runs ---------------------------------------------------------------------------


def select(spec_metrics, values):
    """The listed metrics, in order, with their units; unmeasured ones are 0."""
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]} for m in spec_metrics}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(workloads, args, out_dir):
    wl = workloads.make(args.workload, args.seed, out_dir)
    # the seeded inputs live as long as the run; keep the collector from
    # rescanning them, as it would not in a CLI run
    gc.freeze()
    return wl


def timed_run(args, spec, workloads, out_dir):
    setup_s, setup_samples = measure_setup(args.workload, args.seed, out_dir)
    wl = make_workload(workloads, args, out_dir)
    run, = run_ops(wl, [benchlib.NullTracer()], args.seconds)
    tally = run.tally
    lat = benchlib.latency_summary(run.durations)
    values = {"setup_s": setup_s, "ops_per_s": tally.ops / run.elapsed,
              "op_ms_p50": lat["op_ms_p50"], "op_ms_p90": lat["op_ms_p90"],
              "peak_rss_mb": peak_rss_mb(),
              "checks_ok_frac": 1.0 - tally.failed_frac()}
    info = {"setup_samples_s": setup_samples, "latency_samples": lat["samples"],
            "beyond_p90": lat["beyond_p90"]}
    return tally, select(spec["end_to_end"], values), info


def traced_run(args, spec, workloads, out_dir):
    wl = make_workload(workloads, args, out_dir)
    tr = benchlib.Tracer(clock=CLOCK)
    plain, traced = run_ops(wl, [benchlib.NullTracer(), tr], args.seconds)
    tally = traced.tally
    values = layer_metrics(tr, tally.ops, wl.end_counts())
    trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
    write_trace(trace_path, tr)
    values.update(time_cli(out_dir))
    plain_rate = plain.tally.ops / plain.elapsed
    traced_rate = tally.ops / traced.elapsed
    values.update({
        "trace.untraced_ops_per_s": plain_rate,
        "trace.traced_ops_per_s": traced_rate,
        "trace.overhead_ops_per_s": plain_rate - traced_rate,
        "trace.overhead_frac": (plain_rate - traced_rate) / plain_rate,
        "checks.failed_frac": tally.failed_frac(),
    })
    info = {"trace_file": str(trace_path.relative_to(ROOT)),
            "spans": len(tr.spans), "untraced_ops": plain.tally.ops}
    return tally, select(spec["per_layer"], values), info


def main(argv=None):
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed, args.out_dir)
            return 0
        workloads = import_workloads()
        out_dir = ROOT / ".bench_out" / f"run-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        try:
            run = traced_run if args.trace else timed_run
            tally, metrics, info = run(args, spec, workloads, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), "ops": tally.ops,
              "checks": tally.checks, "checks_failed": tally.checks_failed,
              "checks_failed_frac": tally.failed_frac(),
              "failed_checks": dict(sorted(tally.failed_names.items())),
              "verdict_digest": tally.digest(),
              f"verdict_digest_first_{benchlib.MIN_OPS}": tally.prefix_digest,
              **info}
    print(json.dumps({"run": record}, sort_keys=True))
    for name, m in metrics.items():
        print(f"# {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"# {'samples (timed ops)':<44} {tally.ops}")
    correct = tally.ops_failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": tally.ops,
                      "failed": tally.ops_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
