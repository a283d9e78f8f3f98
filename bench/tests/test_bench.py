"""Tests of the benchmark's own code: percentiles, spans, check counting."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402
from benchlib import Checks, Tally, Tracer, percentile, self_times  # noqa: E402

# -- percentile rule -----------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2, 3], 50) == 2


def test_samples_beyond_p90():
    assert benchlib.samples_beyond(100, 90) == 10
    assert benchlib.samples_beyond(99, 90) == 9
    assert benchlib.samples_beyond(250, 90) == 25


def test_latency_summary_needs_ten_samples_beyond_p90():
    with pytest.raises(ValueError):
        benchlib.latency_summary([0.001] * 99)
    lat = benchlib.latency_summary([k / 1000.0 for k in range(1, 101)])
    assert lat["samples"] == 100
    assert lat["beyond_p90"] == 10
    assert lat["op_ms_p50"] == pytest.approx(50.0)
    assert lat["op_ms_p90"] == pytest.approx(90.0)


def test_min_ops_leaves_ten_samples_beyond_p90():
    assert benchlib.samples_beyond(benchlib.MIN_OPS, 90) >= \
        benchlib.TAIL_SAMPLES


# -- spans and self time -----------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    stats = benchlib.span_stats(spans + [_span("b", 9.5, 10.0, 0)])
    assert stats["b"] == (2, pytest.approx(4.5))
    assert stats["root"] == (1, pytest.approx(2.5))


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),
        _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_op_ids():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.op_id = 7
    with tr.span("op"):
        assert tr.call("inner", lambda x: x + 1, 1) == 2
    tr.count("n", 2)
    tr.count("n", 3)
    tr.peak("m", 4)
    tr.peak("m", 1)
    (op, s0, e0, p0, id0), (inner, s1, e1, p1, id1) = tr.spans
    assert (op, p0, id0) == ("op", -1, 7)
    assert (inner, p1, id1) == ("inner", 0, 7)
    assert s0 < s1 < e1 < e0
    assert self_times(tr.spans) == [e0 - s0 - (e1 - s1), e1 - s1]
    assert tr.counts["n"] == 5 and tr.peaks["m"] == 4


def test_null_tracer_passes_calls_through():
    tr = benchlib.NullTracer()
    assert tr.call("x", max, 3, 4) == 4
    with tr.span("y"):
        pass
    tr.count("z", 1)
    tr.peak("z", 1)


# -- failure counting ------------------------------------------------------------


class LibraryError(Exception):
    pass


def test_non_finite_residuals_fail():
    chk = Checks()
    chk.residual("ok", 1e-12, 1e-10)
    chk.residual("nan", float("nan"), 1e-10)
    chk.residual("inf", float("inf"), 1e-10)
    chk.residual("neg-inf", float("-inf"), 1e-10)
    chk.residual("too-big", 1e-9, 1e-10)
    chk.residual("complex", 1e-12 + 1e-12j, 1e-10)
    assert chk.failed() == ["nan", "inf", "neg-inf", "too-big"]


def test_library_exception_is_a_failed_check_named_after_it():
    chk = Checks()
    with chk.guard("gauge", (LibraryError,)):
        chk.flag("before", True)
        raise LibraryError("boom")
    chk.flag("after", True)
    assert chk.rows == [("before", True), ("gauge:LibraryError", False),
                        ("after", True)]
    with pytest.raises(KeyError):
        with chk.guard("other", (LibraryError,)):
            raise KeyError("not a library error")


def test_tally_counts_checks_ops_and_known_failures():
    tally = Tally(known=lambda op, name: name.startswith("known"),
                  prefix_ops=2)
    for op, rows in enumerate([
            [("a", True), ("known-x", False)],
            [("a", True), ("b", False)],
            [("a", True)]]):
        chk = Checks()
        chk.rows = rows
        tally.add(op, chk)
    assert (tally.ops, tally.ops_failed) == (3, 1)
    assert (tally.checks, tally.checks_failed) == (5, 2)
    assert tally.failed_frac() == pytest.approx(0.4)
    assert dict(tally.failed_names) == {"known-x": 1, "b": 1}
    assert tally.prefix_digest is not None
    assert tally.prefix_digest != tally.digest()


def test_verdict_digest_depends_on_verdicts_only():
    def digest(rows):
        tally = Tally()
        for op, row in enumerate(rows):
            chk = Checks()
            chk.rows = [row]
            tally.add(op, chk)
        return tally.digest()

    assert digest([("a", True), ("b", True)]) == \
        digest([("a", True), ("b", True)])
    assert digest([("a", True), ("b", True)]) != \
        digest([("a", True), ("b", False)])


# -- the op loop ------------------------------------------------------------------


class FakeWorkload:
    """Blocks of three ops; op 4 fails a known check."""

    def __init__(self):
        self.seen = []

    def at_boundary(self, i):
        return i % 3 == 0

    def known_failure(self, op, check):
        return check == "known"

    def prepare(self, i):
        pass

    def op(self, i, tr, chk):
        self.seen.append(tr.enabled)
        chk.flag("known" if i == 4 else "ok", i != 4)


def test_run_ops_single_tracer_stops_at_first_boundary_after_min_ops():
    import run

    wl = FakeWorkload()
    (only,) = run.run_ops(wl, [benchlib.NullTracer()], 0, min_ops=4)
    assert only.tally.ops == len(wl.seen) == 6


def test_run_ops_alternates_tracers_by_block():
    import run

    wl = FakeWorkload()
    tr = Tracer()
    plain, traced = run.run_ops(wl, [benchlib.NullTracer(), tr], 0,
                                min_ops=5)
    assert wl.seen == [False] * 3 + [True] * 6 + [False] * 3
    assert plain.tally.ops == traced.tally.ops == 6
    assert len(plain.durations) == len(traced.durations) == 6
    assert (traced.tally.checks_failed, traced.tally.ops_failed) == (1, 0)
    assert sum(1 for span in tr.spans if span[0] == "bench.op") == 6
    assert plain.elapsed > 0 and traced.elapsed > 0


# -- the workloads against the spec -----------------------------------------------


def test_every_listed_metric_is_produced(tmp_path):
    """Short traced runs of every workload produce the listed per-layer names,
    with no op failing beyond today's known failures."""
    pytest.importorskip("numpy")
    pytest.importorskip("mpmath")
    import run

    sys.path.insert(0, str(run.SRC))
    import workloads

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    produced = set()
    for w in spec["workloads"]:
        wl = workloads.make(w["name"], 0, str(tmp_path))
        tr = Tracer()
        min_ops = 100 if w["name"] == "evolve-long" else 8
        (traced,) = run.run_ops(wl, [tr], 0, min_ops=min_ops)
        assert traced.tally.ops == len(traced.durations) >= min_ops
        assert traced.tally.ops_failed == 0, dict(traced.tally.failed_names)
        values = run.layer_metrics(tr, traced.tally.ops, wl.end_counts())
        assert all(math.isfinite(v) for v in values.values())
        produced |= set(values)
    produced |= {f"cli.{sub}.wall_s" for sub in run.SUBCOMMANDS}
    produced |= {"cli.import_s", "cli.failed", "checks.failed_frac",
                 "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.overhead_ops_per_s", "trace.overhead_frac"}
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed <= produced, sorted(listed - produced)
