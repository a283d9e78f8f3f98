"""Measurement core of the benchmark: percentiles, check verdicts, spans.

Nothing here imports numpy or qcalc, so the unit tests run without them
and `run.py` can pin the thread environment before either is loaded.
"""

import hashlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

# A run holds at least this many ops, so that ten samples or more lie
# beyond the 90th percentile.
MIN_OPS = 100
TAIL_SAMPLES = 10


# -- percentiles -------------------------------------------------------------


def percentile(sorted_values, p):
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly beyond the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n))


def latency_summary(durations_s):
    """p50 and p90 in ms, with the sample count behind them.

    Refuses a p90 that has fewer than TAIL_SAMPLES samples beyond it.
    """
    n = len(durations_s)
    beyond = samples_beyond(n, 90)
    if beyond < TAIL_SAMPLES:
        raise ValueError(f"{n} samples leave {beyond} beyond p90, "
                         f"need {TAIL_SAMPLES}")
    ordered = sorted(durations_s)
    return {"op_ms_p50": 1e3 * percentile(ordered, 50),
            "op_ms_p90": 1e3 * percentile(ordered, 90),
            "samples": n, "beyond_p90": beyond}


# -- check verdicts ----------------------------------------------------------


class Checks:
    """Verdicts of one op: rows of (check name, passed)."""

    def __init__(self):
        self.rows = []

    def residual(self, name, value, tol):
        """Pass when the residual is finite and below tol; NaN and inf fail."""
        value = float(abs(value))
        self.rows.append((name, math.isfinite(value) and value < tol))

    def flag(self, name, passed):
        self.rows.append((name, bool(passed)))

    def raised(self, name, exc):
        self.rows.append((f"{name}:{type(exc).__name__}", False))

    @contextmanager
    def guard(self, name, errors):
        """Count one of the library's exceptions as a failed check, go on."""
        try:
            yield
        except errors as exc:
            self.raised(name, exc)

    def failed(self):
        return [name for name, ok in self.rows if not ok]


class Tally:
    """Check and op counts over a run, and digests of the verdicts.

    `known` tells whether a failed check is one the program is known to
    fail today; an op fails when it has any other failed check.
    """

    def __init__(self, known=lambda op, name: False, prefix_ops=MIN_OPS):
        self.known = known
        self.prefix_ops = prefix_ops
        self.ops = 0
        self.ops_failed = 0
        self.checks = 0
        self.checks_failed = 0
        self.failed_names = defaultdict(int)
        self._digest = hashlib.sha256()
        self.prefix_digest = None

    def add(self, op, checks):
        bad = checks.failed()
        self.ops += 1
        self.checks += len(checks.rows)
        self.checks_failed += len(bad)
        for name in bad:
            self.failed_names[name] += 1
        if any(not self.known(op, name) for name in bad):
            self.ops_failed += 1
        line = ";".join(f"{name}={int(ok)}" for name, ok in checks.rows)
        self._digest.update(f"{self.ops - 1}|{line}\n".encode())
        if self.ops == self.prefix_ops:
            self.prefix_digest = self._digest.hexdigest()

    def digest(self):
        return self._digest.hexdigest()

    def failed_frac(self):
        return self.checks_failed / self.checks if self.checks else 1.0


# -- spans -------------------------------------------------------------------


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    op_id = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()

    def count(self, name, value):
        pass

    def peak(self, name, value):
        pass


class Tracer:
    """In-memory spans [name, start, end, parent index, op id] and counts."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = {}
        self.op_id = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        try:
            yield
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name] += value

    def peak(self, name, value):
        self.peaks[name] = max(value, self.peaks.get(name, value))


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def span_stats(spans):
    """{name: (calls, self seconds)} over all spans."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        busy[name] += own
    return {name: (calls[name], busy[name]) for name in calls}
