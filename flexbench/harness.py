"""Closed-loop measurement: per-kind latencies, failures and result lines.

One client issues one operation at a time.  Only the program call is
timed; the result check runs after the clock stops, so checking cost
never enters a latency or ``ops_per_s``.
"""
from __future__ import annotations

import itertools
import math
import resource
import statistics
import time
from collections import Counter


class CheckFailed(Exception):
    """A program result disagreed with the benchmark's own computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def expect_eq(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {_short(got)}, want {_short(want)}")


def expect_close(got: float, want: float, what: str, rel: float = 1e-9) -> None:
    if not math.isclose(float(got), float(want), rel_tol=rel, abs_tol=1e-12):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _short(x) -> str:
    s = repr(x)
    return s if len(s) < 300 else s[:300] + "..."


class Recorder:
    """Per-kind latencies and attempted/failed counts of one run.

    ``tracer`` (optional) is told where each operation starts and ends
    so that its spans carry the operation id; ``spark`` (optional) gets a
    job group per operation so Spark's job/stage/task counts can be read
    back per operation.
    """

    def __init__(self, read_kinds, write_kinds, *, tracer=None, spark=None):
        self.read_kinds = list(read_kinds)
        self.write_kinds = list(write_kinds)
        kinds = self.read_kinds + self.write_kinds
        self.lat = {k: [] for k in kinds}  # seconds, completed ops only
        self.attempted = Counter()
        self.failed = Counter()
        self.errors: Counter = Counter()  # (kind, error type) -> count
        self.first_error: dict = {}  # (kind, error type) -> first message
        self.wrong = 0
        self.jobs = Counter()  # kind -> Spark jobs launched by its ops
        self.call_s = 0.0  # program time of every op, failed ones included
        self.tracer = tracer
        self.spark = spark
        self._op_seq = 0

    # op ids (and Spark job groups) stay unique across recorders
    _ids = itertools.count(1)

    def op(self, kind: str, call, check=None, note=None):
        """Run ``call()`` as one operation of ``kind``; returns its result
        or None if it raised or its result failed ``check``.  ``note``
        maps the result to a (metric, count) pair for the tracer."""
        self.attempted[kind] += 1
        self._op_seq = next(Recorder._ids)
        group = f"op{self._op_seq}"
        if self.spark is not None:
            self.spark.sparkContext.setJobGroup(group, kind)
        if self.tracer is not None:
            self.tracer.begin_op(self._op_seq, kind)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as e:  # a program fault: count it, keep the run going
            self.failed[kind] += 1
            self.errors[(kind, type(e).__name__)] += 1
            self.first_error.setdefault((kind, type(e).__name__), str(e)[:200])
            return None
        finally:
            dt = time.perf_counter() - t0
            self.call_s += dt
            if self.tracer is not None:
                self.tracer.end_op()
            if self.spark is not None:
                tr = self.spark.sparkContext.statusTracker()
                job_ids = tr.getJobIdsForGroup(group)
                self.jobs[kind] += len(job_ids)
                if self.tracer is not None:
                    self.tracer.spark_counts(self._op_seq, tr, job_ids)
        if note is not None and self.tracer is not None:
            self.tracer.note(self._op_seq, *note(out))
        if check is not None:
            try:
                check(out)
            except Exception as e:  # CheckFailed, or a result too malformed to compare
                self.failed[kind] += 1
                self.wrong += 1
                self.errors[(kind, "wrong result")] += 1
                self.first_error.setdefault((kind, "wrong result"), f"{type(e).__name__}: {e}"[:300])
                return None
        self.lat[kind].append(dt)
        return out

    # -- summaries -----------------------------------------------------
    def completed(self) -> int:
        return sum(len(v) for v in self.lat.values())

    def busy_s(self) -> float:
        return sum(sum(v) for v in self.lat.values())

    def ops_per_s(self) -> float:
        busy = self.busy_s()
        return self.completed() / busy if busy else 0.0

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self.lat[kind]) * 1e3

    def geo_p50_ms(self, kinds) -> float:
        """Geometric mean over ``kinds`` of each kind's median latency;
        a kind none of whose operations completed is left out."""
        meds = [self.p50_ms(k) for k in kinds if self.lat[k]]
        return math.exp(sum(math.log(m) for m in meds) / len(meds)) if meds else 0.0

    def kind_table(self) -> list[str]:
        """Reference figures: median, highest percentile with >= 10
        samples beyond it, counts.  Tails are not bounded metrics."""
        lines = [f"{'kind':<12}{'n':>6}{'p50_ms':>11}{'tail':>16}{'attempted':>11}{'failed':>8}"]
        for k in self.read_kinds + self.write_kinds:
            v = sorted(self.lat[k])
            tail = "-"
            for p in (99.9, 99.0, 90.0):
                if len(v) >= 40 and len(v) * (1 - p / 100) >= 10:
                    q = statistics.quantiles(v, n=1000, method="inclusive")[int(p * 10) - 1]
                    tail = f"p{p:g}={q * 1e3:.3f}"
                    break
            p50 = f"{statistics.median(v) * 1e3:.3f}" if v else "-"
            lines.append(
                f"{k:<12}{len(v):>6}{p50:>11}{tail:>16}{self.attempted[k]:>11}{self.failed[k]:>8}"
            )
        return lines


def peak_rss_mb() -> float:
    """Peak resident memory of this Python process (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
