"""Traced mode: spans around the public functions of each layer.

The tracer patches the functions listed in ``TARGETS`` from outside the
program while it is active and restores the originals afterwards.  Each
call records a span (name, operation id, parent span, start, end);
spans stay in memory and are written out when the run ends.  A layer's
self time is its span's duration minus that of its direct child spans.

The wrappers only read values the program already returned (row
counts, layer sizes, the length of GART's delta cache), so tracing runs
no extra Spark action; ``selfcheck.py trace-jobs`` compares the Spark job
counts of a traced and an untraced run to show it.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _rows(_args, out, _pre):
    return len(out)


def _layer_nodes(_args, out, _pre):
    return sum(len(x) for x in out)


def _one(_args, _out, _pre):
    return 1


def _delta_len(args):
    return len(args[0]._s._delta_cache)


def _delta_miss(args, _out, pre):
    return int(len(args[0]._s._delta_cache) > pre)


# (module, owner attribute or None, function, span name, pre hook, note hook)
TARGETS = [
    ("repro.datasets.snb", None, "snb_graph", "datasets.generate", None, None),
    ("repro.datasets.graphs", None, "rmat_edges", "datasets.generate", None, None),
    ("pyspark.sql.session", "SparkSession.Builder", "getOrCreate", "spark.session", None, None),
    ("repro.query.hiactor", "HiActorEngine", "__init__", "query.hiactor.build", None, None),
    ("repro.query.hiactor", "HiActorEngine", "execute", "query.hiactor.execute", None, _rows),
    ("repro.query.snb_interactive", "IndexedAccess", "__init__", "query.snb_interactive.build", None, None),
    ("repro.query.snb_interactive", "IndexedAccess", "vertex", "query.snb_interactive.access", None, _one),
    ("repro.query.snb_interactive", "IndexedAccess", "neighbors", "query.snb_interactive.access", None, None),
    ("repro.query.snb_interactive", "IndexedAccess", "neighbors_with_prop", "query.snb_interactive.access", None, None),
    ("repro.query.snb_interactive", "IndexedAccess", "add_vertex", "query.snb_interactive.update", None, None),
    ("repro.query.snb_interactive", "IndexedAccess", "add_edge", "query.snb_interactive.update", None, None),
    ("repro.query.cypher", None, "parse_cypher", "query.cypher.parse", None, None),
    ("repro.query.gremlin", None, "parse_gremlin", "query.gremlin.parse", None, None),
    ("repro.query.planner", None, "compile_plan", "query.planner.compile", None, None),
    ("repro.query.rbo", None, "apply_rbo", "query.rbo", None, None),
    ("repro.query.cbo", None, "lower_match_cbo", "query.cbo", None, None),
    ("repro.query.catalog", "Catalog", "from_store", "query.catalog.build", None, None),
    ("repro.query.gaia", "GaiaExecutor", "execute", "query.gaia.build", None, None),
    ("repro.usecases.fraud", "FraudDetector", "check", "usecases.fraud.check", None, None),
    ("repro.storage.gart", "GartStore", "__init__", "storage.gart.build", None, None),
    ("repro.storage.gart", "GartStore", "insert_edges", "storage.gart.insert", None, None),
    ("repro.storage.gart", "GartStore", "delete_edges", "storage.gart.delete", None, None),
    ("repro.storage.gart", "GartStore", "compact", "storage.gart.compact", None, None),
    ("repro.storage.gart", "GartSnapshot", "vertices", "storage.gart.vertices", None, None),
    ("repro.storage.gart", "GartSnapshot", "edges", "storage.gart.edges", _delta_len, _delta_miss),
    ("repro.storage.vineyard", "VineyardStore", "__init__", "storage.vineyard.build", None, None),
    ("repro.analytics.grape", "GrapeEngine", "__init__", "analytics.grape.engine_build", None, None),
    ("repro.analytics.grape", "GrapeEngine", "run", "analytics.grape.run", None, None),
    ("repro.storage.csr", "NumpyCSR", "__init__", "storage.csr.build", None, None),
    ("repro.learning.sampler", "NumpySampler", "sample_batch", "learning.sampler.sample", None, _layer_nodes),
    ("repro.learning.features", "FeatureStore", "gather", "learning.features.gather", None, None),
    ("repro.learning.sage", "GraphSAGE", "loss_and_grads", "learning.sage.grad", None, None),
    ("repro.learning.sage", "GraphSAGE", "step", "learning.sage.step", None, None),
]
for _m in ("collect", "toPandas", "count", "localCheckpoint"):
    TARGETS.append(("pyspark.sql.classic.dataframe", "DataFrame", _m, "spark.action", None, None))

# per-layer metric -> (span name, scale to the unit, phase).  Phase
# "setup" takes the median over set-ups of the span's whole duration;
# "op" the median over traced operations of the span's self time.
TIMES = {
    "datasets.generate_s": ("datasets.generate", 1.0, "setup"),
    "spark.session_s": ("spark.session", 1.0, "setup"),
    "query.hiactor.build_s": ("query.hiactor.build", 1.0, "setup"),
    "query.snb_interactive.build_s": ("query.snb_interactive.build", 1.0, "setup"),
    "storage.gart.build_s": ("storage.gart.build", 1.0, "setup"),
    "query.catalog.build_s": ("query.catalog.build", 1.0, "setup"),
    "storage.vineyard.build_s": ("storage.vineyard.build", 1.0, "setup"),
    "analytics.grape.engine_build_s": ("analytics.grape.engine_build", 1.0, "setup"),
    "storage.csr.build_s": ("storage.csr.build", 1.0, "setup"),
    "query.cypher.parse_us": ("query.cypher.parse", 1e6, "op"),
    "query.gremlin.parse_us": ("query.gremlin.parse", 1e6, "op"),
    "query.planner.compile_us": ("query.planner.compile", 1e6, "op"),
    "query.rbo.us": ("query.rbo", 1e6, "op"),
    "query.cbo.us": ("query.cbo", 1e6, "op"),
    "query.hiactor.execute_ms": ("query.hiactor.execute", 1e3, "op"),
    "query.snb_interactive.access_ms": ("query.snb_interactive.access", 1e3, "op"),
    "query.snb_interactive.update_ms": ("query.snb_interactive.update", 1e3, "op"),
    "usecases.fraud.check_ms": ("usecases.fraud.check", 1e3, "op"),
    "storage.gart.insert_ms": ("storage.gart.insert", 1e3, "op"),
    "storage.gart.delete_ms": ("storage.gart.delete", 1e3, "op"),
    "storage.gart.compact_ms": ("storage.gart.compact", 1e3, "op"),
    "storage.gart.vertices_ms": ("storage.gart.vertices", 1e3, "op"),
    "storage.gart.edges_ms": ("storage.gart.edges", 1e3, "op"),
    "query.gaia.build_ms": ("query.gaia.build", 1e3, "op"),
    "spark.action_ms": ("spark.action", 1e3, "op"),
    "analytics.grape.run_ms": ("analytics.grape.run", 1e3, "op"),
    "learning.sampler.sample_ms": ("learning.sampler.sample", 1e3, "op"),
    "learning.features.gather_ms": ("learning.features.gather", 1e3, "op"),
    "learning.sage.grad_ms": ("learning.sage.grad", 1e3, "op"),
    "learning.sage.step_ms": ("learning.sage.step", 1e3, "op"),
}


def _unit(metric: str) -> str:
    return "ms" if metric.endswith("_ms") else "us" if metric.endswith("us") else "s"


def _resolve(module: str, owner: str | None):
    obj = importlib.import_module(module)
    for part in owner.split(".") if owner else ():
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list = []
        self.active = False
        self.op_kinds: dict = {}  # traced op id -> kind
        self.notes: dict = defaultdict(dict)  # op id -> metric -> value
        self.spark_ops: dict = {}  # traced op id -> (jobs, stages, tasks)

    # -- operation boundaries (called by the Recorder and the runner) --
    def begin_op(self, op_id, kind: str) -> None:
        self._op = op_id
        if self.active:
            self.op_kinds[op_id] = kind

    def end_op(self) -> None:
        self._op = None

    def note(self, op_id, metric: str, value: float) -> None:
        """Attach a count the benchmark observed to a traced op."""
        if op_id in self.op_kinds:
            self.notes[op_id][metric] = value

    def spark_counts(self, op_id, tracker, job_ids) -> None:
        if op_id not in self.op_kinds:
            return
        stages = tasks = 0
        for j in job_ids:
            info = tracker.getJobInfo(j)
            for s in info.stageIds if info is not None else ():
                st = tracker.getStageInfo(s)
                if st is not None and st.numCompletedTasks > 0:
                    stages += 1
                    tasks += st.numCompletedTasks
        self.spark_ops[op_id] = (len(job_ids), stages, tasks)

    # -- patching ------------------------------------------------------
    def __enter__(self):
        for module, owner, attr, name, pre, note in TARGETS:
            obj = _resolve(module, owner)
            raw = obj.__dict__[attr] if attr in obj.__dict__ else getattr(obj, attr)
            self._saved.append((obj, attr, raw, attr in obj.__dict__))
            setattr(obj, attr, self._wrap(raw, name, pre, note))
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False
        for obj, attr, raw, own in reversed(self._saved):
            if own:
                setattr(obj, attr, raw)
            else:
                delattr(obj, attr)
        self._saved.clear()
        return False

    def _wrap(self, raw, name, pre, note):
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            nested = any(tracer.spans[i]["name"] == name for i in stack)
            span = {
                "name": name,
                "op": tracer._op,
                "parent": stack[-1] if stack else None,
                "nested": nested,
                "t0": time.perf_counter(),
            }
            before = pre(args) if pre is not None else None
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
            if note is not None and not nested:
                span["note"] = note(args, out, before)
            return out

        return classmethod(wrapper) if is_cm else wrapper

    # -- results -------------------------------------------------------
    def self_times(self) -> dict:
        """span name -> op id -> summed self time (s)."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["t1"] - s["t0"]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s["name"]][s["op"]] += (s["t1"] - s["t0"]) - child[i]
        return out

    def total_times(self) -> dict:
        """span name -> op id -> summed duration of outermost spans (s)."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if not s["nested"]:
                out[s["name"]][s["op"]] += s["t1"] - s["t0"]
        return out

    def layer_metrics(self, cached_frames: int | None) -> dict:
        """Every per-layer metric; a layer the workload never entered reads 0."""
        selft, total = self.self_times(), self.total_times()
        traced_ops = {op for op in self.op_kinds if not isinstance(op, str)}  # not set-ups
        m: dict = {}
        for metric, (span, scale, phase) in TIMES.items():
            if phase == "setup":  # whole builds: a build's Spark actions count too
                vals = [v for op, v in total.get(span, {}).items() if isinstance(op, str)]
            else:
                vals = [v for op, v in selft.get(span, {}).items() if op in traced_ops]
            m[metric] = (statistics.median(vals) * scale if vals else 0.0, _unit(metric))

        def per_op_notes(span):
            acc = defaultdict(float)
            for s in self.spans:
                if s["name"] == span and "note" in s and s["op"] in traced_ops:
                    acc[s["op"]] += s["note"]
            return list(acc.values())

        def med(vals):
            return float(statistics.median(vals)) if vals else 0.0

        m["query.hiactor.rows_out"] = (med(per_op_notes("query.hiactor.execute")), "count")
        m["learning.sampler.nodes_per_batch"] = (med(per_op_notes("learning.sampler.sample")), "count")
        access = "query.snb_interactive.access"
        accessed = {s["op"] for s in self.spans if s["name"] == access and s["op"] in traced_ops}
        vertex_calls = defaultdict(int)
        for s in self.spans:
            if s["name"] == access and "note" in s:
                vertex_calls[s["op"]] += s["note"]
        m["query.snb_interactive.vertex_calls"] = (
            med([vertex_calls[op] for op in accessed]), "count"
        )
        misses = per_op_notes("storage.gart.edges")
        n_edges_calls = sum(
            1 for s in self.spans if s["name"] == "storage.gart.edges" and s["op"] in traced_ops
        )
        m["storage.gart.delta_miss_ratio"] = (
            sum(misses) / n_edges_calls if n_edges_calls else 0.0, "ratio"
        )
        m["storage.gart.cached_frames"] = (float(cached_frames or 0), "count")
        m["query.gaia.rows_out"] = (
            med([n["query.gaia.rows_out"] for n in self.notes.values() if "query.gaia.rows_out" in n]),
            "count",
        )
        n_ops = len(traced_ops)
        for i, name in enumerate(("spark.jobs_per_op", "spark.stages_per_op", "spark.tasks_per_op")):
            count = sum(v[i] for v in self.spark_ops.values())
            m[name] = (count / n_ops if n_ops else 0.0, "count")
        return m

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"op_kinds": {str(k): v for k, v in self.op_kinds.items()},
                                    "spans": self.spans}, default=str))


def overhead_ratio(plain, traced) -> float:
    """Geometric mean over kinds of traced / untraced median latency."""
    logs = []
    for k, v in traced.lat.items():
        if v and plain.lat.get(k):
            logs.append(math.log(statistics.median(v) / statistics.median(plain.lat[k])))
    return math.exp(sum(logs) / len(logs)) if logs else 1.0
