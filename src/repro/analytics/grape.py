"""GRAPE-analog: distributed high-performance analytical engine (paper §6).

The engine runs iterative vertex programs as Catalyst dataflow jobs.
The optimizations GRAPE is credited with map onto Spark as:

* **fragment management** — the edge relation is hash-partitioned by
  ``src`` once and cached; Catalyst's ``EnsureRequirements`` then skips
  the edge-side exchange in every iteration's message join, so only the
  (small) vertex-state side shuffles per superstep.
* **message aggregation** — messages are combined per destination with
  ``groupBy(dst).agg`` *before* they reach the vertex program — the
  analog of GRAPE packing fragmented small messages into one compact
  buffer per target ("trades latency for throughput").
* **lineage control** — every superstep ends in :func:`barrier`, a
  ``localCheckpoint`` that truncates the growing plan (the analog of
  GRAPE's materialized per-round fragment state) and carries the
  round's counters as an ``observe``.

Pregel (:mod:`repro.analytics.pregel`), PIE (:mod:`repro.analytics.pie`)
and FLASH (:mod:`repro.analytics.flash`) are programming models over one
engine: they read its edge fragments and end their rounds with
:func:`barrier`.

Baselines in :mod:`repro.analytics.baselines` are this loop with the
optimizations removed — each removal mirrors the architectural
difference the paper credits for GRAPE's wins in Exp-3.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import Column, DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.storage.grin import GraphStore, Trait, require


@dataclass
class GrapeConfig:
    """Feature switches — all on for GRAPE, selectively off for baselines.

    Every engine runs the same BSP superstep loop with a lineage-
    truncating materialization barrier per round; the switches model the
    architectural deltas the paper credits: fragment pre-partitioning
    and caching (edge-side exchange avoidance), and message combining
    (compact buffers vs per-edge messages on the wire).
    """

    prepartition_edges: bool = True  # fragment management
    cache_edges: bool = True
    combine_messages: bool = True  # pre-aggregate per dst


class GrapeEngine:
    """Iterative engine over any GRIN store providing TOPOLOGY."""

    def __init__(
        self,
        spark: SparkSession,
        store: GraphStore,
        *,
        config: GrapeConfig | None = None,
        edge_weight: str | None = None,
        edge_label: str | None = None,
        symmetrize: bool = False,
    ):
        require(store, Trait.TOPOLOGY)
        self.spark = spark
        self.config = config or GrapeConfig()
        if edge_weight is not None:
            # weighted algorithms need the property column -> per-label read
            labels = [edge_label] if edge_label else store.edge_labels()
            parts = [
                store.edges(l).select("src", "dst", F.col(edge_weight).alias("weight"))
                for l in labels
            ]
            edges = parts[0]
            for p in parts[1:]:
                edges = edges.unionByName(p)
        else:
            adj = store.adjacency()
            if edge_label is not None:
                adj = adj.filter(F.col("label") == edge_label)
            edges = adj.select("src", "dst")
        if symmetrize:
            # undirected algorithms (WCC, LPA, k-core) see both directions
            others = [c for c in edges.columns if c not in ("src", "dst")]
            rev = edges.select(
                F.col("dst").alias("src"), F.col("src").alias("dst"), *others
            )
            edges = edges.unionByName(rev).distinct()
        if self.config.prepartition_edges:
            edges = edges.repartition("src")
        if self.config.cache_edges:
            edges = edges.cache()
            edges.count()  # materialize fragments up front
        self.edges = edges
        verts = (
            self.edges.select(F.col("src").alias("id"))
            .unionByName(self.edges.select(F.col("dst").alias("id")))
            .distinct()
        )
        self.vertices = verts.cache() if self.config.cache_edges else verts
        self.num_vertices = self.vertices.count()
        self._degrees: DataFrame | None = None

    def out_degrees(self) -> DataFrame:
        """(id, deg) with zero-degree vertices included."""
        if self._degrees is None:
            d = self.edges.groupBy(F.col("src").alias("id")).agg(
                F.count("*").alias("deg")
            )
            d = self.vertices.join(d, "id", "left").fillna(0, subset=["deg"])
            if self.config.cache_edges:
                d = d.cache()
                d.count()
            self._degrees = d
        return self._degrees

    def run(
        self,
        *,
        initial: DataFrame,
        num_iter: int,
        send: Callable[[DataFrame], Column],
        agg: Callable[[Column], Column],
        update: Callable[[Column, Column], Column],
        until_convergence: bool = False,
    ) -> DataFrame:
        """Superstep loop.

        ``initial``  — (id, value) vertex state.
        ``send``     — joined-row -> message Column; the joined frame has
                       columns src, dst, value (sender state) [, weight].
        ``agg``      — message Column -> aggregate Column (combiner).
        ``update``   — (old value, combined msg or NULL) -> new value.
        ``until_convergence`` — frontier mode, PIE's IncEval: only the
                       vertices whose value changed in the previous
                       superstep send, and the loop stops when none
                       changed.  The changed rows are counted by an
                       ``observe`` on the superstep's checkpoint, so the
                       test costs no Spark job of its own.  Exact only for
                       monotone, idempotent programs: a ``min``/``max``
                       combiner with ``least``/``greatest`` updates (BFS,
                       SSSP, WCC), where an unchanged sender's message was
                       already absorbed.  Every vertex sends in the first
                       superstep.
        """
        frontier = until_convergence  # IncEval-style: only changed vertices send
        state = initial.withColumn("_chg", F.lit(True)) if frontier else initial
        for _ in range(num_iter):
            senders = state.filter("_chg").drop("_chg") if frontier else state
            msgs = self.messages(senders, send, agg)
            new_value = update(F.col("value"), F.col("msg"))
            cols = [new_value.alias("value")]
            if frontier:
                cols.append((~new_value.eqNullSafe(F.col("value"))).alias("_chg"))
            new_state = state.join(msgs, on="id", how="left").select("id", *cols)
            counters = {"n": F.count_if("_chg")} if frontier else {}
            state, seen = barrier(new_state, **counters)
            if frontier and not seen["n"]:
                break
        return state.drop("_chg") if frontier else state

    def messages(
        self,
        senders: DataFrame,
        send: Callable[[DataFrame], Column],
        agg: Callable[[Column], Column],
    ) -> DataFrame:
        """Neighbourhood messages of one superstep: (id, msg).

        ``senders`` is (id, value[, ...]) of the vertices that send; each
        sends ``send(joined)`` along its out-edges, and ``agg`` combines
        the messages per destination.
        """
        joined = self.edges.join(
            senders.withColumnRenamed("id", "src"), on="src", how="inner"
        )
        if self.config.combine_messages:
            return joined.groupBy(F.col("dst").alias("id")).agg(
                agg(send(joined)).alias("msg")
            )
        # scatter without pre-aggregation: the full per-edge
        # message relation (|E| rows) goes onto the wire and is
        # materialized before any combining — the "fragmented
        # small messages" cost GRAPE's compact buffers avoid.
        raw = (
            joined.select(F.col("dst").alias("id"), send(joined).alias("m"))
            .repartition("id")
            .localCheckpoint(eager=True)
        )
        return raw.groupBy("id").agg(agg(F.col("m")).alias("msg"))


def barrier(frame: DataFrame, **counters: Column) -> tuple[DataFrame, dict]:
    """End a round: the BSP superstep barrier every programming model shares.

    Materialises ``frame`` with ``localCheckpoint(eager=True)``, which
    truncates its lineage — leaving the logical plan to double per
    round would measure Catalyst analysis blowup, not engine
    architecture.  Each keyword is an aggregate Column over the round's
    rows (a changed-row count, a message count, a maximum); it is an
    ``observe`` on the checkpoint, so reading it costs no Spark job of
    its own.  Returns the checkpointed frame and ``{name: value}``.
    """
    if not counters:
        return frame.localCheckpoint(eager=True), {}
    obs = Observation()
    frame = frame.observe(obs, *[c.alias(k) for k, c in counters.items()])
    return frame.localCheckpoint(eager=True), obs.get
