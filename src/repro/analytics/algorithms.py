"""Built-in algorithm library of the analytics stack (paper §6).

Every algorithm is written once against :class:`GrapeEngine` (which in
turn sees only the GRIN ``GraphStore`` surface), so each runs unchanged
on Vineyard, GART, or GraphAr — the property Exp-1a measures.

All functions return small result DataFrames with stable column names
so tests can oracle-check them against DuckDB SQL / numpy references.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.analytics.grape import GrapeEngine, barrier
from repro.analytics.pregel import pregel, source_initial


def pagerank(engine: GrapeEngine, *, alpha: float = 0.85, num_iter: int = 10) -> DataFrame:
    """PageRank without dangling redistribution (PowerGraph convention).

    Returns (id, rank).  State is struct(rank, deg) so the out-degree
    rides along the Pregel value instead of re-joining every superstep.
    An engine without vertices (an edgeless graph) gives an empty frame.
    """
    n = engine.num_vertices
    if n == 0:
        return engine.vertices.select("id", F.lit(0.0).alias("rank"))
    init = engine.out_degrees().select(
        "id", F.struct(F.lit(1.0 / n).alias("rank"), F.col("deg").alias("deg")).alias("value")
    )
    final = pregel(
        engine,
        initial=init,
        send_msg=lambda t: F.col("value.rank") / F.col("value.deg"),
        merge_msg=F.sum,
        vprog=lambda v, m: F.struct(
            (F.lit((1 - alpha) / n) + F.lit(alpha) * F.coalesce(m, F.lit(0.0))).alias("rank"),
            v["deg"].alias("deg"),
        ),
        max_iter=num_iter,
    )
    return final.select("id", F.col("value.rank").alias("rank"))


def bfs(engine: GrapeEngine, *, source: int, max_iter: int | None = None) -> DataFrame:
    """Hop distance from ``source``; unreachable vertices get NULL.

    Returns (id, dist).
    """
    init = source_initial(engine, source, 0, None).withColumn(
        "value", F.col("value").cast("long")
    )
    final = pregel(
        engine,
        initial=init,
        send_msg=lambda t: F.col("value") + 1,
        merge_msg=F.min,
        vprog=lambda v, m: F.least(v, m),
        max_iter=max_iter or engine.num_vertices,
        until_convergence=True,
    )
    return final.withColumnRenamed("value", "dist")


def sssp(engine: GrapeEngine, *, source: int, max_iter: int | None = None) -> DataFrame:
    """Single-source shortest path over the engine's ``weight`` column.

    The engine must be constructed with ``edge_weight=...``.  Returns
    (id, dist) with NULL for unreachable vertices.
    """
    if "weight" not in engine.edges.columns:
        raise ValueError("sssp needs a GrapeEngine built with edge_weight=")
    init = source_initial(engine, source, 0.0, None).withColumn(
        "value", F.col("value").cast("double")
    )
    final = pregel(
        engine,
        initial=init,
        send_msg=lambda t: F.col("value") + F.col("weight"),
        merge_msg=F.min,
        vprog=lambda v, m: F.least(v, m),
        max_iter=max_iter or engine.num_vertices,
        until_convergence=True,
    )
    return final.withColumnRenamed("value", "dist")


def wcc(engine: GrapeEngine, *, max_iter: int | None = None) -> DataFrame:
    """Weakly connected components by hash-min label propagation.

    The engine should be built with ``symmetrize=True``; returns
    (id, component) where component is the minimum vertex id reachable.
    """
    init = engine.vertices.select("id", F.col("id").alias("value"))
    final = pregel(
        engine,
        initial=init,
        send_msg=lambda t: F.col("value"),
        merge_msg=F.min,
        vprog=lambda v, m: F.least(v, m),
        max_iter=max_iter or engine.num_vertices,
        until_convergence=True,
    )
    return final.withColumnRenamed("value", "component")


def label_propagation(engine: GrapeEngine, *, num_iter: int = 5) -> DataFrame:
    """Community detection: adopt the modal neighbor label each round.

    Returns (id, community).  Deterministic tie-break: the smallest
    modal label (F.mode is non-deterministic on ties, so we aggregate
    (count, label) pairs and take max by (count, -label)).
    """
    init = engine.vertices.select("id", F.col("id").alias("value"))

    def modal(arr):
        # smallest label with the highest multiplicity in ``arr``
        return F.expr(
            "array_max(transform(array_distinct({a}), x -> "
            "struct(size(filter({a}, y -> y = x)) AS cnt, -x AS negk))).negk * -1"
            .format(a=arr)
        )

    final = pregel(
        engine,
        initial=init,
        send_msg=lambda t: F.col("value"),
        merge_msg=F.collect_list,  # combiner ships the label multiset
        vprog=lambda v, m: F.when(m.isNull() | (F.size(m) == 0), v).otherwise(
            modal("msg")
        ),
        max_iter=num_iter,
    )
    return final.withColumnRenamed("value", "community")


def kcore(engine: GrapeEngine, *, k: int, max_iter: int = 50) -> DataFrame:
    """Vertices of the k-core (iterative peeling). Returns (id,).

    Engine should be symmetrized; degree = undirected degree.
    """
    edges = engine.edges.select("src", "dst")
    prev = -1
    for _ in range(max_iter):
        keep = (
            edges.groupBy("src").agg(F.count("*").alias("deg"))
            .filter(F.col("deg") >= k)
            .select(F.col("src").alias("id"))
        )
        edges, seen = barrier(
            edges.join(keep.withColumnRenamed("id", "src"), "src")
            .join(keep.withColumnRenamed("id", "dst"), "dst")
            .select("src", "dst"),
            n=F.count("*"),
        )
        if seen["n"] == prev:
            break
        prev = seen["n"]
    return edges.select(F.col("src").alias("id")).distinct()


def triangle_count(engine: GrapeEngine) -> int:
    """Global triangle count (each triangle once, via canonical orientation)."""
    e = (
        engine.edges.select("src", "dst")
        .unionByName(engine.edges.selectExpr("dst as src", "src as dst"))
        .filter("src < dst")
        .distinct()
    )
    e1, e2, e3 = e.alias("e1"), e.alias("e2"), e.alias("e3")
    return int(
        e1.join(e2, F.col("e1.dst") == F.col("e2.src"))
        .join(
            e3,
            (F.col("e2.dst") == F.col("e3.dst")) & (F.col("e1.src") == F.col("e3.src")),
        )
        .count()
    )
