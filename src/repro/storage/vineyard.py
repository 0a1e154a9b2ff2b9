"""Vineyard-analog: immutable in-memory property-graph store (paper §4.2).

Vineyard keeps partitioned, immutable property graphs in shared memory
with CSR/CSC indices and dense internal vertex ids.  The Spark analog:
per-label DataFrames cached in executor memory, plus out/in adjacency
frames repartitioned by the traversal origin and sorted within
partitions (the CSR/CSC clustering), all eagerly materialized.

The original driver-side :class:`PropertyGraph` is retained and exposed
via :meth:`to_property_graph` — the analog of Vineyard's zero-copy
sharing with co-located consumers (HiActor's local index build, the
learning sampler).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.datasets.property_graph import PropertyGraph
from repro.storage.grin import GraphStore, Trait, to_spark


class VineyardStore(GraphStore):
    """Immutable in-memory store; the fastest backend in Exp-1."""

    name = "vineyard"
    TRAITS = (
        Trait.TOPOLOGY | Trait.PROPERTY | Trait.PARTITION | Trait.INDEX | Trait.PREDICATE_PUSHDOWN
    )

    def __init__(self, spark: SparkSession, pg: PropertyGraph, *, eager: bool = True):
        self._spark = spark
        self._pg = pg
        self._v = {l: to_spark(spark, p).cache() for l, p in pg.vertices.items()}
        self._e = {l: to_spark(spark, p).cache() for l, p in pg.edges.items()}
        base = to_spark(spark, pg.all_edges())
        self._adj_out = (
            base.repartition("src").sortWithinPartitions("src").cache()
        )
        self._adj_in = (
            base.select(
                F.col("dst").alias("src"), F.col("src").alias("dst"), "label"
            )
            .repartition("src")
            .sortWithinPartitions("src")
            .cache()
        )
        if eager:  # immutable store: pay materialization once, up front
            for df in [*self._v.values(), *self._e.values(), self._adj_out, self._adj_in]:
                df.count()

    def vertex_labels(self) -> list[str]:
        return list(self._v)

    def edge_labels(self) -> list[str]:
        return list(self._e)

    def edge_signature(self, label: str) -> tuple[str, str]:
        return self._pg.edge_signatures[label]

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._v[label]
        return df.filter(predicate) if predicate else df

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._e[label]
        return df.filter(predicate) if predicate else df

    def adjacency(self, *, direction: str = "out") -> DataFrame:
        if direction not in ("out", "in"):
            raise ValueError("direction must be 'out' or 'in'")
        return self._adj_out if direction == "out" else self._adj_in

    def to_property_graph(self) -> PropertyGraph:
        """Zero-copy driver-side view (Vineyard shared-memory analog)."""
        return self._pg
