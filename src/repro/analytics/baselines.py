"""CPU comparator systems for Exp-3, as architectural stand-ins.

The paper benchmarks GRAPE against PowerGraph and Gemini, which are not
available in-container.  Per the substitution ledger (DESIGN.md §5),
each baseline here is a *real* implementation of the same computation
whose slowdown comes only from the architectural trait the paper
credits for GRAPE's advantage:

* :func:`powergraph_engine` — GAS-style scatter: per-edge message rows
  are materialized and shuffled before aggregation (no combiner), and
  edge fragments are neither pre-partitioned nor cached.  PowerGraph's
  vertex-cut scatter/gather has exactly this "message per edge over
  the wire" cost profile.
* :func:`gemini_engine` — computation-centric and well-engineered
  (cached fragments, combiner) but without GRAPE's pre-partitioned
  fragments; the paper reports GRAPE only 2-3× ahead of Gemini, and
  this switch is the gap we model.

Both reuse the identical :class:`GrapeEngine` superstep loop, lineage
checkpoint at every superstep included, so the measured difference is
*only* the configuration delta.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.analytics.grape import GrapeConfig, GrapeEngine
from repro.storage.grin import GraphStore


def grape_engine(spark: SparkSession, store: GraphStore, **kw) -> GrapeEngine:
    """The full GRAPE configuration (all optimizations on)."""
    return GrapeEngine(spark, store, config=GrapeConfig(), **kw)


def powergraph_engine(spark: SparkSession, store: GraphStore, **kw) -> GrapeEngine:
    """PowerGraph-analog: per-edge scatter, no fragment reuse."""
    cfg = GrapeConfig(
        prepartition_edges=False,
        cache_edges=False,
        combine_messages=False,
    )
    return GrapeEngine(spark, store, config=cfg, **kw)


def gemini_engine(spark: SparkSession, store: GraphStore, **kw) -> GrapeEngine:
    """Gemini-analog: cached + combined, but unpartitioned fragments."""
    cfg = GrapeConfig(
        prepartition_edges=False,
        cache_edges=True,
        combine_messages=True,
    )
    return GrapeEngine(spark, store, config=cfg, **kw)


CPU_SYSTEMS = {
    "GraphScope Flex (GRAPE)": grape_engine,
    "PowerGraph-analog": powergraph_engine,
    "Gemini-analog": gemini_engine,
}
