"""FLASH model: flexible control flow + non-neighbor communication (§6).

FLASH (ICDE'23) generalizes vertex-centric programming: a step may send
messages to *arbitrary* vertices (not just neighbors) and the driver
may run any control flow over steps (not just a fixed-point loop).

Spark mapping: FLASH is a programming model over the GRAPE engine.
Vertex state is a DataFrame; neighbor messages are the engine's
:meth:`~repro.analytics.grape.GrapeEngine.messages` over its shared edge
fragments, :func:`gather` routes an arbitrary (id, target) DataFrame to
its targets (a join — no adjacency involved), and every round ends in
the engine's :func:`~repro.analytics.grape.barrier`.  The demo
algorithm is connected components with **pointer jumping** — each
vertex repeatedly asks its current root (a non-neighbor after round 1!)
for *its* root, which no pure Pregel neighborhood model can express in
O(log n) rounds.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.analytics.grape import GrapeEngine, barrier


def gather(state: DataFrame, targets: DataFrame, value_col: str = "value") -> DataFrame:
    """Non-neighbor communication: for each (id, target) row, fetch
    ``state[value]`` of ``target``.  Returns (id, fetched)."""
    return (
        targets.join(
            state.select(F.col("id").alias("target"), F.col(value_col).alias("fetched")),
            "target",
        ).select("id", "fetched")
    )


def flash_cc(engine: GrapeEngine, *, max_rounds: int = 40) -> DataFrame:
    """Connected components via hash-min + pointer jumping.

    ``engine`` is a ``GrapeEngine(..., symmetrize=True)``.  Alternates
    (1) a neighborhood min-exchange with (2) a pointer-jump
    ``root := root.root`` — step (2) contacts non-neighbors, FLASH's
    distinguishing capability.  Converges in O(log n) alternations vs
    O(diameter) for plain hash-min.  Returns (id, component).
    """
    state = engine.vertices.select("id", F.col("id").alias("value"))
    for _ in range(max_rounds):
        # (1) neighborhood hash-min; ``old`` carries the round's start value
        msgs = engine.messages(state, lambda t: F.col("value"), F.min)
        new = state.join(msgs, "id", "left").select(
            "id", F.least("value", "msg").alias("value"), F.col("value").alias("old")
        )
        # (2) pointer jumping: value := value(value)   [non-neighbor]
        jump = gather(new, new.select("id", F.col("value").alias("target")))
        new = new.join(jump, "id", "left").select(
            "id", F.least("value", "fetched").alias("value"), "old"
        )
        # values only go down (``least``), so a changed row is one whose
        # value is not its round-start value
        state, seen = barrier(new, changed=F.count_if(~F.col("value").eqNullSafe(F.col("old"))))
        state = state.drop("old")
        if not seen["changed"]:
            break
    return state.withColumnRenamed("value", "component")
