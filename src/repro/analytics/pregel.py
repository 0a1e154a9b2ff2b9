"""Pregel ("think-like-a-vertex") API over the GRAPE engine (paper §6).

GraphX-compatible surface: users supply ``initial_msg``-less GraphX
style triplet functions as Column expressions.  The paper's equity use
case ("a modified label propagation algorithm with the GraphX API")
runs through exactly this module.
"""
from __future__ import annotations

from typing import Callable

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.analytics.grape import GrapeEngine


def pregel(
    engine: GrapeEngine,
    *,
    initial: DataFrame,
    send_msg: Callable[[DataFrame], Column],
    merge_msg: Callable[[Column], Column],
    vprog: Callable[[Column, Column], Column],
    max_iter: int = 10,
    until_convergence: bool = False,
) -> DataFrame:
    """Run a vertex-centric computation; returns final (id, value).

    ``send_msg(triplet)``   — message from src to dst; the triplet frame
                              has src, dst, value (=src state) [, weight].
    ``merge_msg(col)``      — commutative/associative combiner.
    ``vprog(value, msg)``   — new state; ``msg`` is NULL if none arrived.
    """
    return engine.run(
        initial=initial,
        num_iter=max_iter,
        send=send_msg,
        agg=merge_msg,
        update=vprog,
        until_convergence=until_convergence,
    )


def source_initial(engine: GrapeEngine, source: int, src_value, other_value) -> DataFrame:
    """(id, value) state distinguishing one source vertex (BFS/SSSP)."""
    return engine.vertices.select(
        "id",
        F.when(F.col("id") == source, F.lit(src_value))
        .otherwise(F.lit(other_value))
        .alias("value"),
    )
