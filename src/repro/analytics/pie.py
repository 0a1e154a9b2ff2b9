"""PIE model: subgraph-centric programming (paper §6, Fan et al. TODS'18).

PIE runs a *sequential* algorithm on each fragment (PEval), exchanges
border messages, then incrementally re-evaluates (IncEval) until no
messages flow — GRAPE's auto-parallelization of sequential code.

Spark mapping: PIE is a programming model over the GRAPE engine.  Its
fragments are the engine's shared edge fragments, keyed by
``pmod(src, num_fragments)``; PEval / IncEval are plain-pandas functions
executed fragment-parallel via ``cogroup().applyInPandas`` (the
partition-at-a-time escape hatch that corresponds to PIE's "handle a
partition as a primary element").  Message routing between fragments is
a repartition on the owner id, and every round ends in the engine's
:func:`~repro.analytics.grape.barrier`, whose ``observe`` counts the
round's messages.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.analytics.grape import GrapeEngine, barrier

PEvalFn = Callable[[pd.DataFrame, pd.DataFrame], tuple[pd.DataFrame, pd.DataFrame]]
IncEvalFn = Callable[[pd.DataFrame, pd.DataFrame, pd.DataFrame], tuple[pd.DataFrame, pd.DataFrame]]


class PIEEngine:
    """Fragment-parallel PEval/IncEval runtime over a GRAPE engine.

    ``peval(edges_pdf, state_pdf)`` and
    ``inceval(edges_pdf, state_pdf, msgs_pdf)`` both return
    ``(new_state_pdf, out_msgs_pdf)`` where messages are (id, mvalue)
    rows addressed to *any* vertex (the engine routes them to the
    owning fragment).  State rows are (id, value) for the fragment's
    own vertices.  Edges carry the engine's ``weight``, or 1.0 when the
    engine is unweighted.
    """

    def __init__(self, engine: GrapeEngine, *, num_fragments: int = 4):
        self.nfrag = num_fragments
        edges = engine.edges
        if "weight" not in edges.columns:
            edges = edges.withColumn("weight", F.lit(1.0))
        # a fragment owns the vertices (and the out-edges) whose id it owns
        self.edges = edges.withColumn("frag", F.pmod("src", F.lit(self.nfrag)))
        self.vertices = engine.vertices.withColumn("frag", F.pmod("id", F.lit(self.nfrag)))

    def run(
        self,
        *,
        initial: DataFrame,  # (id, value)
        peval: PEvalFn,
        inceval: IncEvalFn,
        max_rounds: int = 30,
    ) -> DataFrame:
        state = initial.join(self.vertices.select("id", "frag"), "id")
        msgs = None
        schema = "id long, value double, kind string, frag long"

        nfrag = self.nfrag  # captured by value: the closure must not
        # reference ``self`` (it would drag the SparkSession to workers)

        def make_round(fn, with_msgs: bool):
            def round_fn(_key, edges_pdf: pd.DataFrame, sm_pdf: pd.DataFrame):
                st = sm_pdf[sm_pdf.kind == "state"][["id", "value"]]
                if with_msgs:
                    mg = sm_pdf[sm_pdf.kind == "msg"][["id", "value"]]
                    new_state, out = fn(edges_pdf, st, mg)
                else:
                    new_state, out = fn(edges_pdf, st)
                res = new_state.assign(kind="state")
                res["frag"] = (res.id % nfrag).astype("int64")
                if len(out):
                    om = out.assign(kind="msg")
                    om["frag"] = (om.id % nfrag).astype("int64")
                    res = pd.concat([res, om], ignore_index=True)
                return res[["id", "value", "kind", "frag"]]

            return round_fn

        for rnd in range(max_rounds):
            sm = state.select("id", F.col("value").cast("double"), F.lit("state").alias("kind"), "frag")
            if msgs is not None:
                sm = sm.unionByName(msgs)
            fn = make_round(peval, False) if rnd == 0 else make_round(inceval, True)
            rows = (
                self.edges.groupby("frag").cogroup(sm.groupby("frag")).applyInPandas(fn, schema)
            )
            combined, seen = barrier(rows, msgs=F.count_if(F.col("kind") == "msg"))
            state = combined.filter("kind = 'state'").select("id", "value", "frag")
            msgs = combined.filter("kind = 'msg'").select("id", "value", "kind", "frag")
            if not seen["msgs"]:
                break
        return state.select("id", "value")


def sssp_pie(engine: PIEEngine, *, source: int) -> DataFrame:
    """PIE SSSP: sequential Bellman-Ford per fragment + border exchange.

    The paper's canonical PIE example (PEval = local shortest paths,
    IncEval = incremental relaxation from border updates).  Returns
    (id, dist) with unreachable = +inf.
    """

    def local_view(edges: pd.DataFrame, state: pd.DataFrame, extra=()):
        # dense positions over every id the fragment touches; non-owned
        # ids start at +inf (their distance lives in another fragment)
        own_ids = state.id.to_numpy(dtype=np.int64)
        ids = np.unique(np.concatenate(
            [own_ids, edges.src.to_numpy(np.int64), edges.dst.to_numpy(np.int64), *extra]
        ))
        dist = np.full(len(ids), np.inf)
        own = np.searchsorted(ids, own_ids)
        dist[own] = state.value.to_numpy(dtype=np.float64)
        return ids, own, dist

    def local_relax(edges: pd.DataFrame, ids: np.ndarray, dist: np.ndarray) -> np.ndarray:
        # Bellman-Ford over this fragment's edges until fixpoint, in
        # place; returns the mask of positions it lowered
        start = dist.copy()
        s = np.searchsorted(ids, edges.src.to_numpy(np.int64))
        d = np.searchsorted(ids, edges.dst.to_numpy(np.int64))
        w = edges.weight.to_numpy(np.float64)
        for _ in range(len(w) + 1):
            cand = dist[s] + w
            better = cand < dist[d]
            if not better.any():
                break
            np.minimum.at(dist, d[better], cand[better])
        return dist < start

    def result(ids, own, dist, lowered):
        new_state = pd.DataFrame({"id": ids[own], "value": dist[own]})
        border = lowered.copy()
        border[own] = False  # only non-owned vertices become messages
        return new_state, pd.DataFrame({"id": ids[border], "value": dist[border]})

    def peval(edges: pd.DataFrame, state: pd.DataFrame):
        state = state.assign(value=np.where(state.id == source, 0.0, np.inf))
        ids, own, dist = local_view(edges, state)
        return result(ids, own, dist, local_relax(edges, ids, dist))

    def inceval(edges: pd.DataFrame, state: pd.DataFrame, msgs: pd.DataFrame):
        mid = msgs.id.to_numpy(dtype=np.int64)
        ids, own, dist = local_view(edges, state, (mid,))
        pos = np.searchsorted(ids, mid)
        mv = msgs.value.to_numpy(dtype=np.float64)
        lowered = np.zeros(len(ids), dtype=bool)
        if (mv < dist[pos]).any():
            np.minimum.at(dist, pos, mv)
            lowered = local_relax(edges, ids, dist)
        return result(ids, own, dist, lowered)

    init = engine.vertices.select(
        "id", F.when(F.col("id") == source, 0.0).otherwise(float("inf")).alias("value")
    )
    return engine.run(initial=init, peval=peval, inceval=inceval).withColumnRenamed(
        "value", "dist"
    )
