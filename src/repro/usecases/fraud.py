"""Real-time fraud detection (paper §8 + Exp-5 / Table 2).

Deployment per the paper: **GART** (dynamic store, orders stream in as
(Account)-[BUY]->(Item) edges) + **HiActor** (OLTP engine).  The check
for an account v against the fraud-seed set S:

    cnt1 = |{(s, item): v and s bought the same item within 5 days, s in S}|
    cnt2 = |{(s, item): a KNOWS-friend f of v and s co-bought, s in S}|
    alert  iff  w1*cnt1 + w2*cnt2 > threshold

(the Cypher of Fig. 6(a); our mini-Cypher lacks WITH-chaining, so the
stored procedure runs the two MATCH stages and combines them — exactly
how a registered stored procedure executes in the real system).

Correctness: :meth:`FraudDetector.check` (index-based stored procedure)
is oracle-checked against DuckDB SQL in tests.
Throughput: :func:`throughput_sweep` drives a process pool (true
parallelism, the actor-shard analog) — Table 2's worker sweep.
"""
from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from repro.datasets import snb
from repro.datasets.property_graph import PropertyGraph
from repro.query.hiactor import HiActorEngine
from repro.storage.csr import gather_segments


def fraud_graph(*, n_accounts: int = 500, seed: int = 0, n_seeds: int = 25) -> tuple[PropertyGraph, np.ndarray]:
    """SNB-lite graph + a deterministic fraud-seed account set."""
    pg = snb.snb_graph(n_persons=n_accounts, seed=seed)
    g = np.random.default_rng(seed + 1)
    accounts = pg.vertices["Account"].id.to_numpy()
    seeds = np.sort(g.choice(accounts, size=min(n_seeds, len(accounts)), replace=False))
    return pg, seeds


class FraudDetector:
    """Stored-procedure implementation over HiActor's in-memory indexes.

    One check joins two small edge sets on item: the BUY edges of the
    account and its friends (one batched gather) and the seeds' own BUY
    edges (a second gather, sorted by item).  Every purchase then finds
    the seed purchases of its item with two ``searchsorted`` calls into
    that sorted list.  Starting from the seeds touches about 100x fewer
    rows than expanding each bought item to all of its buyers, most of
    whom are not seeds.  Both gathers read the current BUY index, so a
    check sees every ``add_edge`` made before it.
    """

    def __init__(self, engine: HiActorEngine, seeds: np.ndarray,
                 *, w1: float = 1.0, w2: float = 0.5, threshold: float = 2.0,
                 window: int = 5):
        self.e = engine
        self.seeds = np.unique(seeds)
        self.w1, self.w2, self.threshold, self.window = w1, w2, threshold, window

    def check(self, account: int) -> tuple[bool, int, int]:
        buy = self.e.adj[("BUY", "out")]
        friends = np.unique(self.e.adj[("AKNOWS", "out")].neighbors(account))
        # owner 0 is the account itself (cnt1), owners 1.. its friends (cnt2)
        owners = np.concatenate([[account], friends])
        who, bought = buy.gather(owners)
        srow, sold = buy.gather(self.seeds)
        by_item = np.argsort(buy.nbrs[sold])
        sold, buyer = sold[by_item], self.seeds[srow[by_item]]
        items, wanted = buy.nbrs[sold], buy.nbrs[bought]
        row, pair = gather_segments(np.searchsorted(items, wanted, "left"),
                                    np.searchsorted(items, wanted, "right"))
        who, bought, sold, buyer = who[row], bought[row], sold[pair], buyer[pair]
        ok = buyer != owners[who]
        direct = who == 0
        near = np.abs(buy.props["date"][sold] - buy.props["date"][bought]) < self.window
        cnt1 = int(np.count_nonzero(ok & direct & near))
        cnt2 = int(np.count_nonzero(ok & ~direct))
        score = self.w1 * cnt1 + self.w2 * cnt2
        return score > self.threshold, cnt1, cnt2


# -- Table 2 throughput harness ---------------------------------------------
_WORKER_STATE: dict = {}


def _init_worker(pg: PropertyGraph, seeds: np.ndarray, params: dict):
    # one engine per worker process (actor-shard locality)
    _WORKER_STATE["det"] = FraudDetector(HiActorEngine(pg), seeds, **params)
    _WORKER_STATE["accounts"] = pg.vertices["Account"].id.to_numpy()


def _worker_run(args) -> tuple[int, float, float]:
    """Checks done, and the start and end of the loop on ``time.monotonic``
    (one clock for every process of the pool)."""
    worker_id, duration = args
    det: FraudDetector = _WORKER_STATE["det"]
    accounts = _WORKER_STATE["accounts"]
    rng = np.random.default_rng(worker_id)
    start = time.monotonic()
    end = start + duration
    n = 0
    while time.monotonic() < end:
        det.check(int(rng.choice(accounts)))
        n += 1
    return n, start, time.monotonic()


def throughput_sweep(
    pg: PropertyGraph,
    seeds: np.ndarray,
    *,
    worker_counts=(10, 20, 30, 40),
    duration: float = 2.0,
    params: dict | None = None,
) -> dict[int, float]:
    """ops/s for each worker count (Table 2's #threads sweep).

    The rate is the pool's total over its wall time, from the first
    worker's start to the last worker's end, so workers that start late
    do not inflate it.
    """
    params = params or {}
    out = {}
    ctx = mp.get_context("fork")
    for w in worker_counts:
        with ctx.Pool(w, initializer=_init_worker, initargs=(pg, seeds, params)) as pool:
            runs = pool.map(_worker_run, [(i, duration) for i in range(w)])
        counts, starts, ends = zip(*runs)
        out[w] = sum(counts) / (max(ends) - min(starts))
    return out


def stream_orders(gart_store, *, n_orders: int = 50, seed: int = 123) -> None:
    """Apply a stream of new BUY edges to a GART store (order ingestion)."""
    import pandas as pd

    g = np.random.default_rng(seed)
    accounts = gart_store._v_pdf["Account"].id.to_numpy()
    items = gart_store._v_pdf["Item"].id.to_numpy()
    for i in range(n_orders):
        gart_store.insert_edges(
            "BUY",
            pd.DataFrame(
                {
                    "src": [int(g.choice(accounts))],
                    "dst": [int(g.choice(items))],
                    "date": [3000 + i],
                    "amount": [float(g.random() * 100)],
                }
            ),
        )
