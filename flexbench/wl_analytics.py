"""The analytics half of ``olap``: GRAPE PageRank, BFS, SSSP and WCC on Vineyard.

The program holds an RMAT-10 graph (edge factor 16, ids compacted to a
dense range, uniform weights in [0.1, 1)) in a ``VineyardStore`` and
three ``GrapeEngine``s built from it: plain, weighted (SSSP) and
symmetrised (WCC).  One round runs PageRank (5 iterations), BFS and
SSSP from the highest-out-degree vertex, WCC, and twice ``load``: a
fresh ``GrapeEngine`` built from the store, the load phase that
Graphalytics times separately from processing (it writes executor
memory, not the graph).  PageRank keeps every vertex active; BFS, SSSP
and WCC shrink their frontiers until nothing changes.

Results are checked against networkx (BFS, SSSP, WCC) and against a
power iteration written here (PageRank, no dangling redistribution,
same iteration count).
"""
from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np
import pandas as pd

from harness import expect, expect_eq

from repro.analytics import algorithms, grape
from repro.datasets import graphs
from repro.datasets.property_graph import PropertyGraph
from repro.storage.vineyard import VineyardStore

READ_KINDS = ["pagerank", "bfs", "sssp", "wcc"]
WRITE_KINDS = ["load"]
LOADS_PER_ROUND = 2
SCALE = 10
EDGE_FACTOR = 16
PR_ITERS = 5
ALPHA = 0.85


@dataclass
class State:
    edges: pd.DataFrame
    n: int
    source: int
    spark: object
    store: VineyardStore
    plain: grape.GrapeEngine
    weighted: grape.GrapeEngine
    undirected: grape.GrapeEngine
    want: dict | None = None


def build(seed: int, spark) -> State:
    e = graphs.rmat_edges(scale=SCALE, n_edges=EDGE_FACTOR << SCALE, seed=seed)
    e, n = graphs.compact_ids(e)
    e = graphs.with_weights(e, seed=seed + 1, low=0.1, high=1.0)
    pg = PropertyGraph()
    pg.add_vertices("V", pd.DataFrame({"id": np.arange(n, dtype=np.int64)}))
    pg.add_edges("E", e, src_label="V", dst_label="V")
    store = VineyardStore(spark, pg)
    return State(
        edges=e,
        n=n,
        source=int(np.bincount(e.src, minlength=n).argmax()),
        spark=spark,
        store=store,
        plain=grape.GrapeEngine(spark, store),
        weighted=grape.GrapeEngine(spark, store, edge_weight="weight"),
        undirected=grape.GrapeEngine(spark, store, symmetrize=True),
    )


def reference_pagerank(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    deg = np.bincount(src, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(PR_ITERS):
        incoming = np.zeros(n)
        np.add.at(incoming, dst, rank[src] / deg[src])
        rank = (1 - ALPHA) / n + ALPHA * incoming
    return rank


def attach_model(st: State) -> None:
    e = st.edges
    g = nx.DiGraph()
    g.add_nodes_from(range(st.n))
    g.add_weighted_edges_from(zip(e.src.tolist(), e.dst.tolist(), e.weight.tolist()))
    wcc = np.empty(st.n, dtype=np.int64)
    for comp in nx.weakly_connected_components(g):
        wcc[list(comp)] = min(comp)
    st.want = {
        "pagerank": reference_pagerank(e.src.to_numpy(), e.dst.to_numpy(), st.n),
        "bfs": nx.single_source_shortest_path_length(g, st.source),
        "sssp": nx.single_source_dijkstra_path_length(g, st.source, weight="weight"),
        "wcc": wcc,
    }


# -- checks ----------------------------------------------------------------
def _by_id(got: pd.DataFrame, col: str, n: int) -> np.ndarray:
    expect_eq(len(got), n, f"{col}: row count")
    expect(bool(got.id.is_unique), f"{col}: duplicate ids")
    return got.set_index("id")[col].reindex(np.arange(n)).to_numpy(dtype=np.float64)


def check_pagerank(st: State, got: pd.DataFrame) -> None:
    rank = _by_id(got, "rank", st.n)
    expect(bool(np.allclose(rank, st.want["pagerank"], rtol=1e-9, atol=0)), "pagerank: ranks differ")


def _check_dist(st: State, kind: str, got: pd.DataFrame) -> None:
    dist = _by_id(got, "dist", st.n)
    want = np.full(st.n, np.nan)
    for v, d in st.want[kind].items():
        want[v] = d
    expect(bool(np.array_equal(np.isnan(dist), np.isnan(want))), f"{kind}: reachable sets differ")
    ok = ~np.isnan(want)
    expect(bool(np.allclose(dist[ok], want[ok], rtol=1e-9, atol=1e-12)), f"{kind}: distances differ")


def check_wcc(st: State, got: pd.DataFrame) -> None:
    comp = _by_id(got, "component", st.n)
    expect(bool(np.array_equal(comp, st.want["wcc"].astype(np.float64))), "wcc: components differ")


def check_load(st: State, engine) -> None:
    expect_eq(engine.num_vertices, st.n, "load: vertex count")


# -- one round -------------------------------------------------------------
def _load(st: State):
    return grape.GrapeEngine(st.spark, st.store)


def run_round(st: State, r: int, rec) -> None:
    # the untimed warm-up round (r < 0) stops every algorithm after two
    # supersteps: enough to compile each plan shape, and its truncated
    # results are not checked
    warm = r < 0
    cap = 2 if warm else None

    def checked(fn):
        return None if warm else fn

    rec.op("pagerank",
           lambda: algorithms.pagerank(st.plain, alpha=ALPHA, num_iter=cap or PR_ITERS).toPandas(),
           checked(lambda out: check_pagerank(st, out)))
    rec.op("bfs", lambda: algorithms.bfs(st.plain, source=st.source, max_iter=cap).toPandas(),
           checked(lambda out: _check_dist(st, "bfs", out)))
    rec.op("sssp", lambda: algorithms.sssp(st.weighted, source=st.source, max_iter=cap).toPandas(),
           checked(lambda out: _check_dist(st, "sssp", out)))
    rec.op("wcc", lambda: algorithms.wcc(st.undirected, max_iter=cap).toPandas(),
           checked(lambda out: check_wcc(st, out)))
    for _ in range(1 if warm else LOADS_PER_ROUND):
        engine = rec.op("load", lambda: _load(st), lambda out: check_load(st, out))
        if engine is not None:  # keep the cache to the engines the reads use
            engine.edges.unpersist()
            engine.vertices.unpersist()
