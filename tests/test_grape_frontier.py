"""GRAPE's frontier loop (``until_convergence``) on degenerate graphs.

BFS, SSSP and WCC send only from the vertices that changed in the
previous superstep; each is checked against networkx on every CPU
engine configuration, as are FLASH CC and PIE SSSP over the same
engines.  An edgeless graph runs every algorithm without rows, and
every programming model is shown to launch one Spark job per round.
"""
import math

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.analytics import algorithms
from repro.analytics.baselines import CPU_SYSTEMS, grape_engine
from repro.analytics.flash import flash_cc
from repro.analytics.pie import PIEEngine, sssp_pie
from repro.datasets import graphs
from repro.datasets.property_graph import PropertyGraph
from repro.storage.vineyard import VineyardStore
from repro.usecases import equity

# name -> ([(src, dst, weight)], source)
CASES = {
    # the source has out-degree 0: only it is reachable
    "sink-source": ([(0, 1, 1.0), (1, 2, 1.0), (3, 1, 0.5)], 2),
    "self-loops": ([(0, 0, 0.3), (0, 1, 1.0), (1, 1, 0.1), (1, 2, 2.0), (2, 2, 0.7)], 0),
    # parallel edges with different weights: SSSP takes the lighter one
    "duplicate-edges": ([(0, 1, 0.9), (0, 1, 0.2), (1, 2, 0.5), (1, 2, 0.5), (2, 0, 0.1)], 0),
    # sparse ids; the highest id has in-edges only
    "highest-id-sink": ([(0, 3, 1.0), (3, 7, 1.0), (1, 7, 0.4), (0, 1, 0.2), (3, 99, 0.6)], 0),
    "two-components": ([(0, 1, 1.0), (1, 2, 1.0), (10, 11, 1.0), (11, 10, 1.0), (12, 11, 1.0)], 0),
    # 0->1 costs 5.0, but 0->2->3->1 costs 1.5: vertex 1 (and 4 behind it)
    # changes at superstep 1 and again at superstep 3
    "longer-path-shorter": (
        [(0, 1, 5.0), (0, 2, 0.5), (2, 3, 0.5), (3, 1, 0.5), (1, 4, 1.0)], 0
    ),
}


def _store(spark, rows):
    e = pd.DataFrame(rows, columns=["src", "dst", "weight"]).astype(
        {"src": "int64", "dst": "int64", "weight": "float64"}
    )
    ids = np.unique(np.concatenate([e.src, e.dst]))
    pg = PropertyGraph()
    pg.add_vertices("V", pd.DataFrame({"id": ids}))
    pg.add_edges("E", e, src_label="V", dst_label="V")
    g = nx.MultiDiGraph()
    g.add_nodes_from(ids.tolist())
    g.add_weighted_edges_from(e.itertuples(index=False, name=None))
    return VineyardStore(spark, pg), g, ids


def _by_id(df, col):
    return df.toPandas().set_index("id")[col].to_dict()


def _assert_dist(got, want, ids, what):
    assert sorted(got) == ids.tolist(), what
    for v in ids.tolist():
        if v in want:
            assert got[v] == pytest.approx(want[v], rel=1e-12), (what, v)
        else:
            assert got[v] is None or math.isnan(got[v]), (what, v)


@pytest.mark.parametrize("system", list(CPU_SYSTEMS))
@pytest.mark.parametrize("case", list(CASES))
def test_frontier_algorithms_degenerate(spark, case, system):
    rows, source = CASES[case]
    store, g, ids = _store(spark, rows)
    factory = CPU_SYSTEMS[system]
    what = f"{case} on {system}"

    got = _by_id(algorithms.bfs(factory(spark, store), source=source), "dist")
    _assert_dist(got, nx.single_source_shortest_path_length(g, source), ids, f"bfs {what}")

    eng = factory(spark, store, edge_weight="weight")
    got = _by_id(algorithms.sssp(eng, source=source), "dist")
    want = nx.single_source_dijkstra_path_length(g, source, weight="weight")
    _assert_dist(got, want, ids, f"sssp {what}")

    got = _by_id(algorithms.wcc(factory(spark, store, symmetrize=True)), "component")
    want = {v: min(c) for c in nx.weakly_connected_components(g) for v in c}
    assert got == want, f"wcc {what}"


@pytest.mark.parametrize("system", list(CPU_SYSTEMS))
@pytest.mark.parametrize("case", list(CASES))
def test_flash_and_pie_degenerate(spark, case, system):
    rows, source = CASES[case]
    store, g, ids = _store(spark, rows)
    factory = CPU_SYSTEMS[system]
    what = f"{case} on {system}"

    got = _by_id(flash_cc(factory(spark, store, symmetrize=True)), "component")
    want = {v: min(c) for c in nx.weakly_connected_components(g) for v in c}
    assert got == want, f"flash_cc {what}"

    pie = PIEEngine(factory(spark, store, edge_weight="weight"))
    got = _by_id(sssp_pie(pie, source=source), "dist")
    want = nx.single_source_dijkstra_path_length(g, source, weight="weight")
    want = {v: want.get(v, math.inf) for v in ids.tolist()}
    assert got == pytest.approx(want, rel=1e-12), f"sssp_pie {what}"


@pytest.mark.parametrize("system", list(CPU_SYSTEMS))
def test_edgeless_graph(spark, system):
    """A graph whose one edge label has no rows: the store builds, and
    every algorithm returns no rows, since an engine's vertices are the
    endpoints of its edges."""
    pg = PropertyGraph()
    pg.add_vertices("V", pd.DataFrame({"id": np.arange(3, dtype=np.int64)}))
    e = pd.DataFrame({"src": [], "dst": [], "weight": []})
    pg.add_edges("E", e.astype({"src": "int64", "dst": "int64"}), src_label="V", dst_label="V")
    store = VineyardStore(spark, pg)
    factory = CPU_SYSTEMS[system]
    eng = factory(spark, store)
    weighted = factory(spark, store, edge_weight="weight")
    undirected = factory(spark, store, symmetrize=True)
    assert eng.num_vertices == 0
    runs = {
        "bfs": algorithms.bfs(eng, source=0),
        "sssp": algorithms.sssp(weighted, source=0),
        "wcc": algorithms.wcc(undirected),
        "pagerank": algorithms.pagerank(eng),
        "flash_cc": flash_cc(undirected),
        "sssp_pie": sssp_pie(PIEEngine(weighted), source=0),
    }
    for name, df in runs.items():
        assert df.collect() == [], f"{name} on {system}"


PATH_EDGES = 6


def _rmat_store(spark):
    """The RMAT-7 graph of ``test_analytics_core``, with ``test_pie_sssp``'s
    weights, and that test's source."""
    e, _ = graphs.compact_ids(graphs.rmat_edges(scale=7, n_edges=600, seed=5))
    w = graphs.with_weights(e, seed=3, low=0.1, high=1.0)
    rows = list(w[["src", "dst", "weight"]].itertuples(index=False, name=None))
    return _store(spark, rows)[0], int(e.src.iloc[0])


def _bfs_path(spark):
    store, _, _ = _store(spark, [(i, i + 1, 1.0) for i in range(PATH_EDGES)])
    eng = grape_engine(spark, store)
    return lambda: algorithms.bfs(eng, source=0)


def _flash_rmat(spark):
    eng = grape_engine(spark, _rmat_store(spark)[0], symmetrize=True)
    return lambda: flash_cc(eng)


def _pie_rmat(spark):
    store, source = _rmat_store(spark)
    eng = PIEEngine(grape_engine(spark, store, edge_weight="weight"))
    return lambda: sssp_pie(eng, source=source)


def _kcore_rmat(spark):
    eng = grape_engine(spark, _rmat_store(spark)[0], symmetrize=True)
    return lambda: algorithms.kcore(eng, k=3)


def _equity(spark):
    store = VineyardStore(spark, equity.equity_graph(n_companies=40, n_persons=20, seed=5))
    return lambda: equity.effective_ownership_grape(spark, store, max_depth=30)


# name -> (setup returning the run, Spark jobs of the run and its collect)
JOB_RUNS = {
    "bfs": (_bfs_path, (PATH_EDGES + 1) + 1),
    "flash_cc": (_flash_rmat, 3 + 1),  # 3 rounds
    "sssp_pie": (_pie_rmat, 8 + 1),  # 8 rounds
    "kcore": (_kcore_rmat, 3 + 1),  # 3 rounds
    # engine build 2, 9 depths of 2 (extend, accumulate), the empty 10th 1, the collect 1
    "equity": (_equity, 2 + 9 * 2 + 1 + 1),
}


@pytest.mark.parametrize("run", list(JOB_RUNS))
def test_bfs_one_job_per_superstep(spark, run):
    """Convergence is read off the superstep's checkpoint: BFS along a
    directed path of k edges takes k + 1 supersteps (the last finds no
    change) and launches exactly one Spark job for each, plus one for
    the final collect.  FLASH, PIE, k-core and the equity loop end their
    rounds in the same barrier, one job per round.  Adaptive execution
    is off, as in the benchmark: it would split each superstep into one
    job per shuffle stage."""
    k = PATH_EDGES
    setup, want_jobs = JOB_RUNS[run]
    go = setup(spark)
    sc = spark.sparkContext
    aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup(f"{run}-jobs", run)
    try:
        got = go().collect()
        jobs = sc.statusTracker().getJobIdsForGroup(f"{run}-jobs")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        spark.conf.set("spark.sql.adaptive.enabled", aqe)
    if run == "bfs":
        assert sorted((r.id, r.dist) for r in got) == [(i, i) for i in range(k + 1)]
    assert len(jobs) == want_jobs
