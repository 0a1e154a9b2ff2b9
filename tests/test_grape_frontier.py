"""GRAPE's frontier loop (``until_convergence``) on degenerate graphs.

BFS, SSSP and WCC send only from the vertices that changed in the
previous superstep; each is checked against networkx on every CPU
engine configuration, and the loop is shown to launch one Spark job
per superstep.
"""
import math

import networkx as nx
import numpy as np
import pandas as pd
import pytest

from repro.analytics import algorithms
from repro.analytics.baselines import CPU_SYSTEMS, grape_engine
from repro.datasets.property_graph import PropertyGraph
from repro.storage.vineyard import VineyardStore

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


def test_bfs_one_job_per_superstep(spark):
    """Convergence is read off the superstep's checkpoint: BFS along a
    directed path of k edges takes k + 1 supersteps (the last finds no
    change) and launches exactly one Spark job for each, plus one for
    the final collect.  Adaptive execution is off, as in the benchmark:
    it would split each superstep into one job per shuffle stage."""
    k = 6
    rows = [(i, i + 1, 1.0) for i in range(k)]
    store, _, _ = _store(spark, rows)
    eng = grape_engine(spark, store)
    sc = spark.sparkContext
    aqe = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    sc.setJobGroup("bfs-path-jobs", "bfs on a path")
    try:
        got = algorithms.bfs(eng, source=0).collect()
        jobs = sc.statusTracker().getJobIdsForGroup("bfs-path-jobs")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        spark.conf.set("spark.sql.adaptive.enabled", aqe)
    assert sorted((r.id, r.dist) for r in got) == [(i, i) for i in range(k + 1)]
    assert len(jobs) == (k + 1) + 1
