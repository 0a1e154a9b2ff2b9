"""Analytics stack vs numpy references and the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.analytics import algorithms, gpu_backend, reference
from repro.analytics.baselines import gemini_engine, grape_engine, powergraph_engine
from repro.analytics.flash import flash_cc
from repro.analytics.grape import GrapeEngine
from repro.analytics.pie import PIEEngine, sssp_pie
from repro.datasets import graphs
from repro.oracle import assert_equivalent
from repro.storage.csr import NumpyCSR, StaticCSRStore


@pytest.fixture(scope="module")
def edges():
    e = graphs.rmat_edges(scale=7, n_edges=600, seed=5)
    dense, n = graphs.compact_ids(e)
    return dense


@pytest.fixture(scope="module")
def store(spark, edges):
    return StaticCSRStore(spark, edges)


@pytest.fixture(scope="module")
def engine(spark, store):
    return GrapeEngine(spark, store)


def _np_edges(edges):
    n = int(max(edges.src.max(), edges.dst.max())) + 1
    return edges.src.to_numpy(), edges.dst.to_numpy(), n


def test_pagerank_matches_reference(engine, edges):
    got = algorithms.pagerank(engine, num_iter=8).toPandas().sort_values("id")
    s, d, n = _np_edges(edges)
    # engine vertex set only contains endpoint vertices; ids are dense so n matches
    want = reference.pagerank(s, d, n, num_iter=8)
    np.testing.assert_allclose(got["rank"].to_numpy(), want[got.id.to_numpy()], rtol=1e-9)
    assert abs(got["rank"].sum()) <= 1.0 + 1e-9


def test_bfs_matches_reference(engine, edges):
    src0 = int(edges.src.iloc[0])
    got = algorithms.bfs(engine, source=src0, max_iter=30).toPandas()
    s, d, n = _np_edges(edges)
    want = reference.bfs(s, d, n, src0)
    got_d = got.set_index("id").dist
    for vid, w in enumerate(want):
        if vid in got_d.index:
            g = got_d.loc[vid]
            if w < 0:
                assert pd.isna(g)
            else:
                assert g == w


def test_wcc_matches_reference(spark, store, edges):
    eng = GrapeEngine(spark, store, symmetrize=True)
    got = algorithms.wcc(eng, max_iter=50).toPandas()
    s, d, n = _np_edges(edges)
    want = reference.wcc(s, d, n)
    got_map = got.set_index("id").component
    for vid in got.id:
        assert got_map.loc[vid] == want[vid]


def test_degrees_oracle(engine, edges, spark):
    deg = engine.out_degrees().withColumnRenamed("deg", "outdeg")
    assert_equivalent(
        deg,
        """
        WITH ids AS (SELECT src AS id FROM e UNION SELECT dst FROM e)
        SELECT ids.id AS id, count(e.src) AS outdeg
        FROM ids LEFT JOIN e ON e.src = ids.id GROUP BY ids.id
        """,
        e=edges,
    )


def test_triangle_count(engine, edges):
    got = algorithms.triangle_count(engine)
    s, d, n = _np_edges(edges)
    assert got == reference.triangle_count(s, d, n)


def test_kcore(spark, store, edges):
    eng = GrapeEngine(spark, store, symmetrize=True)
    got = set(algorithms.kcore(eng, k=3).toPandas().id)
    s, d, n = _np_edges(edges)
    want = set(reference.kcore_vertices(s, d, n, 3))
    assert got == want


def test_label_propagation_runs(spark, store):
    eng = GrapeEngine(spark, store, symmetrize=True)
    got = algorithms.label_propagation(eng, num_iter=3).toPandas()
    assert len(got) == eng.num_vertices
    assert got.community.isin(got.id).all()


def test_sssp_weighted(spark, edges):
    w = graphs.with_weights(edges, seed=2, low=0.1, high=1.0)

    class WStore(StaticCSRStore):
        def __init__(self, spark, e):
            super().__init__(spark, e)
            self._w = spark.createDataFrame(e).cache()

        def edges(self, label, *, predicate=None):
            return self._w

    st = WStore(spark, w)
    eng = GrapeEngine(spark, st, edge_weight="weight")
    src0 = int(edges.src.iloc[0])
    got = algorithms.sssp(eng, source=src0, max_iter=40).toPandas().set_index("id")
    want = reference.sssp(
        w.src.to_numpy(), w.dst.to_numpy(), w.weight.to_numpy(),
        int(max(w.src.max(), w.dst.max())) + 1, src0,
    )
    for vid in got.index:
        g = got.loc[vid, "dist"]
        if np.isinf(want[vid]):
            assert pd.isna(g)
        else:
            assert abs(g - want[vid]) < 1e-9


def test_baseline_engines_same_results(spark, store, edges):
    s, d, n = _np_edges(edges)
    want = reference.pagerank(s, d, n, num_iter=5)
    for factory in (grape_engine, powergraph_engine, gemini_engine):
        eng = factory(spark, store)
        got = algorithms.pagerank(eng, num_iter=5).toPandas().sort_values("id")
        np.testing.assert_allclose(
            got["rank"].to_numpy(), want[got.id.to_numpy()], rtol=1e-9,
            err_msg=factory.__name__,
        )


def test_pie_sssp(spark, edges):
    w = graphs.with_weights(edges, seed=3, low=0.1, high=1.0)

    class WStore(StaticCSRStore):
        def __init__(self, spark, e):
            super().__init__(spark, e)
            self._w = spark.createDataFrame(e).cache()

        def edges(self, label, *, predicate=None):
            return self._w

    st = WStore(spark, w)
    eng = PIEEngine(GrapeEngine(spark, st, edge_weight="weight"), num_fragments=4)
    src0 = int(edges.src.iloc[0])
    got = sssp_pie(eng, source=src0).toPandas().set_index("id")
    want = reference.sssp(
        w.src.to_numpy(), w.dst.to_numpy(), w.weight.to_numpy(),
        int(max(w.src.max(), w.dst.max())) + 1, src0,
    )
    for vid in got.index:
        assert abs(got.loc[vid, "dist"] - want[vid]) < 1e-9 or (
            np.isinf(got.loc[vid, "dist"]) and np.isinf(want[vid])
        )


def test_flash_cc(spark, store, edges):
    eng = GrapeEngine(spark, store, symmetrize=True)
    got = flash_cc(eng).toPandas().set_index("id")
    s, d, n = _np_edges(edges)
    want = reference.wcc(s, d, n)
    for vid in got.index:
        assert got.loc[vid, "component"] == want[vid]


# (src, dst, n) of degenerate graphs for the GPU-analog kernels
GPU_GRAPHS = {
    "empty": ([], [], 3),
    "no-in-edges-at-both-ends": ([1, 2, 1], [2, 1, 2], 4),  # ids 0 and 3
    "self-loops": ([0, 0, 1, 2], [0, 1, 1, 2], 3),
    "duplicate-edges": ([0, 2, 0, 2], [1, 1, 1, 1], 3),
}


@pytest.mark.parametrize("case", [*GPU_GRAPHS, "rmat"])
def test_gpu_kernels_match_reference(case, edges):
    if case == "rmat":
        s, d, n = _np_edges(edges)
    else:
        src, dst, n = GPU_GRAPHS[case]
        s, d = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    csr = NumpyCSR(s, d, n)
    want_pr = reference.pagerank(s, d, n, num_iter=10)
    for got in (gpu_backend.flexgpu_pagerank(csr, num_iter=10),
                gpu_backend.gunrock_pagerank(s, d, n, num_iter=10),
                gpu_backend.groute_pagerank(s, d, n, num_iter=10)):
        np.testing.assert_allclose(got, want_pr, rtol=1e-12)
    src0 = int(s[0]) if len(s) else 0
    want_bfs = reference.bfs(s, d, n, src0)
    for got in (gpu_backend.flexgpu_bfs(csr, src0), gpu_backend.gunrock_bfs(s, d, n, src0),
                gpu_backend.groute_bfs(s, d, n, src0)):
        np.testing.assert_array_equal(got, want_bfs)
