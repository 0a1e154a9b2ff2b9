"""Early smoke test: datasets + every storage backend round-trips."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import graphalytics, graphs, snb
from repro.datasets.property_graph import PropertyGraph
from repro.storage.gart import GartStore, LiveGraphStore
from repro.storage.graphar import GraphArStore, fetch_neighbors, register_datasource, write_graphar
from repro.storage.grin import Trait
from repro.storage.csr import NumpyCSR, StaticCSRStore
from repro.storage.vineyard import VineyardStore


@pytest.fixture(scope="module")
def pg():
    g = snb.snb_graph(n_persons=120, seed=7)
    g.validate()
    return g


def test_rmat_deterministic():
    a = graphs.rmat_edges(scale=8, n_edges=500, seed=3)
    b = graphs.rmat_edges(scale=8, n_edges=500, seed=3)
    pd.testing.assert_frame_equal(a, b)
    assert (a.src != a.dst).all()


def test_table1_generate():
    e = graphalytics.generate("CF", max_edges=2000)
    assert len(e) <= 2000
    assert e.src.min() >= 0


def test_vineyard_roundtrip(spark, pg):
    store = VineyardStore(spark, pg)
    assert store.supports(Trait.TOPOLOGY)
    assert store.vertices("Person").count() == len(pg.vertices["Person"])
    assert store.adjacency().count() == pg.num_edges
    got = store.edges("KNOWS").count()
    assert got == len(pg.edges["KNOWS"])


def test_gart_mvcc(spark, pg):
    store = GartStore(spark, pg)
    n0 = store.edges("KNOWS").count()
    v0 = store.write_version
    # key guaranteed absent from the generated KNOWS edges
    existing = set(map(tuple, pg.edges["KNOWS"][["src", "dst"]].itertuples(index=False)))
    s, d = snb.PERSON_BASE, snb.PERSON_BASE + 1
    while (s, d) in existing:
        d += 1
    new = pd.DataFrame({"src": [s], "dst": [d], "creationDate": [9999]})
    v1 = store.insert_edges("KNOWS", new)
    assert store.snapshot(v0).edges("KNOWS").count() == n0
    assert store.snapshot(v1).edges("KNOWS").count() == n0 + 1
    v2 = store.delete_edges("KNOWS", new)
    assert store.snapshot(v2).edges("KNOWS").count() == n0
    assert store.snapshot(v1).edges("KNOWS").count() == n0 + 1
    store.compact()
    assert store.edges("KNOWS").count() == n0


def test_graphar_roundtrip(spark, pg, tmp_path):
    write_graphar(pg, tmp_path, edge_chunk_size=200)
    store = GraphArStore(spark, tmp_path)
    assert store.edges("KNOWS").count() == len(pg.edges["KNOWS"])
    vid = int(pg.edges["KNOWS"].src.iloc[0])
    nb = fetch_neighbors(tmp_path, "KNOWS", vid)
    expect = set(pg.edges["KNOWS"].query("src == @vid").dst)
    assert set(nb.dst) == expect


def test_graphar_datasource(spark, pg, tmp_path):
    write_graphar(pg, tmp_path, edge_chunk_size=200)
    register_datasource(spark)
    df = spark.read.format("graphar").option("path", str(tmp_path)).option("label", "KNOWS").load()
    assert df.count() == len(pg.edges["KNOWS"])


def test_static_csr_and_numpy(spark):
    e = graphs.uniform_edges(n_vertices=50, n_edges=300, seed=1)
    dense, n = graphs.compact_ids(e)
    store = StaticCSRStore(spark, dense)
    assert store.adjacency().count() == len(dense)
    csr = NumpyCSR.from_edges(dense, n)
    assert csr.num_edges == len(dense)
    v = int(dense.src.iloc[0])
    assert set(csr.neighbors(v)) == set(dense.query("src == @v").dst)
    f = np.array([0, 1], dtype=np.int64)
    assert len(csr.neighbors_batch(f)) == csr.degree(0) + csr.degree(1)


def test_gart_cache_bounded_and_snapshots(spark, pg):
    """Insert, read at the new version and compact, five times: the
    frames Spark holds cached do not grow.  Afterwards, snapshots at
    versions between the base and the latest equal a pandas model of
    the log (inserts append, a delete removes every live copy)."""
    store = GartStore(spark, pg)
    model = {l: [pg.edges[l][["src", "dst"]]] for l in ("KNOWS", "LIKES")}
    history = {}  # version -> {label: live (src, dst) multiset}

    def cached_frames():
        return spark._jsparkSession.sharedState().cacheManager().cachedData().length()

    def write(label, rows=None, gone=None):
        if gone is None:
            v = store.insert_edges(label, rows)
            model[label].append(rows[["src", "dst"]])
        else:
            v = store.delete_edges(label, gone)
            live = pd.concat(model[label], ignore_index=True)
            key = pd.MultiIndex.from_frame(live).isin(pd.MultiIndex.from_frame(gone))
            model[label] = [live[~key]]
        history[v] = {l: sorted(map(tuple, pd.concat(p).itertuples(index=False)))
                      for l, p in model.items()}
        return v

    def check(v):
        for label, want in history[v].items():
            got = store.snapshot(v).edges(label).select("src", "dst").collect()
            assert sorted((r.src, r.dst) for r in got) == want, (label, v)

    counts = []
    for cycle in range(5):
        s = snb.PERSON_BASE + cycle
        knows = pd.DataFrame({"src": [s, s], "dst": [s + 1, s + 2], "creationDate": [9000 + cycle] * 2})
        v = write("KNOWS", knows)
        check(v)
        if cycle % 2:  # a label written by a delete only must be rebuilt too
            v = write("LIKES", gone=pg.edges["LIKES"].iloc[[cycle]][["src", "dst"]])
        store.compact()
        check(v)
        counts.append(cached_frames())
    assert counts[-1] == counts[0], counts

    likes = pg.edges["LIKES"].head(3).assign(date=9999)  # duplicates of live keys
    v1 = write("LIKES", likes)
    v2 = write("KNOWS", gone=pg.edges["KNOWS"].head(4)[["src", "dst"]])
    v3 = write("KNOWS", pg.edges["KNOWS"].head(1))
    v4 = write("LIKES", gone=likes.head(1)[["src", "dst"]])
    assert store.snapshot().version == v4
    for v in (v1, v2, v3, v4):
        check(v)


def test_gart_delete_every_edge_of_a_label(spark, pg):
    """Deleting every KNOWS edge and compacting leaves an empty KNOWS
    label, and GART and Vineyard both build from the graph that remains."""
    store = GartStore(spark, pg)
    store.delete_edges("KNOWS", pg.edges["KNOWS"][["src", "dst"]])
    store.compact()
    assert store.edges("KNOWS").count() == 0
    rest = store.to_property_graph()
    for other in (GartStore(spark, rest), VineyardStore(spark, rest)):
        assert other.edges("KNOWS").count() == 0
        assert other.adjacency().count() == pg.num_edges - len(pg.edges["KNOWS"])


def test_graph_without_edge_labels(spark):
    """A vertex-only graph has an empty (src, dst, label) edge list, and
    Vineyard, GART and LiveGraph built from it have empty adjacency."""
    vo = PropertyGraph()
    vo.add_vertices("Person", pd.DataFrame({"id": np.arange(3, dtype=np.int64)}))
    e = vo.all_edges()
    assert list(e.columns) == ["src", "dst", "label"] and len(e) == 0
    assert e.src.dtype == np.int64 and e.dst.dtype == np.int64
    for store in (VineyardStore(spark, vo), GartStore(spark, vo), LiveGraphStore(spark, vo)):
        for direction in ("out", "in"):
            adj = store.adjacency(direction=direction)
            assert adj.columns == ["src", "dst", "label"]
            assert adj.count() == 0, (store.name, direction)
