"""Exp-1 — storage layer (Fig. 7a-d).

(a) GRIN matrix: three applications (PageRank / BI query / GNN batch
    sampling), each implemented ONCE, run on Vineyard, GART, GraphAr.
    Paper: all combinations work; Vineyard fastest, GART slower
    (dynamic machinery), GraphAr slowest (direct archive I/O).
(b) GRIN overhead vs tight coupling: < 8% in the paper.
(c) GART edge-scan throughput vs LiveGraph and static CSR.
    Paper: GART ~3.88x LiveGraph, ~73.5% of CSR.
(d) Graph construction from GraphAr vs CSV.  Paper: ~5x.
"""
import numpy as np
import pandas as pd
import pytest
from benchmarks._bench_utils import best_of, record, timed

from repro.analytics.algorithms import pagerank
from repro.analytics.grape import GrapeEngine
from repro.datasets import graphalytics, snb
from repro.datasets.property_graph import PropertyGraph
from repro.learning.sampler import khop_sample_df
from repro.query.catalog import Catalog
from repro.query.cypher import parse_cypher
from repro.query.gaia import GaiaExecutor
from repro.query.planner import compile_plan
from repro.storage import graphar
from repro.storage.csr import StaticCSRStore
from repro.storage.csv_loader import load_csv_graph, load_graphar_graph, write_csv
from repro.storage.gart import GartStore, LiveGraphStore
from repro.storage.grin import GraphStore, Trait
from repro.storage.vineyard import VineyardStore

BI_QUERY = """
MATCH (p:Person)-[:LIKES]->(o:Post)
WHERE p.city = 'beijing'
RETURN p.city AS city, count(o) AS likes
"""


@pytest.fixture(scope="module")
def snb_pg():
    return snb.snb_graph(n_persons=1500, seed=31)


def _apps(spark, store):
    """The three GRIN applications; each returns a scalar to defeat laziness."""

    def app_pagerank():
        eng = GrapeEngine(spark, store, edge_label="KNOWS")
        return pagerank(eng, num_iter=3).count()

    def app_bi():
        gaia = GaiaExecutor(spark, store)
        plan = compile_plan(parse_cypher(BI_QUERY), rbo=True)
        return gaia.execute(plan).count()

    def app_gnn_batch():
        seeds = store.vertices("Person").select("id").limit(128)
        hops = khop_sample_df(spark, store, seeds=seeds, fanouts=[10, 5], seed=3)
        # feature collection: pull properties of the sampled frontier
        frontier = hops[-1].select("dst").distinct()
        feats = frontier.join(
            store.vertices("Person").withColumnRenamed("id", "dst"), "dst", "left"
        )
        return feats.count()

    return {"PageRank": app_pagerank, "BI-Query": app_bi, "GNN-Batch": app_gnn_batch}


def test_exp1a_grin_matrix(benchmark, spark, snb_pg, tmp_path):
    graphar.write_graphar(snb_pg, tmp_path / "ar")
    stores = {
        "Vineyard": VineyardStore(spark, snb_pg),
        "GART": GartStore(spark, snb_pg),
        "GraphAr": graphar.GraphArStore(spark, tmp_path / "ar"),
    }

    def run():
        results = {}
        # warmup pass: JVM/codegen caches must not bill the first store
        for sname, store in stores.items():
            for app in _apps(spark, store).values():
                app()
        for sname, store in stores.items():
            for aname, app in _apps(spark, store).items():
                dt, out = best_of(2, app)
                results[(aname, sname)] = (dt, out)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    apps = ["PageRank", "BI-Query", "GNN-Batch"]
    for aname in apps:
        row = {s: results[(aname, s)] for s in stores}
        # identical results across backends (the GRIN promise)
        outs = {s: row[s][1] for s in stores}
        assert len(set(outs.values())) == 1, f"{aname}: backend results differ {outs}"
        record(
            "Exp-1a: GRIN — one app, three backends (seconds)",
            app=aname,
            paper="Vineyard < GART < GraphAr (all correct)",
            vineyard_s=f"{row['Vineyard'][0]:.2f}",
            gart_s=f"{row['GART'][0]:.2f}",
            graphar_s=f"{row['GraphAr'][0]:.2f}",
        )


def test_exp1b_grin_overhead(benchmark, spark, snb_pg):
    """GRIN adapter vs a tightly-coupled direct-DataFrame engine."""
    from pyspark.sql import functions as F

    store = VineyardStore(spark, snb_pg)
    # "tight coupling": the engine holds the backend's internal frame
    # directly (same KNOWS edge set as the GRIN path, no interface)
    raw_edges = store.adjacency().filter(F.col("label") == "KNOWS").cache()
    raw_edges.count()

    class _Tight(GraphStore):
        name = "tight"

        def traits(self):
            return Trait.TOPOLOGY | Trait.INDEX | Trait.PARTITION

        def vertex_labels(self):
            return ["_v"]

        def edge_labels(self):
            return ["_e"]

        def edge_signature(self, label):
            return ("_v", "_v")

        def vertices(self, label, *, predicate=None):
            raise NotImplementedError

        def edges(self, label, *, predicate=None):
            return raw_edges.select("src", "dst")

        def adjacency(self, *, direction="out"):
            return raw_edges

    def grin_run():
        return pagerank(GrapeEngine(spark, store, edge_label="KNOWS"), num_iter=3).count()

    def tight_run():
        return pagerank(GrapeEngine(spark, _Tight(), edge_label=None), num_iter=3).count()

    def run():
        grin_run()  # warmup both paths before timing either
        tight_run()
        grin_t, a = best_of(3, grin_run)
        tight_t, b = best_of(3, tight_run)
        assert a == b
        return grin_t, tight_t

    grin_t, tight_t = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = (grin_t - tight_t) / tight_t * 100
    record(
        "Exp-1b: GRIN overhead vs tightly-coupled access",
        paper="< 8% overhead",
        grin_s=f"{grin_t:.2f}",
        tight_s=f"{tight_t:.2f}",
        measured_overhead=f"{overhead:+.1f}%",
    )


def _updated_stores(spark, edges: pd.DataFrame):
    """Build CSR/GART/LiveGraph over the same graph + update stream.

    Steady-state shapes: GART has compacted the bulk of the update
    history into its base (its segment-compaction design) and carries a
    small *fresh* delta + a few tombstones; LiveGraph's append-only
    version chains are never compacted, so every scan re-resolves the
    whole log (its documented read-path trade-off); CSR is an immutable
    snapshot of the identical final edge set (the upper bound).
    """
    pg = PropertyGraph()
    ids = pd.DataFrame({"id": pd.concat([edges.src, edges.dst]).unique()})
    pg.add_vertices("V", ids)
    pg.add_edges("E", edges, src_label="V", dst_label="V")
    g = np.random.default_rng(7)
    ins = [
        pd.DataFrame(
            {
                "src": g.choice(ids.id.to_numpy(), 2000),
                "dst": g.choice(ids.id.to_numpy(), 2000),
            }
        ).drop_duplicates()
        for _ in range(6)
    ]
    dels = [edges.sample(500, random_state=i)[["src", "dst"]] for i in range(4)]

    gart = GartStore(spark, pg)
    lg = LiveGraphStore(spark, pg)
    for batch in ins[:4]:
        gart.insert_edges("E", batch)
        lg.insert_edges("E", batch)
    for batch in dels[:3]:
        gart.delete_edges("E", batch)
        lg.delete_edges("E", batch)
    gart.compact()  # periodic segment compaction (GART design)
    for batch in ins[4:]:  # fresh, not-yet-compacted delta
        gart.insert_edges("E", batch)
        lg.insert_edges("E", batch)
    for batch in dels[3:]:
        gart.delete_edges("E", batch)
        lg.delete_edges("E", batch)
    # CSR = immutable snapshot of the *final* state (upper bound)
    final = gart.to_property_graph().edges["E"]
    csr = StaticCSRStore(spark, final)
    return csr, gart, lg, len(final)


def _scan(store):
    # touch every resolved edge
    from pyspark.sql import functions as F

    return store.adjacency().agg(F.sum("src"), F.sum("dst")).collect()


def test_exp1c_gart_scan_throughput(benchmark, spark):
    datasets = {
        "UK": graphalytics.generate("UK", max_edges=400_000),
        "CF": graphalytics.generate("CF", max_edges=400_000),
        "TW": graphalytics.generate("TW", max_edges=400_000),
        "SNB-30": snb.snb_graph(n_persons=8000, seed=8).edges["KNOWS"][["src", "dst"]],
    }

    def run():
        rows = {}
        for name, edges in datasets.items():
            csr, gart, lg, n_edges = _updated_stores(spark, edges)
            _scan(csr), _scan(gart), _scan(lg)  # warmup
            t_csr, _ = best_of(3, _scan, csr)
            t_gart, _ = best_of(3, _scan, gart)
            t_lg, _ = best_of(3, _scan, lg)
            rows[name] = (n_edges / t_csr, n_edges / t_gart, n_edges / t_lg)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios_lg, ratios_csr = [], []
    for name, (csr_tp, gart_tp, lg_tp) in rows.items():
        ratios_lg.append(gart_tp / lg_tp)
        ratios_csr.append(gart_tp / csr_tp)
        record(
            "Exp-1c: edge-scan throughput, edges/s (GART vs LiveGraph vs CSR)",
            dataset=name,
            paper="GART ~3.88x LiveGraph; ~73.5% of CSR",
            csr=f"{csr_tp:,.0f}",
            gart=f"{gart_tp:,.0f}",
            livegraph=f"{lg_tp:,.0f}",
            gart_vs_lg=f"{gart_tp / lg_tp:.2f}x",
            gart_vs_csr=f"{gart_tp / csr_tp * 100:.0f}%",
        )
    assert sum(ratios_lg) / len(ratios_lg) > 1.2, "GART should beat LiveGraph scans"


def test_exp1d_graphar_vs_csv_load(benchmark, spark, tmp_path):
    pg = snb.snb_graph(n_persons=3000, seed=12)
    write_csv(pg, tmp_path / "csv")
    graphar.write_graphar(pg, tmp_path / "ar")

    def run():
        t_csv, store_a = timed(load_csv_graph, spark, tmp_path / "csv")
        t_ar, store_b = timed(load_graphar_graph, spark, tmp_path / "ar")
        assert store_a.adjacency().count() == store_b.adjacency().count()
        return t_csv, t_ar

    t_csv, t_ar = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "Exp-1d: graph construction time (GraphAr vs CSV)",
        dataset="SNB-lite (3000 persons)",
        paper="GraphAr ~5x faster",
        csv_s=f"{t_csv:.2f}",
        graphar_s=f"{t_ar:.2f}",
        speedup=f"{t_csv / t_ar:.2f}x",
    )
    assert t_ar < t_csv, "GraphAr load should beat CSV"
