"""Equity analysis (paper §8 + Exp-6).

Who *really* controls a company?  Effective ownership is the sum over
all ownership paths of the product of edge shares; the controller is
a person whose effective share exceeds 0.5 (paper: 51%).

* :func:`equity_graph` — layered ownership DAG: every company's direct
  shares sum to 1; owners are persons or upstream companies.
* :func:`effective_ownership_grape` — the Flex deployment: iterative
  path-aggregation dataflow on the GRAPE engine's cached edge
  fragments, each depth ending in the engine's superstep barrier (the
  "modified label propagation with the GraphX API" of the paper maps
  to exactly this join-aggregate superstep).
* :func:`effective_ownership_sql` — the paper's SQL baseline: per-depth
  path *enumeration* with aggregation only at the end, re-reading the
  edge table every level and capped at a fixed depth (the baseline
  "allowed only a limited number of tuples... incomplete results").
* :func:`effective_ownership_numpy` — dense matrix-series reference
  for correctness.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.analytics.grape import GrapeEngine, barrier
from repro.datasets.property_graph import PropertyGraph

PERSON_BASE = 0
COMPANY_BASE = 1_000_000


def equity_graph(*, n_companies: int = 200, n_persons: int = 100, seed: int = 0) -> PropertyGraph:
    """Ownership DAG: company i may be owned by persons or companies j<i."""
    g = np.random.default_rng(seed)
    pg = PropertyGraph()
    persons = np.arange(n_persons, dtype=np.int64) + PERSON_BASE
    companies = np.arange(n_companies, dtype=np.int64) + COMPANY_BASE
    pg.add_vertices("Person", pd.DataFrame({"id": persons, "name": [f"P{i}" for i in range(n_persons)]}))
    pg.add_vertices("Company", pd.DataFrame({"id": companies, "name": [f"C{i}" for i in range(n_companies)]}))
    rows = []
    for i in range(n_companies):
        k = int(g.integers(1, 5))
        shares = g.dirichlet(np.ones(k))
        for s in shares:
            # owners: persons, or companies strictly upstream (j > i so
            # edges point downstream: owner -> owned, no cycles)
            if i + 1 < n_companies and g.random() < 0.5:
                owner = int(g.integers(i + 1, n_companies)) + COMPANY_BASE
            else:
                owner = int(g.integers(0, n_persons)) + PERSON_BASE
            rows.append((owner, int(companies[i]), float(s)))
    owns = pd.DataFrame(rows, columns=["src", "dst", "share"])
    owns = owns.groupby(["src", "dst"], as_index=False).share.sum()
    pg.add_edges("OWNS", owns, src_label="Person", dst_label="Company")
    return pg


def effective_ownership_grape(
    spark: SparkSession,
    store,
    *,
    max_depth: int = 20,
    tol: float = 1e-9,
) -> DataFrame:
    """(owner, company, share) of total effective ownership.

    Superstep d extends every known path by one OWNS edge and
    aggregates per (owner, company) — the GRAPE dataflow over the
    engine's cached edge fragments: a join, a combiner, and the
    engine's :func:`~repro.analytics.grape.barrier`, whose ``observe``
    reads the depth's largest share.
    """
    engine = GrapeEngine(spark, store, edge_weight="share", edge_label="OWNS")
    w = engine.edges.withColumnRenamed("weight", "share")
    eff = w
    frontier = w  # paths of exactly the current depth
    for _ in range(max_depth - 1):
        ext, seen = barrier(
            frontier.alias("p")
            .join(w.alias("e"), F.col("p.dst") == F.col("e.src"))
            .select(
                F.col("p.src").alias("src"),
                F.col("e.dst").alias("dst"),
                (F.col("p.share") * F.col("e.share")).alias("share"),
            )
            .groupBy("src", "dst")
            .agg(F.sum("share").alias("share")),
            top=F.max("share"),
        )
        if seen["top"] is None:
            break
        eff, _ = barrier(
            eff.unionByName(ext).groupBy("src", "dst").agg(F.sum("share").alias("share"))
        )
        if seen["top"] < tol:
            break
        frontier = ext
    return eff.select(
        F.col("src").alias("owner"), F.col("dst").alias("company"), "share"
    )


def controllers_grape(spark: SparkSession, store, *, threshold: float = 0.5, **kw) -> DataFrame:
    """Person controllers: effective share > threshold."""
    eff = effective_ownership_grape(spark, store, **kw)
    return eff.filter(
        (F.col("owner") < COMPANY_BASE) & (F.col("share") > threshold)
    )


def effective_ownership_sql(
    spark: SparkSession,
    owns: pd.DataFrame,
    *,
    depth: int = 3,
) -> DataFrame:
    """The relational baseline: enumerate paths per depth with plain
    self-joins (no caching, no per-level aggregation), union all path
    products, aggregate once at the end.  Depth-capped — incomplete on
    deep chains, and the intermediate path sets blow up, which is why
    the production baseline could not finish (Exp-6)."""
    sdf = spark.createDataFrame(owns)
    sdf.createOrReplaceTempView("owns_sql_base")
    selects = []
    for d in range(1, depth + 1):
        tables = ", ".join(f"owns_sql_base o{i}" for i in range(d))
        conds = " AND ".join(f"o{i}.dst = o{i+1}.src" for i in range(d - 1))
        prod = " * ".join(f"o{i}.share" for i in range(d))
        where = f"WHERE {conds}" if conds else ""
        selects.append(
            f"SELECT o0.src AS owner, o{d-1}.dst AS company, {prod} AS share "
            f"FROM {tables} {where}"
        )
    sql = (
        "SELECT owner, company, sum(share) AS share FROM ("
        + " UNION ALL ".join(selects)
        + ") GROUP BY owner, company"
    )
    return spark.sql(sql)


def effective_ownership_numpy(owns: pd.DataFrame, *, max_depth: int = 50) -> pd.DataFrame:
    """Dense reference: sum_{d>=1} W^d restricted to observed pairs."""
    ids = np.unique(np.concatenate([owns.src.to_numpy(), owns.dst.to_numpy()]))
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    w = np.zeros((n, n))
    for s, d, sh in owns[["src", "dst", "share"]].itertuples(index=False):
        w[pos[s], pos[d]] += sh
    acc = np.zeros((n, n))
    p = w.copy()
    for _ in range(max_depth):
        acc += p
        p = p @ w
        if p.max() < 1e-12:
            break
    rows = []
    nz = np.argwhere(acc > 1e-12)
    for i, j in nz:
        rows.append((int(ids[i]), int(ids[j]), float(acc[i, j])))
    return pd.DataFrame(rows, columns=["owner", "company", "share"])
