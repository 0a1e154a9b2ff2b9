"""The BI half of ``olap``: BI queries on GART while edges stream in.

The program holds an SNB-lite graph (1000 persons) in a ``GartStore``
and a ``Catalog`` built from it.  One round writes at a new version
each: 8 BUY, 8 KNOWS and 8 LIKES edges (``insert_edges``, kind
``insert``) and the removal of 8 KNOWS keys (``delete_edges``, kind
``delete``).  It then runs each of four BI templates twice, with fresh
parameters, on the latest snapshot: Cypher or Gremlin compiled with
RBO+CBO and executed by ``GaiaExecutor``.  All eight queries read the
same version, so its delta frames are built by the first query that
needs them and reused by the others.  The round ends with
``compact()``, so every round reads a compacted base plus one round of
delta and tombstones.  The benchmark's DuckDB model receives the same
inserts and deletes, so each query result also checks snapshot
visibility.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from harness import expect_eq
from socialmodel import SocialModel

from repro.datasets import snb
from repro.query import cypher, gremlin, planner
from repro.query.catalog import Catalog
from repro.query.gaia import GaiaExecutor
from repro.storage.gart import GartStore

READ_KINDS = ["likes_by_city", "copurchase", "fof_posts", "category_buyers"]
WRITE_KINDS = ["insert", "delete", "compact"]
QUERIES_PER_TEMPLATE = 2
N_PERSONS = 1000
BATCH = 8

Q_LIKES_BY_CITY = (
    "MATCH (p:Person)-[:KNOWS]->(q:Person)-[:LIKES]->(o:Post) WHERE p.city = '{city}' "
    "RETURN q.city AS city, count(o) AS likes ORDER BY likes DESC, city ASC LIMIT 5"
)
Q_COPURCHASE = (
    "MATCH (a:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account) WHERE a.id = {v} "
    "RETURN count(*) AS cnt"
)
Q_FOF_POSTS = (
    "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person)-[:CREATED]->(p:Post) "
    "WHERE a.id = {v} RETURN c.city AS city, count(p) AS posts ORDER BY posts DESC, city ASC LIMIT 5"
)
G_CATEGORY_BUYERS = "g.V('Item').has('category','{cat}').in_('BUY').dedup().count()"

SQL = {
    "likes_by_city": """
        SELECT q.city AS city, count(*) AS likes FROM person p
        JOIN knows k ON k.src = p.id JOIN person q ON q.id = k.dst
        JOIN likes l ON l.src = q.id JOIN post o ON o.id = l.dst
        WHERE p.city = ? GROUP BY q.city ORDER BY likes DESC, city ASC LIMIT 5""",
    "copurchase": """
        SELECT count(*) FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
        JOIN item i ON i.id = b1.dst JOIN account s ON s.id = b2.src
        WHERE b1.src = ?""",
    "fof_posts": """
        SELECT c.city AS city, count(*) AS posts FROM knows k1
        JOIN person b ON b.id = k1.dst JOIN knows k2 ON k2.src = b.id
        JOIN person c ON c.id = k2.dst JOIN created cr ON cr.src = c.id
        JOIN post p ON p.id = cr.dst
        WHERE k1.src = ? GROUP BY c.city ORDER BY posts DESC, city ASC LIMIT 5""",
    "category_buyers": """
        SELECT count(DISTINCT b.src) FROM item i JOIN buy b ON b.dst = i.id
        WHERE i.category = ?""",
}


@dataclass
class State:
    seed: int
    spark: object
    pg: object
    store: GartStore
    catalog: Catalog
    model: SocialModel | None = None


def build(seed: int, spark) -> State:
    pg = snb.snb_graph(n_persons=N_PERSONS, seed=seed)
    store = GartStore(spark, pg)
    return State(seed=seed, spark=spark, pg=pg, store=store, catalog=Catalog.from_store(store))


def attach_model(st: State) -> None:
    st.model = SocialModel(st.pg)


def check_query(m: SocialModel, kind: str, param, got) -> None:
    want = m.rows(SQL[kind], [param])
    rows = [tuple(r) for r in got]
    expect_eq(rows, [tuple(r) for r in want], f"{kind}({param!r})")


def check_version(expected: int, got) -> None:
    expect_eq(got, expected, "write version")


def _run_query(st: State, text: str, parse):
    plan = planner.compile_plan(parse(text), catalog=st.catalog, rbo=True, cbo=True)
    return GaiaExecutor(st.spark, st.store.snapshot()).execute(plan).collect()


def run_round(st: State, r: int, rec) -> None:
    g = np.random.default_rng([st.seed, r + 1])
    m, pg, store = st.model, st.pg, st.store
    persons = pg.vertices["Person"].id.to_numpy()
    posts = pg.vertices["Post"].id.to_numpy()
    items = pg.vertices["Item"].id.to_numpy()
    accounts = pg.vertices["Account"].id.to_numpy()
    date = 3000 + max(r, 0)

    batches = {
        ("BUY", "buy"): pd.DataFrame({
            "src": g.choice(accounts, BATCH), "dst": g.choice(items, BATCH),
            "date": np.full(BATCH, date), "amount": g.integers(100, 10000, BATCH) / 100.0}),
        ("KNOWS", "knows"): pd.DataFrame({
            "src": g.choice(persons, BATCH), "dst": g.choice(persons, BATCH),
            "creationDate": np.full(BATCH, date)}),
        ("LIKES", "likes"): pd.DataFrame({
            "src": g.choice(persons, BATCH), "dst": g.choice(posts, BATCH),
            "date": np.full(BATCH, date)}),
    }
    for (label, table), rows in batches.items():
        v = store.write_version + 1
        rec.op("insert", lambda label=label, rows=rows: store.insert_edges(label, rows),
               lambda out, v=v: check_version(v, out))
        m.append(table, rows)
    knows = pg.edges["KNOWS"]
    gone = knows.iloc[g.choice(len(knows), BATCH)][["src", "dst"]].reset_index(drop=True)
    v = store.write_version + 1
    rec.op("delete", lambda: store.delete_edges("KNOWS", gone), lambda out: check_version(v, out))
    m.delete("knows", gone)

    sigs = pg.edge_signatures
    for _ in range(1 if r < 0 else QUERIES_PER_TEMPLATE):
        city = str(g.choice(snb.CITIES))
        account = int(g.choice(accounts))
        person = int(g.choice(persons))
        category = str(g.choice(snb.CATEGORIES))
        for kind, text, parse, param in (
            ("likes_by_city", Q_LIKES_BY_CITY.format(city=city), cypher.parse_cypher, city),
            ("copurchase", Q_COPURCHASE.format(v=account), cypher.parse_cypher, account),
            ("fof_posts", Q_FOF_POSTS.format(v=person), cypher.parse_cypher, person),
            ("category_buyers", G_CATEGORY_BUYERS.format(cat=category),
             lambda t: gremlin.parse_gremlin(t, sigs), category),
        ):
            rec.op(kind, lambda text=text, parse=parse: _run_query(st, text, parse),
                   lambda out, kind=kind, param=param: check_query(m, kind, param, out),
                   note=lambda out: ("query.gaia.rows_out", len(out)))

    rec.op("compact", store.compact)
