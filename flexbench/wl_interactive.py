"""interactive: SNB-lite short/complex reads, updates, fraud checks, IR queries.

No Spark.  The program holds an SNB-lite graph (5000 persons) behind
``snb_interactive.IndexedAccess`` (C1-C5, S1-S4, U1-U3),
``HiActorEngine`` (Cypher and Gremlin co-purchase queries compiled with
RBO+CBO) and ``FraudDetector``.  One round is 3 updates then 27 reads,
short-read heavy like the LDBC interactive schedule.  Updates touch only
Person/KNOWS/LIKES, so the Account/BUY/Item graph the HiActor engine
indexes stays fixed; the benchmark's DuckDB model receives the same
updates, so every read also checks that earlier writes are visible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from harness import expect, expect_close, expect_eq
from socialmodel import SocialModel

from repro.datasets import snb
from repro.query import cypher, gremlin, planner
from repro.query import snb_interactive as si
from repro.query.catalog import Catalog
from repro.query.hiactor import HiActorEngine
from repro.usecases import fraud

SPARK = False
READ_KINDS = ["C1", "C2", "C3", "C4", "C5", "S1", "S2", "S3", "S4", "fraud", "cypher", "gremlin"]
WRITE_KINDS = ["U1", "U2", "U3"]
MIN_ROUNDS = 10  # cached_mb is taken after this many rounds
N_PERSONS = 5000
N_FRAUD_SEEDS = 25
C2_MAX_DATE = 2500

CYPHER_COPURCHASE = (
    "MATCH (a:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account) WHERE a.id = {v} "
    "RETURN s.id AS buyer, count(i) AS common ORDER BY common DESC, buyer ASC LIMIT 10"
)
GREMLIN_COBUYERS = "g.V('Account').hasId({v}).out('BUY').in_('BUY').dedup().count()"


@dataclass
class State:
    seed: int
    pg: object
    seeds: np.ndarray
    da: si.IndexedAccess
    engine: HiActorEngine
    detector: fraud.FraudDetector
    catalog: Catalog
    next_person: int
    model: SocialModel | None = None
    persons: np.ndarray | None = None  # curated parameters, see curate()
    accounts: np.ndarray | None = None


def build(seed: int, spark) -> State:
    pg, seeds = fraud.fraud_graph(n_accounts=N_PERSONS, seed=seed, n_seeds=N_FRAUD_SEEDS)
    engine = HiActorEngine(pg)
    catalog = Catalog(
        {l: len(p) for l, p in pg.vertices.items()},
        {l: len(p) for l, p in pg.edges.items()},
        dict(pg.edge_signatures),
    )
    return State(
        seed=seed,
        pg=pg,
        seeds=seeds,
        da=si.IndexedAccess(pg),
        engine=engine,
        detector=fraud.FraudDetector(engine, seeds),
        catalog=catalog,
        next_person=int(pg.vertices["Person"].id.max()) + 1,
    )


def attach_model(st: State) -> None:
    st.model = SocialModel(st.pg, st.seeds)
    st.persons, st.accounts = curate(st.pg)


def _band(ids: np.ndarray, work: np.ndarray) -> np.ndarray:
    lo, hi = np.quantile(work, [0.4, 0.6])
    return ids[(work >= lo) & (work <= hi)]


def curate(pg) -> tuple[np.ndarray, np.ndarray]:
    """Parameter curation, as in the LDBC SNB drivers: the persons and
    accounts the complex reads start from are drawn from those whose
    2-hop neighbourhood size lies between its 40th and 60th percentile,
    so a handful of hub draws cannot decide a run's figures."""
    persons = pg.vertices["Person"].id.to_numpy()
    k = pg.edges["KNOWS"]
    deg = np.bincount(k.src, minlength=len(persons))
    two_hop = np.bincount(k.src, weights=deg[k.dst], minlength=len(persons))
    accounts = pg.vertices["Account"].id.to_numpy()
    base = int(accounts.min())
    buy, ak = pg.edges["BUY"], pg.edges["AKNOWS"]
    item_pop = buy.dst.value_counts()
    co = np.bincount(buy.src - base, weights=item_pop[buy.dst].to_numpy(), minlength=len(accounts))
    fraud_work = co + np.bincount(ak.src - base, weights=co[ak.dst - base], minlength=len(accounts))
    return _band(persons, two_hop[persons]), _band(accounts, fraud_work)


# -- the benchmark's own answers (DuckDB over the model) -------------------
SQL_TWO_HOP = """
    WITH f1 AS (SELECT dst AS id FROM knows WHERE src = ?),
         f2 AS (SELECT k.dst AS id FROM f1 JOIN knows k ON k.src = f1.id),
         cand AS (SELECT id FROM f1 UNION SELECT id FROM f2)
"""


def check_c1(m: SocialModel, p: int, city: str, got) -> None:
    want = m.rows(SQL_TWO_HOP + """
        SELECT c.id, v.name FROM cand c JOIN person v ON v.id = c.id
        WHERE v.city = ? AND c.id <> ? ORDER BY v.name LIMIT 10""", [p, city, p])
    expect_eq([(int(a), str(b)) for a, b in got], [(int(a), b) for a, b in want], f"C1({p})")


def check_c2(m: SocialModel, p: int, got) -> None:
    want = m.rows("""
        SELECT v.creationDate, v.id, k.dst FROM knows k
        JOIN created c ON c.src = k.dst JOIN post v ON v.id = c.dst
        WHERE k.src = ? AND v.creationDate <= ?
        ORDER BY 1 DESC, 2 DESC, 3 DESC LIMIT 10""", [p, C2_MAX_DATE])
    expect_eq([tuple(map(int, row)) for row in got], [tuple(row) for row in want], f"C2({p})")


def check_c3(m: SocialModel, p: int, got) -> None:
    want = m.rows(SQL_TWO_HOP + """
        SELECT v.city, count(*) FROM cand c JOIN person v ON v.id = c.id
        WHERE c.id <> ? GROUP BY v.city""", [p, p])
    expect_eq({str(k): int(v) for k, v in got.items()}, dict(want), f"C3({p})")


def check_c4(m: SocialModel, p: int, got) -> None:
    tot, n = m.rows("""
        SELECT coalesce(sum(v.length), 0), count(*) FROM knows k
        JOIN likes l ON l.src = k.dst JOIN post v ON v.id = l.dst
        WHERE k.src = ?""", [p])[0]
    expect_close(got, tot / n if n else 0.0, f"C4({p})")


def check_c5(m: SocialModel, p: int, got) -> None:
    want = m.rows("""
        WITH f1 AS (SELECT DISTINCT dst AS id FROM knows WHERE src = ?)
        SELECT k.dst AS g, count(*) AS c FROM f1 JOIN knows k ON k.src = f1.id
        WHERE k.dst <> ? AND k.dst NOT IN (SELECT id FROM f1)
        GROUP BY k.dst ORDER BY c DESC, g ASC LIMIT 5""", [p, p])
    expect_eq([(int(a), int(b)) for a, b in got], [tuple(r) for r in want], f"C5({p})")


def _py(v):
    return v.item() if isinstance(v, np.generic) else v


def check_vertex(m: SocialModel, table: str, vid: int, got, what: str) -> None:
    want = m.vertex(table, vid)
    expect(got is not None, f"{what}({vid}) missing")
    expect_eq({k: _py(v) for k, v in got.items()}, want, f"{what}({vid})")


def check_s2(m: SocialModel, p: int, got) -> None:
    want = m.rows("""
        SELECT v.id, v.creationDate, v.length FROM created c JOIN post v ON v.id = c.dst
        WHERE c.src = ?""", [p])
    rows = [(int(x["id"]), int(x["creationDate"]), int(x["length"])) for x in got]
    expect_eq(len(rows), min(5, len(want)), f"S2({p}) length")
    expect(set(rows) <= set(want), f"S2({p}) returned a post the person did not create")
    dates = [d for _, d, _ in rows]
    top = sorted((d for _, d, _ in want), reverse=True)[:5]
    expect_eq(dates, top, f"S2({p}) creation dates")


def check_s3(m: SocialModel, p: int, got) -> None:
    want = m.rows("SELECT dst, creationDate FROM knows WHERE src = ? ORDER BY 1, 2", [p])
    expect_eq([(int(a), int(b)) for a, b in got], [tuple(r) for r in want], f"S3({p})")


def check_fraud(m: SocialModel, det, v: int, got) -> None:
    cnt1 = m.rows("""
        SELECT count(*) FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
        WHERE b1.src = ? AND b2.src IN (SELECT id FROM seeds) AND b2.src <> ?
          AND abs(b2.date - b1.date) < ?""", [v, v, det.window])[0][0]
    cnt2 = m.rows("""
        WITH f AS (SELECT DISTINCT dst AS id FROM aknows WHERE src = ?)
        SELECT count(*) FROM f JOIN buy b1 ON b1.src = f.id JOIN buy b2 ON b2.dst = b1.dst
        WHERE b2.src IN (SELECT id FROM seeds) AND b2.src <> f.id""", [v])[0][0]
    alert = det.w1 * cnt1 + det.w2 * cnt2 > det.threshold
    expect_eq((bool(got[0]), int(got[1]), int(got[2])), (alert, cnt1, cnt2), f"fraud({v})")


def check_cypher(m: SocialModel, v: int, got: pd.DataFrame) -> None:
    want = m.rows("""
        SELECT b2.src AS buyer, count(*) AS common FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
        WHERE b1.src = ? GROUP BY b2.src ORDER BY common DESC, buyer ASC LIMIT 10""", [v])
    rows = [(int(a), int(b)) for a, b in zip(got["buyer"], got["common"])]
    expect_eq(rows, [tuple(r) for r in want], f"cypher co-purchase({v})")


def check_gremlin(m: SocialModel, v: int, got: pd.DataFrame) -> None:
    want = m.rows("""
        SELECT count(DISTINCT b2.src) FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
        WHERE b1.src = ?""", [v])[0][0]
    expect_eq(int(got["cnt"].iloc[0]), want, f"gremlin co-buyers({v})")


# -- one round -------------------------------------------------------------
def _query(st: State, text: str, parse):
    plan = parse(text)
    phys = planner.compile_plan(plan, catalog=st.catalog, rbo=True, cbo=True)
    return st.engine.execute(phys)


def run_round(st: State, r: int, rec) -> None:
    g = np.random.default_rng([st.seed, r + 1])
    m = st.model
    persons = st.pg.vertices["Person"].id.to_numpy()
    posts = st.pg.vertices["Post"].id.to_numpy()
    sigs = st.pg.edge_signatures

    def person():
        return int(g.choice(persons))

    def curated():
        return int(g.choice(st.persons))

    def account():
        return int(g.choice(st.accounts))

    # writes: U1 adds a person, U2 a like, U3 a KNOWS edge to the new person
    pid = st.next_person
    st.next_person += 1
    u1 = {"kind": "add_person", "id": pid, "name": f"u{pid:09d}",
          "city": str(g.choice(snb.CITIES)), "creationDate": int(g.integers(0, 3000))}
    u2 = {"kind": "add_like", "src": person(), "dst": int(g.choice(posts)),
          "date": int(g.integers(0, 3000))}
    u3 = {"kind": "add_knows", "src": curated(), "dst": pid,
          "creationDate": int(g.integers(0, 3000))}
    for kind, ev, table, row in (
        ("U1", u1, "person", {k: u1[k] for k in ("id", "name", "city", "creationDate")}),
        ("U2", u2, "likes", {k: u2[k] for k in ("src", "dst", "date")}),
        ("U3", u3, "knows", {k: u3[k] for k in ("src", "dst", "creationDate")}),
    ):
        rec.op(kind, lambda ev=ev: si.apply_update(st.da, ev))
        m.append(table, pd.DataFrame([row]))

    # complex reads (C3 starts next to the new KNOWS edge)
    p = curated()
    city = str(g.choice(snb.CITIES))
    rec.op("C1", lambda: si.c1_friends_in_city(st.da, p, city), lambda out: check_c1(m, p, city, out))
    p2 = curated()
    rec.op("C2", lambda: si.c2_recent_posts(st.da, p2, C2_MAX_DATE), lambda out: check_c2(m, p2, out))
    p3 = u3["src"]
    rec.op("C3", lambda: si.c3_city_counts(st.da, p3), lambda out: check_c3(m, p3, out))
    p4 = curated()
    rec.op("C4", lambda: si.c4_liked_length_avg(st.da, p4), lambda out: check_c4(m, p4, out))
    p5 = curated()
    rec.op("C5", lambda: si.c5_common_friends(st.da, p5), lambda out: check_c5(m, p5, out))

    # short reads, four of each (S1 and S3 include the new person / edge)
    for q in [pid, person(), person(), person()]:
        rec.op("S1", lambda q=q: si.s1_profile(st.da, q),
               lambda out, q=q: check_vertex(m, "person", q, out, "S1"))
    for q in [person() for _ in range(4)]:
        rec.op("S2", lambda q=q: si.s2_last_posts(st.da, q), lambda out, q=q: check_s2(m, q, out))
    for q in [u3["src"], person(), person(), person()]:
        rec.op("S3", lambda q=q: si.s3_friends(st.da, q), lambda out, q=q: check_s3(m, q, out))
    for q in [int(g.choice(posts)) for _ in range(4)]:
        rec.op("S4", lambda q=q: si.s4_post(st.da, q),
               lambda out, q=q: check_vertex(m, "post", q, out, "S4"))

    # fraud checks and IR queries over Account/BUY/Item
    for v in [account() for _ in range(4)]:
        rec.op("fraud", lambda v=v: st.detector.check(v),
               lambda out, v=v: check_fraud(m, st.detector, v, out))
    v = account()
    rec.op("cypher", lambda: _query(st, CYPHER_COPURCHASE.format(v=v), cypher.parse_cypher),
           lambda out: check_cypher(m, v, out))
    w = account()
    rec.op("gremlin",
           lambda: _query(st, GREMLIN_COBUYERS.format(v=w), lambda t: gremlin.parse_gremlin(t, sigs)),
           lambda out: check_gremlin(m, w, out))


def footprint(st: State, spark) -> int:
    """Bytes of the driver-local indexes: IndexedAccess and HiActor."""
    n = 0
    for idx in [*st.da._adj.values(), *st.engine.adj.values()]:
        n += idx.keys.nbytes + idx.nbrs.nbytes + sum(a.nbytes for a in idx.props.values())
    for df in [*st.da._v.values(), *st.engine.vprops.values()]:
        n += int(df.memory_usage(index=True, deep=True).sum())
    return n
