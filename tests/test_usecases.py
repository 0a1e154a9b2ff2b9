"""Use cases (paper §8): fraud detection, equity analysis, cybersec."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.flexbuild import WORKLOAD2, WORKLOAD5, IncompatibleStack, flexbuild, storage_traits
from repro.query.hiactor import HiActorEngine
from repro.storage.csr import StaticCSRStore
from repro.storage.gart import GartSnapshot, GartStore
from repro.storage.graphar import GraphArStore
from repro.storage.grin import Trait
from repro.storage.vineyard import VineyardStore
from repro.usecases import cybersec, equity, fraud


@pytest.fixture(scope="module")
def fraud_setup():
    pg, seeds = fraud.fraud_graph(n_accounts=200, seed=3, n_seeds=20)
    return pg, seeds, fraud.FraudDetector(HiActorEngine(pg), seeds)


def test_fraud_cnt1_oracle(fraud_setup):
    pg, seeds, det = fraud_setup
    con = duckdb.connect()
    con.register("buy", pg.edges["BUY"])
    accounts = pg.vertices["Account"].id.to_numpy()[:25]
    for a in accounts:
        _, cnt1, _ = det.check(int(a))
        want = con.execute(
            """
            SELECT count(*) FROM buy b1 JOIN buy b2 ON b1.dst = b2.dst
            WHERE b1.src = ? AND b2.src IN (SELECT * FROM seeds)
              AND b2.src != b1.src AND abs(b1.date - b2.date) < 5
            """.replace("(SELECT * FROM seeds)", f"({','.join(map(str, seeds))})"),
            [int(a)],
        ).fetchone()[0]
        assert cnt1 == want, f"account {a}"
    con.close()


def test_fraud_cnt2_oracle(fraud_setup):
    pg, seeds, det = fraud_setup
    con = duckdb.connect()
    con.register("buy", pg.edges["BUY"])
    con.register("ak", pg.edges["AKNOWS"])
    a = int(pg.vertices["Account"].id.iloc[0])
    _, _, cnt2 = det.check(a)
    want = con.execute(
        f"""
        WITH friends AS (SELECT DISTINCT dst AS f FROM ak WHERE src = ?)
        SELECT count(*) FROM friends
        JOIN buy b1 ON b1.src = friends.f
        JOIN buy b2 ON b1.dst = b2.dst
        WHERE b2.src IN ({','.join(map(str, seeds))}) AND b2.src != b1.src
        """,
        [a],
    ).fetchone()[0]
    con.close()
    assert cnt2 == want


def _fraud_oracle(pg, seeds, a: int) -> tuple[int, int]:
    """(cnt1, cnt2) of account ``a`` in DuckDB SQL."""
    con = duckdb.connect()
    con.register("buy", pg.edges["BUY"])
    con.register("ak", pg.edges["AKNOWS"])
    in_seeds = f"({','.join(map(str, seeds))})"
    cnt1 = con.execute(
        f"""
        SELECT count(*) FROM buy b1 JOIN buy b2 ON b1.dst = b2.dst
        WHERE b1.src = ? AND b2.src IN {in_seeds}
          AND b2.src != b1.src AND abs(b1.date - b2.date) < 5
        """,
        [a],
    ).fetchone()[0]
    cnt2 = con.execute(
        f"""
        WITH friends AS (SELECT DISTINCT dst AS f FROM ak WHERE src = ?)
        SELECT count(*) FROM friends
        JOIN buy b1 ON b1.src = friends.f
        JOIN buy b2 ON b1.dst = b2.dst
        WHERE b2.src IN {in_seeds} AND b2.src != b1.src
        """,
        [a],
    ).fetchone()[0]
    con.close()
    return cnt1, cnt2


@pytest.mark.parametrize("case", ["no_friends", "no_purchases", "seed"])
def test_fraud_oracle_degenerate_accounts(fraud_setup, case):
    pg, seeds, det = fraud_setup
    accounts = pg.vertices["Account"].id.to_numpy()
    buy = pg.edges["BUY"]
    if case == "no_friends":
        pick = np.setdiff1d(accounts, pg.edges["AKNOWS"].src)
    elif case == "no_purchases":
        pick = np.setdiff1d(accounts, buy.src)
    else:
        # a seed that bought something: its own BUY edges meet it as a
        # seed buyer of the same item, which ``buyer != owner`` excludes
        pick = np.intersect1d(seeds, buy.src)
    assert len(pick), f"graph has no {case} account"
    a = int(pick[0])
    alert, cnt1, cnt2 = det.check(a)
    assert (cnt1, cnt2) == _fraud_oracle(pg, seeds, a)
    assert alert == (det.w1 * cnt1 + det.w2 * cnt2 > det.threshold)


def test_fraud_on_gart_stream(spark, fraud_setup):
    """Orders stream into GART; a fresh snapshot sees them (Fig. 6a flow)."""
    pg, seeds, _ = fraud_setup
    store = GartStore(spark, pg)
    v0 = store.write_version
    n0 = len(store.to_property_graph().edges["BUY"])
    fraud.stream_orders(store, n_orders=10, seed=9)
    after = store.to_property_graph()
    assert len(after.edges["BUY"]) == n0 + 10
    # old snapshot unaffected (MVCC)
    assert len(store.to_property_graph(v0).edges["BUY"]) == n0
    # a detector over the new snapshot, and one whose engine took the
    # same orders through add_edge, both count what the oracle counts on
    # the post-stream graph
    streamed = after.edges["BUY"].iloc[n0:]
    assert (streamed.date >= 3000).all()  # stream_orders dates its orders 3000 on
    det = fraud.FraudDetector(HiActorEngine(after), seeds)
    live = HiActorEngine(pg)
    live_det = fraud.FraudDetector(live, seeds)
    for o in streamed.itertuples(index=False):
        live.add_edge("BUY", int(o.src), int(o.dst), {"date": o.date, "amount": o.amount})
    accounts = {int(pg.vertices["Account"].id.iloc[0]), *streamed.src.tolist()}
    # the friends of an account whose order streamed in see it in cnt2
    ak = pg.edges["AKNOWS"]
    accounts |= set(ak.src[ak.dst.isin(streamed.src)].head(5).tolist())
    for a in sorted(accounts):
        want = _fraud_oracle(after, seeds, a)
        assert det.check(a)[1:] == want, f"account {a}"
        assert live_det.check(a)[1:] == want, f"account {a} after add_edge"


def test_fraud_throughput_smoke(fraud_setup):
    pg, seeds, _ = fraud_setup
    out = fraud.throughput_sweep(pg, seeds, worker_counts=(2,), duration=0.5)
    assert out[2] > 0


def test_equity_grape_matches_numpy(spark):
    pg = equity.equity_graph(n_companies=40, n_persons=20, seed=5)
    from repro.storage.vineyard import VineyardStore

    store = VineyardStore(spark, pg)
    got = (
        equity.effective_ownership_grape(spark, store, max_depth=30)
        .toPandas()
        .sort_values(["owner", "company"])
        .reset_index(drop=True)
    )
    want = (
        equity.effective_ownership_numpy(pg.edges["OWNS"])
        .sort_values(["owner", "company"])
        .reset_index(drop=True)
    )
    merged = got.merge(want, on=["owner", "company"], how="outer", suffixes=("_g", "_n"))
    assert merged.share_g.notna().all() and merged.share_n.notna().all()
    np.testing.assert_allclose(merged.share_g, merged.share_n, atol=1e-6)


def test_equity_sql_baseline_matches_at_its_depth(spark):
    pg = equity.equity_graph(n_companies=25, n_persons=15, seed=6)
    owns = pg.edges["OWNS"]
    got = equity.effective_ownership_sql(spark, owns, depth=3).toPandas()
    # reference limited to depth 3
    ids = np.unique(np.concatenate([owns.src, owns.dst]))
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    w = np.zeros((n, n))
    for s, d, sh in owns[["src", "dst", "share"]].itertuples(index=False):
        w[pos[s], pos[d]] += sh
    acc = w + w @ w + w @ w @ w
    for owner, company, share in got[["owner", "company", "share"]].itertuples(index=False):
        assert abs(acc[pos[owner], pos[company]] - share) < 1e-9


def test_equity_controllers(spark):
    pg = equity.equity_graph(n_companies=40, n_persons=20, seed=5)
    from repro.storage.vineyard import VineyardStore

    store = VineyardStore(spark, pg)
    ctl = equity.controllers_grape(spark, store, max_depth=30).toPandas()
    assert (ctl.owner < equity.COMPANY_BASE).all()
    assert (ctl.share > 0.5).all()
    # every company has total direct shares 1 -> effective person
    # ownership of any company can never exceed 1 (+ numeric slack)
    assert (ctl.share <= 1.0 + 1e-6).all()


def test_cybersec_traversal_matches_sql(spark):
    pg = cybersec.trojan_graph(n_hosts=300, n_edges=1500, n_infected=3, seed=2)
    eng = HiActorEngine(pg)
    plan = cybersec.two_hop_plan(pg)
    got = cybersec.two_hop_traversal(eng, plan)
    want = cybersec.two_hop_sql(spark, pg).toPandas()
    assert sorted(got.id) == sorted(want.id)


def test_flexbuild_workloads():
    s2 = flexbuild(*WORKLOAD2)
    assert "GRAPE" in s2.describe()
    s5 = flexbuild(*WORKLOAD5)
    assert "Gaia" in s5.describe() and "GraphAr" in s5.describe()
    # a storage component's traits are those its store class declares,
    # and they are what flexbuild's own table held before
    T = Trait
    served = T.TOPOLOGY | T.PROPERTY | T.INDEX | T.PREDICATE_PUSHDOWN | T.PARTITION
    want = {
        "C21": (GartStore, served | T.MUTABLE | T.VERSIONED),
        "C22": (VineyardStore, served),
        "C23": (GraphArStore, served),
        "C24": (StaticCSRStore, T.TOPOLOGY | T.PARTITION | T.INDEX),
    }
    for c, (cls, traits) in want.items():
        assert storage_traits(c) == cls.TRAITS == traits, c
    assert GartSnapshot.TRAITS == GartStore.TRAITS


def test_flexbuild_rejects_bad_stacks():
    with pytest.raises(IncompatibleStack):
        flexbuild("C16")  # engine without storage
    with pytest.raises(IncompatibleStack):
        flexbuild("C12", "C24")  # HiActor needs PROPERTY; CSR has none
    with pytest.raises(IncompatibleStack):
        flexbuild("C4", "C13", "C22")  # language without GraphIR
    with pytest.raises(IncompatibleStack):
        flexbuild("C99")
