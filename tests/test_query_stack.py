"""Interactive stack: parsers -> IR -> RBO/CBO -> Gaia & HiActor.

Every result is oracle-checked against DuckDB SQL over the same
vertex/edge tables, and Gaia vs HiActor must agree row-for-row.
"""
import pandas as pd
import pytest

from repro.datasets import snb
from repro.oracle import assert_equivalent
from repro.query import ir
from repro.query.catalog import Catalog
from repro.query.cypher import parse_cypher
from repro.query.gaia import GaiaExecutor
from repro.query.gremlin import G, parse_gremlin
from repro.query.hiactor import HiActorEngine
from repro.query.planner import compile_plan
from repro.storage.vineyard import VineyardStore


@pytest.fixture(scope="module")
def pg():
    return snb.snb_graph(n_persons=150, seed=11)


@pytest.fixture(scope="module")
def store(spark, pg):
    return VineyardStore(spark, pg)


@pytest.fixture(scope="module")
def gaia(spark, store):
    return GaiaExecutor(spark, store)


@pytest.fixture(scope="module")
def hiactor(pg):
    return HiActorEngine(pg)


@pytest.fixture(scope="module")
def catalog(store):
    return Catalog.from_store(store)


CY_FRIENDS_POSTS = """
MATCH (a:Person {city: 'beijing'})-[:KNOWS]->(b:Person)-[:LIKES]->(p:Post)
WHERE p.length > 500
RETURN a.name AS name, p.length AS len
"""

SQL_FRIENDS_POSTS = """
SELECT a.name AS name, p.length AS len
FROM person a JOIN knows k ON k.src = a.id
JOIN person b ON b.id = k.dst
JOIN likes l ON l.src = b.id
JOIN post p ON p.id = l.dst
WHERE a.city = 'beijing' AND p.length > 500
"""


def _tables(pg):
    return dict(
        person=pg.vertices["Person"],
        post=pg.vertices["Post"],
        item=pg.vertices["Item"],
        account=pg.vertices["Account"],
        knows=pg.edges["KNOWS"],
        likes=pg.edges["LIKES"],
        buy=pg.edges["BUY"],
        created=pg.edges["CREATED"],
    )


def test_cypher_parses_to_match():
    plan = parse_cypher(CY_FRIENDS_POSTS)
    assert isinstance(plan[0], ir.Match)
    assert {a for a, _, _ in plan[0].vertices} == {"a", "b", "p"}
    assert isinstance(plan[1], ir.Select)
    assert isinstance(plan[2], ir.Project)


@pytest.mark.parametrize("rbo", [False, True])
@pytest.mark.parametrize("cbo", [False, True])
def test_gaia_oracle_friends_posts(gaia, pg, catalog, rbo, cbo):
    plan = compile_plan(parse_cypher(CY_FRIENDS_POSTS), catalog=catalog, rbo=rbo, cbo=cbo)
    df = gaia.execute(plan)
    assert_equivalent(df, SQL_FRIENDS_POSTS, **_tables(pg))


def test_hiactor_matches_gaia(gaia, hiactor, catalog, pg):
    plan = compile_plan(parse_cypher(CY_FRIENDS_POSTS), catalog=catalog, rbo=True, cbo=True)
    a = gaia.execute(plan).toPandas()
    b = hiactor.execute(plan)
    key = ["name", "len"]
    pd.testing.assert_frame_equal(
        a.sort_values(key).reset_index(drop=True).astype({"len": "int64"}),
        b.sort_values(key).reset_index(drop=True).astype({"len": "int64"}),
        check_dtype=False,
    )


CY_BIFURCATED = """
MATCH (a:Person {city: 'paris'})-[:KNOWS]->(b:Person)
MATCH (b)-[:CREATED]->(p:Post)
RETURN b.name AS bname, count(p) AS posts
"""

SQL_BIFURCATED = """
SELECT b.name AS bname, count(p.id) AS posts
FROM person a JOIN knows k ON k.src = a.id
JOIN person b ON b.id = k.dst
JOIN created c ON c.src = b.id
JOIN post p ON p.id = c.dst
WHERE a.city = 'paris'
GROUP BY b.name
"""


@pytest.mark.parametrize("cbo", [False, True])
def test_gaia_oracle_bifurcated(gaia, pg, catalog, cbo):
    plan = compile_plan(parse_cypher(CY_BIFURCATED), catalog=catalog, rbo=True, cbo=cbo)
    df = gaia.execute(plan)
    assert_equivalent(df, SQL_BIFURCATED, **_tables(pg))


def test_naive_plan_bifurcates_and_cbo_linearizes(catalog):
    logical = parse_cypher(CY_BIFURCATED)
    naive = compile_plan(logical, rbo=False, cbo=False)
    assert any(isinstance(op, ir.Join) for op in naive), "naive plan should join branches"
    opt = compile_plan(logical, catalog=catalog, rbo=True, cbo=True)
    assert not any(isinstance(op, ir.Join) for op in opt), "CBO plan should be linear"
    # CBO starts from the selective 'a' (has an equality predicate)
    assert isinstance(opt[0], ir.Scan) and opt[0].alias == "a"
    assert opt[0].predicate, "predicate must be pushed into the scan"


def test_rbo_fusion_fires():
    # values(price) references only c -> b's GetVertex can fuse
    plan = parse_cypher(
        """
        MATCH (a:Person {name: 'p000001'})-[:KNOWS]->(b:Person)-[:LIKES]->(p:Post)
        RETURN p.length AS len
        """
    )
    opt = compile_plan(plan, rbo=True, cbo=False)
    assert any(isinstance(op, ir.ExpandVertex) for op in opt), "fusion should fire for b"
    # p's properties are referenced -> p must stay a GetVertex
    gets = [op for op in opt if isinstance(op, ir.GetVertex)]
    assert any(g.alias == "p" for g in gets)


def test_fusion_respects_property_use():
    plan = parse_cypher(
        """
        MATCH (a:Person)-[:KNOWS]->(b:Person)
        WHERE a.city = 'lima'
        RETURN b.name AS n
        """
    )
    opt = compile_plan(plan, rbo=True, cbo=False)
    assert not any(isinstance(op, ir.ExpandVertex) for op in opt), (
        "b.name is used -> no fusion allowed"
    )


def test_gremlin_builder_matches_cypher(gaia, pg, store):
    q = (
        G(store._pg.edge_signatures)
        .V("Person").as_("a").has("city", "beijing")
        .out("KNOWS").as_("b")
        .out("LIKES").as_("p").has("length", ">", 500)
        .values("length")
    )
    plan = compile_plan(q.plan(), rbo=True)
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT p.length AS length
        FROM person a JOIN knows k ON k.src = a.id
        JOIN person b ON b.id = k.dst
        JOIN likes l ON l.src = b.id
        JOIN post p ON p.id = l.dst
        WHERE a.city = 'beijing' AND p.length > 500
        """,
        **_tables(pg),
    )


def test_gremlin_string_parser(gaia, pg, store, hiactor):
    text = "g.V('Person').has('city','tokyo').out('KNOWS').values('name')"
    plan = compile_plan(parse_gremlin(text, store._pg.edge_signatures), rbo=True)
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT b.name AS name
        FROM person a JOIN knows k ON k.src = a.id JOIN person b ON b.id = k.dst
        WHERE a.city = 'tokyo'
        """,
        **_tables(pg),
    )
    got = hiactor.execute(plan)
    assert sorted(got.name) == sorted(df.toPandas().name)


def test_gremlin_count_and_limit(hiactor, pg, store):
    text = "g.V('Person').out('KNOWS').count()"
    plan = compile_plan(parse_gremlin(text, store._pg.edge_signatures))
    got = hiactor.execute(plan)
    assert got.cnt.iloc[0] == len(pg.edges["KNOWS"])


def test_in_edge_direction(gaia, pg, store):
    # who liked post X: in-direction traversal
    text = "g.V('Post').has('length','>',1500).in_('LIKES').values('name')"
    plan = compile_plan(parse_gremlin(text, store._pg.edge_signatures))
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT b.name AS name
        FROM post p JOIN likes l ON l.dst = p.id JOIN person b ON b.id = l.src
        WHERE p.length > 1500
        """,
        **_tables(pg),
    )


def test_undirected_and_cycle(gaia, hiactor, pg, catalog):
    # triangle-ish: a knows b, both bought the same item (via accounts).
    cy = """
    MATCH (a:Account)-[:BUY]->(i:Item)<-[b2:BUY]-(s:Account)
    WHERE i.price > 400
    RETURN a.id AS a_id, s.id AS s_id, i.id AS i_id
    """
    plan = compile_plan(parse_cypher(cy), catalog=catalog, rbo=True, cbo=True)
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT b1.src AS a_id, b2.src AS s_id, i.id AS i_id
        FROM buy b1 JOIN item i ON b1.dst = i.id JOIN buy b2 ON b2.dst = i.id
        WHERE i.price > 400
        """,
        **_tables(pg),
    )
    hp = hiactor.execute(plan)
    assert len(hp) == df.count()


def test_raw_predicate_edge_arithmetic(gaia, hiactor, pg, catalog):
    cy = """
    MATCH (a:Account)-[b1:BUY]->(i:Item)<-[b2:BUY]-(s:Account)
    WHERE b1.date - b2.date < 5 AND b1.date - b2.date > -5 AND i.price > 450
    RETURN a.id AS a_id, s.id AS s_id
    """
    plan = compile_plan(parse_cypher(cy), catalog=catalog, rbo=True, cbo=False)
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT b1.src AS a_id, b2.src AS s_id
        FROM buy b1 JOIN item i ON b1.dst = i.id JOIN buy b2 ON b2.dst = i.id
        WHERE b1.date - b2.date < 5 AND b1.date - b2.date > -5 AND i.price > 450
        """,
        **_tables(pg),
    )
    hp = hiactor.execute(plan)
    assert len(hp) == df.count()


def test_group_order_limit(gaia, pg, catalog):
    cy = """
    MATCH (p:Person)-[:LIKES]->(o:Post)
    RETURN p.city AS city, count(o) AS likes
    ORDER BY likes DESC, city ASC LIMIT 3
    """
    plan = compile_plan(parse_cypher(cy), catalog=catalog, rbo=True, cbo=True)
    df = gaia.execute(plan)
    assert_equivalent(
        df,
        """
        SELECT p.city AS city, count(*) AS likes
        FROM person p JOIN likes l ON l.src = p.id
        GROUP BY p.city ORDER BY likes DESC, city ASC LIMIT 3
        """,
        **_tables(pg),
    )


# -- HiActor's array operators against the pandas operators they replace ---
@pytest.fixture(scope="module")
def odd_table():
    """Keys with missing values, ties, mixed order; ids not in row order."""
    import numpy as np

    from repro.datasets.property_graph import PropertyGraph

    g = np.random.default_rng(7)
    n = 60
    v = g.normal(size=n)
    v[::7] = np.nan
    k1 = g.choice(["b", "a", "c"], n).astype(object)
    k1[::9] = None
    t = pd.DataFrame({"id": g.permutation(n) + 100, "k1": k1,
                      "k2": g.integers(0, 3, n), "v": v, "w": g.integers(0, 50, n)})
    pg = PropertyGraph()
    pg.add_vertices("T", t)
    ref = t.sort_values("id", ignore_index=True)  # the row order Scan yields
    return HiActorEngine(pg), ref.rename(columns={c: f"t_{c}" for c in ref.columns})


def _agg_ref(df, op):
    fns = {"count": "count", "sum": "sum", "avg": "mean", "min": "min", "max": "max"}
    g = df.groupby([e.ref.column for e in op.keys], dropna=False, sort=False)
    cols = {a.name: g.size() if a.ref is None else getattr(g[a.ref.column], fns[a.fn])()
            for a in op.aggs}
    return pd.DataFrame(cols).reset_index().rename(
        columns={e.ref.column: e.name for e in op.keys})


@pytest.mark.parametrize("keys", [("k1",), ("k2", "k1")])
def test_hiactor_groupby_matches_pandas(odd_table, keys):
    eng, ref = odd_table
    op = ir.GroupBy(
        keys=tuple(ir.ProjExpr(ir.Ref("t", k), k) for k in keys),
        aggs=(ir.AggExpr("count", None, "n"), ir.AggExpr("count", ir.Ref("t", "v"), "nv"),
              ir.AggExpr("sum", ir.Ref("t", "v"), "s"), ir.AggExpr("avg", ir.Ref("t", "w"), "a"),
              ir.AggExpr("min", ir.Ref("t", "v"), "lo"), ir.AggExpr("max", ir.Ref("t", "w"), "hi")),
    )
    got, want = eng.execute([ir.Scan("T", "t"), op]), _agg_ref(ref, op)
    # the missing key is the data's None here and NaN in pandas' group index
    pd.testing.assert_frame_equal(got.where(got.notna(), float("nan")), want, check_dtype=False)


@pytest.mark.parametrize("keys", [(("t_k1", False), ("t_w", True)), (("t_v", True),),
                                  (("t_k2", False), ("t_v", False))])
def test_hiactor_orderby_matches_pandas(odd_table, keys):
    eng, ref = odd_table
    got = eng.execute([ir.Scan("T", "t"), ir.OrderBy(keys)])
    want = ref.sort_values([k for k, _ in keys], ascending=[a for _, a in keys], kind="stable")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


def test_hiactor_distinct_matches_pandas(odd_table):
    eng, ref = odd_table
    exprs = (ir.ProjExpr(ir.Ref("t", "k1"), "k1"), ir.ProjExpr(ir.Ref("t", "k2"), "k2"))
    got = eng.execute([ir.Scan("T", "t"), ir.Project(exprs, distinct=True)])
    want = ref[["t_k1", "t_k2"]].set_axis(["k1", "k2"], axis=1).drop_duplicates()
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))
