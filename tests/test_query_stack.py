"""Interactive stack: parsers -> IR -> RBO/CBO -> Gaia & HiActor.

Every result is oracle-checked against DuckDB SQL over the same
vertex/edge tables, and Gaia vs HiActor must agree row-for-row.
"""
import duckdb
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


# -- the co-purchase and co-buyers templates of the interactive benchmark --
CY_COPURCHASE = (
    "MATCH (a:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account) WHERE a.id = {v} "
    "RETURN s.id AS buyer, count(i) AS common ORDER BY common DESC, buyer ASC LIMIT 10"
)
SQL_COPURCHASE = """
SELECT b2.src AS buyer, count(*) AS common FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
WHERE b1.src = {v} GROUP BY b2.src ORDER BY common DESC, buyer ASC LIMIT 10
"""
GR_COBUYERS = "g.V('Account').hasId({v}).out('BUY').in_('BUY').dedup().count()"
SQL_COBUYERS = """
SELECT count(DISTINCT b2.src) AS cnt FROM buy b1 JOIN buy b2 ON b2.dst = b1.dst
WHERE b1.src = {v}
"""


def _accounts(pg):
    """The two biggest buyers, an account that bought nothing, an absent id."""
    buy, ids = pg.edges["BUY"], pg.vertices["Account"].id
    idle = sorted(set(ids) - set(buy.src))[0]
    return [int(x) for x in buy.src.value_counts().index[:2]] + [int(idle), int(ids.max()) + 1]


def _rows(df):
    return [tuple(int(x) for x in r) for r in df.itertuples(index=False)]


def test_copurchase_plan_fuses_on_vertex_id(catalog):
    """``RETURN s.id`` reads the id the fused expand yields, not a property."""
    plan = compile_plan(parse_cypher(CY_COPURCHASE.format(v=1)), catalog=catalog,
                        rbo=True, cbo=True)
    assert not any(isinstance(op, ir.GetVertex) for op in plan), plan
    assert sum(isinstance(op, ir.ExpandVertex) for op in plan) == 2, plan
    assert ir.referenced_props((ir.Project((ir.ProjExpr(ir.Ref("s", "id"), "x"),)),)) == {}


@pytest.mark.parametrize("rbo", [False, True])
@pytest.mark.parametrize("template", ["cypher", "gremlin"])
def test_interactive_templates_agree(gaia, hiactor, pg, store, catalog, rbo, template):
    text, sql = (CY_COPURCHASE, SQL_COPURCHASE) if template == "cypher" else (GR_COBUYERS,
                                                                            SQL_COBUYERS)
    tables = _tables(pg)
    for v in _accounts(pg):
        logical = (parse_cypher(text.format(v=v)) if template == "cypher"
                   else parse_gremlin(text.format(v=v), store._pg.edge_signatures))
        plan = compile_plan(logical, catalog=catalog, rbo=rbo, cbo=True)
        with duckdb.connect() as con:
            for name, t in tables.items():
                con.register(name, t)
            want = _rows(con.execute(sql.format(v=v)).fetchdf())
        assert _rows(hiactor.execute(plan)) == want, (v, plan)
        assert _rows(gaia.execute(plan).toPandas()) == want, (v, plan)


def test_fused_expand_filters_on_edge_property(gaia, hiactor, pg, catalog):
    cy = """
    MATCH (a:Person)-[k:KNOWS]->(b:Person) WHERE k.creationDate > 1000 AND a.city = 'paris'
    RETURN a.id AS x, b.id AS y
    """
    plan = compile_plan(parse_cypher(cy), catalog=catalog, rbo=True, cbo=True)
    assert any(isinstance(op, ir.ExpandVertex) and op.predicate for op in plan), plan
    sql = """
    SELECT a.id AS x, k.dst AS y FROM person a JOIN knows k ON k.src = a.id
    WHERE k.creationDate > 1000 AND a.city = 'paris'
    """
    assert_equivalent(gaia.execute(plan), sql, **_tables(pg))
    got = hiactor.execute(plan)
    assert sorted(_rows(got)) == sorted(_rows(gaia.execute(plan).toPandas()))


def test_id_in_list_with_repeated_id(gaia, hiactor, pg):
    a, b = pg.vertices["Person"].id.tolist()[:2]
    cy = f"MATCH (p:Person) WHERE p.id IN [{b}, {a}, {b}] RETURN p.name AS n"
    want = sorted(pg.vertices["Person"].set_index("id").name[[a, b]])
    for rbo in (False, True):  # RBO pushes the IN list into the Scan's id lookup
        plan = compile_plan(parse_cypher(cy), rbo=rbo)
        assert sorted(hiactor.execute(plan).n) == want, plan
        assert sorted(gaia.execute(plan).toPandas().n) == want, plan


def test_profile_leaves_results_unchanged(hiactor, pg, catalog):
    v = _accounts(pg)[0]
    plans = [
        compile_plan(parse_cypher(CY_COPURCHASE.format(v=v)), catalog=catalog, rbo=True, cbo=True),
        compile_plan(parse_cypher(CY_BIFURCATED), catalog=catalog, rbo=False, cbo=False),
    ]
    for plan in plans:
        prof = []
        got = hiactor.execute(plan, profile=prof)
        pd.testing.assert_frame_equal(got, hiactor.execute(plan))
        assert [op for op, _, _ in prof] == list(plan)
        assert prof[-1][1] == len(got)
        assert all(rows >= 0 and us >= 0 for _, rows, us in prof)


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
    big = np.iinfo(np.int64)  # int64 keys at both ends, where a negated key overflows
    t["i"] = g.choice([big.min, -1, 0, 5, big.max], n)
    t["b"] = g.random(n) < 0.5
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


NOTHING = (ir.Cmp("t", "w", ">", 1000),)  # a Scan predicate no row meets
GROUP_KEYS = [("k1",), ("k2", "k1"), ("k2",), ("i",)]


def _check_groupby(odd_table, keys, where):
    eng, ref = odd_table
    ref = ref[ref.t_w > 1000] if where else ref
    op = ir.GroupBy(
        keys=tuple(ir.ProjExpr(ir.Ref("t", k), k) for k in keys),
        aggs=(ir.AggExpr("count", None, "n"), ir.AggExpr("count", ir.Ref("t", "v"), "nv"),
              ir.AggExpr("count", ir.Ref("t", "i"), "ni"),
              ir.AggExpr("sum", ir.Ref("t", "v"), "s"), ir.AggExpr("avg", ir.Ref("t", "w"), "a"),
              ir.AggExpr("min", ir.Ref("t", "v"), "lo"), ir.AggExpr("max", ir.Ref("t", "w"), "hi")),
    )
    got, want = eng.execute([ir.Scan("T", "t", where), op]), _agg_ref(ref, op)
    # the missing key is the data's None here and NaN in pandas' group index
    pd.testing.assert_frame_equal(got.where(got.notna(), float("nan")), want, check_dtype=False)


def _check_distinct(odd_table, keys, where):
    eng, ref = odd_table
    ref = ref[ref.t_w > 1000] if where else ref
    exprs = tuple(ir.ProjExpr(ir.Ref("t", k), k) for k in keys)
    got = eng.execute([ir.Scan("T", "t", where), ir.Project(exprs, distinct=True)])
    want = ref[[f"t_{k}" for k in keys]].set_axis(list(keys), axis=1).drop_duplicates()
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))


@pytest.mark.parametrize("keys", GROUP_KEYS)
def test_hiactor_groupby_matches_pandas(odd_table, keys):
    _check_groupby(odd_table, keys, ())


def test_hiactor_distinct_matches_pandas(odd_table):
    _check_distinct(odd_table, ("k1", "k2"), ())


@pytest.mark.parametrize("keys", [("k2",), ("i",)])
def test_hiactor_distinct_int_key_matches_pandas(odd_table, keys):
    _check_distinct(odd_table, keys, ())


@pytest.mark.parametrize("keys", GROUP_KEYS)
def test_hiactor_empty_relation_matches_pandas(odd_table, keys):
    _check_groupby(odd_table, keys, NOTHING)
    _check_distinct(odd_table, keys, NOTHING)


ORDER_KEYS = [(("t_k1", False), ("t_w", True)), (("t_v", True),),
              (("t_k2", False), ("t_v", False)), (("t_i", False), ("t_k1", True)),
              (("t_i", True),), (("t_b", False), ("t_i", True))]


def _sorted(ref, keys):
    return ref.sort_values([k for k, _ in keys], ascending=[a for _, a in keys], kind="stable")


@pytest.mark.parametrize("keys", ORDER_KEYS)
def test_hiactor_orderby_matches_pandas(odd_table, keys):
    eng, ref = odd_table
    got = eng.execute([ir.Scan("T", "t"), ir.OrderBy(keys)])
    pd.testing.assert_frame_equal(got, _sorted(ref, keys).reset_index(drop=True))


@pytest.mark.parametrize("k", [0, 1, 7, 60, 65])  # the table has 60 rows
@pytest.mark.parametrize("keys", ORDER_KEYS)
def test_hiactor_topk_matches_pandas(odd_table, keys, k):
    eng, ref = odd_table
    got = eng.execute([ir.Scan("T", "t"), ir.OrderBy(keys), ir.Limit(k)])
    pd.testing.assert_frame_equal(got, _sorted(ref, keys).head(k).reset_index(drop=True))
