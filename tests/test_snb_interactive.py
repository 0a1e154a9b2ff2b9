"""SNB Interactive: indexed (HiActor) vs scan (baseline) must agree."""
import numpy as np
import pytest

from repro.datasets import snb
from repro.query import snb_interactive as si


@pytest.fixture(scope="module")
def accesses():
    pg = snb.snb_graph(n_persons=120, seed=23)
    return pg, si.IndexedAccess(pg), si.ScanAccess(pg)


def _persons(pg, k=15):
    return pg.vertices["Person"].id.to_numpy()[:k]


@pytest.mark.parametrize("qname", list(si.COMPLEX))
def test_complex_queries_agree(accesses, qname):
    pg, idx, scan = accesses
    fn = si.COMPLEX[qname]
    for p in _persons(pg):
        if qname == "C1":
            a, b = fn(idx, int(p), "beijing"), fn(scan, int(p), "beijing")
        elif qname == "C2":
            a, b = fn(idx, int(p), 2500), fn(scan, int(p), 2500)
        else:
            a, b = fn(idx, int(p)), fn(scan, int(p))
        assert a == b, f"{qname} mismatch for person {p}"


@pytest.mark.parametrize("qname", list(si.SHORT))
def test_short_queries_agree(accesses, qname):
    pg, idx, scan = accesses
    fn = si.SHORT[qname]
    targets = (
        pg.vertices["Post"].id.to_numpy()[:15] if qname == "S4" else _persons(pg)
    )
    for t in targets:
        assert fn(idx, int(t)) == fn(scan, int(t)), f"{qname} mismatch for {t}"


def test_updates_visible_in_both(accesses):
    pg, idx, scan = accesses
    evs = snb.update_stream(pg, n_updates=30, seed=4)
    for ev in evs:
        si.apply_update(idx, ev)
        si.apply_update(scan, ev)
    for ev in evs:
        if ev["kind"] == "add_person":
            assert idx.vertex("Person", ev["id"]) is not None
            assert scan.vertex("Person", ev["id"]) is not None
        elif ev["kind"] == "add_knows":
            assert ev["dst"] in idx.neighbors(ev["src"], "KNOWS", "out")
            assert ev["dst"] in scan.neighbors(ev["src"], "KNOWS", "out")
    # post-update query agreement still holds
    for p in _persons(pg, 10):
        assert si.s3_friends(idx, int(p)) == si.s3_friends(scan, int(p))
        assert si.c3_city_counts(idx, int(p)) == si.c3_city_counts(scan, int(p))


def test_workload_runs_on_both(accesses):
    pg, idx, scan = accesses
    ops = si.make_workload(pg, n_ops=60, seed=3)
    for name, fn in ops:
        ra = fn(si.IndexedAccess(pg) if False else idx)
        rb = fn(scan)
        if not name.startswith("U_"):
            assert type(ra) is type(rb)


def test_c1_oracle_duckdb(accesses):
    import duckdb

    pg, idx, _ = accesses
    con = duckdb.connect()
    con.register("person", pg.vertices["Person"])
    con.register("knows", pg.edges["KNOWS"])
    p = int(pg.vertices["Person"].id.iloc[0])
    got = si.c1_friends_in_city(idx, p, "paris", k=1000)
    want = con.execute(
        """
        WITH f1 AS (SELECT dst AS id FROM knows WHERE src = ?),
             f2 AS (SELECT k.dst AS id FROM f1 JOIN knows k ON k.src = f1.id),
             cand AS (SELECT DISTINCT id FROM (SELECT id FROM f1 UNION ALL SELECT id FROM f2))
        SELECT cand.id, p.name FROM cand JOIN person p ON p.id = cand.id
        WHERE p.city = 'paris' AND cand.id != ? ORDER BY p.name
        """,
        [p, p],
    ).fetchall()
    assert [(a, b) for a, b in got] == [(a, b) for a, b in want]
    con.close()


# -- the batch gather on degenerate frontiers ------------------------------
@pytest.fixture(scope="module")
def knows_index():
    from repro.query.hiactor import _AdjIndex

    src = np.array([5, 1, 5, 3, 9, 5, 1], dtype=np.int64)
    dst = np.array([1, 2, 3, 4, 5, 6, 7], dtype=np.int64)
    return _AdjIndex(src, dst, {"w": dst * 10})


@pytest.mark.parametrize(
    "frontier",
    [[], [2, 4, 100, -1], [5, 1, 5, 5], [9], [9, 9], [0, 2, 9, 4]],
    ids=["empty", "absent", "duplicates", "highest-key", "highest-key-twice", "zero-degree"],
)
def test_gather_matches_per_vertex_slices(knows_index, frontier):
    idx = knows_index
    row, take = idx.gather(np.asarray(frontier, dtype=np.int64))
    want_row = [i for i, v in enumerate(frontier) for _ in idx.neighbors(v)]
    want = [n for v in frontier for n in idx.neighbors(v).tolist()]
    assert row.tolist() == want_row
    assert idx.nbrs[take].tolist() == want
    assert idx.props["w"][take].tolist() == [n * 10 for n in want]


@pytest.mark.parametrize(
    "frontier", [[], [2, 4, 10**12], [0, 0, 3], [119], [7, 119, 0]],
    ids=["empty", "absent", "duplicates", "highest-id", "mixed"],
)
@pytest.mark.parametrize("direction", ["out", "in"])
def test_neighbors_batch_agree(accesses, frontier, direction):
    _, idx, scan = accesses
    vids = np.asarray(frontier, dtype=np.int64)
    want = sorted(
        (i, int(n)) for i, v in enumerate(frontier) for n in idx.neighbors(v, "KNOWS", direction)
    )
    for da in (idx, scan):
        row, nbrs = da.neighbors_batch(vids, "KNOWS", direction)
        assert sorted(zip(row.tolist(), nbrs.tolist())) == want


# -- indexed and scan access agree after updates at any id -----------------
def test_queries_agree_after_mid_range_insert():
    pg = snb.snb_graph(n_persons=80, seed=5)
    person = pg.vertices["Person"]
    gone = [30, 31]  # holes in the id range; 30 is re-inserted below
    pg.vertices["Person"] = person[~person.id.isin(gone)].reset_index(drop=True)
    idx, scan = si.IndexedAccess(pg), si.ScanAccess(pg)
    top = int(person.id.max())
    events = [
        {"kind": "add_person", "id": 30, "name": "p-mid", "city": "lima", "creationDate": 7},
        {"kind": "add_knows", "src": 2, "dst": 30, "creationDate": 11},
        {"kind": "add_knows", "src": 30, "dst": 2, "creationDate": 12},
        {"kind": "add_knows", "src": 30, "dst": top, "creationDate": 13},
        {"kind": "add_like", "src": 30, "dst": int(pg.vertices["Post"].id.iloc[0]), "date": 5},
    ]
    for ev in events:
        si.apply_update(idx, ev)
        si.apply_update(scan, ev)
    assert idx.vertex("Person", 30) == scan.vertex("Person", 30)
    assert idx.vertex("Person", 30)["name"] == "p-mid"
    for absent in (31, top + 1, 10**12, -1):
        assert idx.vertex("Person", absent) is None
        assert scan.vertex("Person", absent) is None
    ids = idx._v["Person"].id.to_numpy()
    assert np.all(ids[1:] > ids[:-1]), "indexed table lost its id order"
    for p in [30, 2, 29, top, 0]:
        for name, fn in si.COMPLEX.items():
            args = {"C1": ("lima",), "C2": (2500,)}.get(name, ())
            assert fn(idx, p, *args) == fn(scan, p, *args), f"{name}({p})"
        for name, fn in si.SHORT.items():
            q = int(pg.vertices["Post"].id.iloc[0]) if name == "S4" else p
            assert fn(idx, q) == fn(scan, q), f"{name}({q})"
    assert ("lima" in si.c3_city_counts(idx, 2)) and (30, "p-mid") in si.c1_friends_in_city(
        idx, 2, "lima", k=1000
    )
