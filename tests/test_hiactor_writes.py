"""HiActor's append-in-place writes against indexes built from scratch.

Every version an insert returns is kept, inserts also go into versions a
newer one has already appended to, and each kept version must read
exactly like a fresh ``_AdjIndex``/``_VertexTable`` built from its own
rows in arrival order.  Runs are long enough to fill the spare slots, so
they cross the fold into a fresh sorted base.
"""
import copy
import sys
import threading

import numpy as np
import pandas as pd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import snb
from repro.datasets.property_graph import PropertyGraph
from repro.query.hiactor import HiActorEngine, _AdjIndex, _VertexTable

K = 6  # edge keys 0..K-1: few keys, so inserts often repeat one
IDS = range(-3, 24)  # vertex ids below, inside and above the built range

_edges = st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)), max_size=8)
# (held version to insert into, or None for the latest; key; nbr or id; times)
_op = st.tuples(
    st.sampled_from(["edge", "vertex"]),
    st.one_of(st.none(), st.integers(0, 10**6)),
    st.integers(0, K - 1),
    st.sampled_from(list(IDS)),
    st.integers(1, 120),
)


def _engine(edges, ids) -> HiActorEngine:
    pg = PropertyGraph()
    pg.add_vertices("V", pd.DataFrame({"id": np.asarray(ids, dtype=np.int64),
                                       "x": np.asarray(ids, dtype=np.float64) / 2}))
    pg.add_edges("E", pd.DataFrame({
        "src": np.asarray([s for s, _ in edges], dtype=np.int64),
        "dst": np.asarray([d for _, d in edges], dtype=np.int64),
        "w": np.arange(len(edges), dtype=np.int64),
    }), src_label="V", dst_label="V")
    return HiActorEngine(pg)


def _pinned(engine, idx) -> HiActorEngine:
    """``engine`` reading one held index as its ``E`` out-index."""
    view = copy.copy(engine)
    view.adj = {("E", "out"): idx}
    return view


def _check_edges(engine, idx, rows):
    want = _AdjIndex(np.array([k for k, _, _ in rows], dtype=np.int64),
                     np.array([n for _, n, _ in rows], dtype=np.int64),
                     {"w": np.array([w for _, _, w in rows], dtype=np.int64)})
    assert idx.n == len(rows) and len(idx.keys) == len(idx.nbrs) == len(idx.props["w"]) == len(rows)
    frontier = np.array([K - 1, 0, -1, 3, 3, K, *range(K)], dtype=np.int64)
    got_row, got_take = idx.gather(frontier)
    want_row, want_take = want.gather(frontier)
    np.testing.assert_array_equal(got_row, want_row)
    np.testing.assert_array_equal(idx.nbrs[got_take], want.nbrs[want_take])
    np.testing.assert_array_equal(idx.props["w"][got_take], want.props["w"][want_take])
    view = _pinned(engine, idx)
    for v in range(-1, K + 1):
        np.testing.assert_array_equal(idx.neighbors(v), want.neighbors(v))
        nbrs, w = view.neighbors_with_prop(v, "E", "out", "w")
        np.testing.assert_array_equal(nbrs, want.neighbors(v))
        np.testing.assert_array_equal(w, want.props["w"][want.slots(v)])


def _check_vertices(table, rows):
    want = _VertexTable.from_frame(
        pd.DataFrame(rows, columns=["id", "x"]).astype({"id": np.int64, "x": np.float64})
    )
    assert table.n == len(rows)
    pd.testing.assert_frame_equal(table.frame, want.frame)
    vids = np.array([*IDS, 5, 5, -3], dtype=np.int64)
    (pos, hit), (wpos, whit) = table.find(vids), want.find(vids)
    np.testing.assert_array_equal(hit, whit)
    for c in ("id", "x"):
        np.testing.assert_array_equal(table.cols[c][pos], want.cols[c][wpos])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_edges, st.lists(st.sampled_from(list(range(0, 20, 3))), unique=True), st.lists(_op, max_size=12))
@example(  # past two folds of each structure, then inserts into old versions
    [(0, 1), (K - 1, 0)], [3, 9], [("edge", None, 0, 5, 120), ("vertex", None, 0, 23, 120)] * 3
    + [("edge", 5, K - 1, 2, 4), ("vertex", 7, 0, 4, 3), ("edge", None, 2, 2, 3)],
)
def test_held_versions_match_fresh_builds(base, ids, ops):
    engine = _engine(base, sorted(ids))
    # every version, with its rows in arrival order; the "in" index
    # sees only the engine's writes
    adj = [(engine.adj[("E", "out")], [(s, d, w) for w, (s, d) in enumerate(base)])]
    rev = [(d, s, w) for w, (s, d) in enumerate(base)]
    tables = [(engine.tables["V"], [(i, i / 2) for i in sorted(ids)])]
    w = len(base)
    for kind, held, key, vid, times in ops:
        for _ in range(times):
            w += 1
            if kind == "edge" and held is None:  # through the engine: both directions
                engine.add_edge("E", key, vid % K, {"w": w})
                adj.append((engine.adj[("E", "out")], adj[-1][1] + [(key, vid % K, w)]))
                rev.append((vid % K, key, w))
            elif kind == "edge":
                idx, rows = adj[held % len(adj)]
                adj.append((idx.insert(key, vid % K, {"w": w}), rows + [(key, vid % K, w)]))
            elif held is None:
                engine.add_vertex("V", {"id": vid, "x": w / 2})
                tables.append((engine.tables["V"], tables[-1][1] + [(vid, w / 2)]))
            else:
                t, rows = tables[held % len(tables)]
                tables.append((t.insert({"id": vid, "x": w / 2}), rows + [(vid, w / 2)]))
            if held is not None:  # a branch: the engine carries on from it
                engine.adj[("E", "out")], engine.tables["V"] = adj[-1][0], tables[-1][0]
    for idx, rows in adj[:: max(1, len(adj) // 40)] + adj[-3:]:
        _check_edges(engine, idx, rows)
    _check_edges(engine, engine.adj[("E", "in")], rev)
    for t, rows in tables[:: max(1, len(tables) // 40)] + tables[-3:]:
        _check_vertices(t, rows)


def _snb_engine():
    return HiActorEngine(snb.snb_graph(n_persons=80, seed=7))


def test_append_copies_nothing():
    """After the first write (which adds the spare slots), a write shares
    every array with the version before it, and the spare slots stay
    within ``max(256, n // 32)``."""
    e = _snb_engine()
    top = int(e.tables["Person"].cols["id"][-1])
    row = {"id": top + 1, "name": "a", "city": "b", "creationDate": 1}
    e.add_edge("KNOWS", 1, 2, {"creationDate": 3})
    e.add_vertex("Person", row)
    old_idx, old_t = e.adj[("KNOWS", "out")], e.tables["Person"]
    e.add_edge("KNOWS", 2, 1, {"creationDate": 4})
    e.add_vertex("Person", {**row, "id": top + 2})
    new_idx, new_t = e.adj[("KNOWS", "out")], e.tables["Person"]
    assert np.shares_memory(new_idx.nbrs, old_idx.nbrs)
    assert np.shares_memory(new_idx.keys, old_idx.keys)
    assert np.shares_memory(new_idx.props["creationDate"], old_idx.props["creationDate"])
    assert all(np.shares_memory(new_t.cols[c], old_t.cols[c]) for c in new_t.cols)
    assert (new_idx.n, new_t.n) == (old_idx.n + 1, old_t.n + 1)
    assert old_idx.neighbors(2).tolist().count(1) == new_idx.neighbors(2).tolist().count(1) - 1
    for a, n in ((new_idx._arrays[0], new_idx.n), (new_t._arrays["id"], new_t.n)):
        assert len(a) - n <= max(256, n // 32)


def test_concurrent_writers_lose_no_edge():
    """Eight threads each add 200 distinct KNOWS edges to one engine;
    each edge is then present exactly once in both directions."""
    e = _snb_engine()
    n_before = {d: e.adj[("KNOWS", d)].n for d in ("out", "in")}
    persons = e.tables["Person"].cols["id"]
    new = 10**6  # destination ids no edge uses yet

    def writer(t):
        for i in range(200):
            e.add_edge("KNOWS", int(persons[(t * 200 + i) % len(persons)]), new + t * 200 + i,
                        {"creationDate": i})

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    out, inn = e.adj[("KNOWS", "out")], e.adj[("KNOWS", "in")]
    assert (out.n, inn.n) == (n_before["out"] + 1600, n_before["in"] + 1600)
    dsts = np.arange(new, new + 1600)
    srcs = persons[np.arange(1600) % len(persons)]
    row, take = inn.gather(dsts)
    np.testing.assert_array_equal(row, np.arange(1600))
    np.testing.assert_array_equal(inn.nbrs[take], srcs)
    row, take = out.gather(np.unique(srcs))
    got = out.nbrs[take]
    np.testing.assert_array_equal(np.sort(got[got >= new]), dsts)
    for s, d in zip(srcs[:: 37].tolist(), dsts[:: 37].tolist()):
        assert e.neighbors(s, "KNOWS", "out").tolist().count(d) == 1
        assert e.neighbors(d, "KNOWS", "in").tolist() == [s]
