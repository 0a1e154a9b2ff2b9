"""LDBC SNB Interactive workload, scaled (Exp-2b).

The paper reports official audit results: HiActor-based GraphScope Flex
vs TuGraph on SNB-300 — 14 complex reads, 7 short reads, 8 updates,
8.92× average latency advantage and 2.45× throughput.

Scaled reproduction: a representative subset of each class (C1–C5,
S1–S4, U1–U3) on the SNB-lite schema.  Every query is written ONCE
against the :class:`DataAccess` interface; two implementations supply
the access path:

* :class:`IndexedAccess` — HiActor's structures: sorted adjacency read a
  frontier at a time (one batch gather) and id-sorted property tables
  looked up by position (actor-shard state);
* :class:`ScanAccess` — the baseline stand-in: identical data held as
  raw arrays, every lookup a full scan (a graph store without
  adjacency indexes — the architectural gap our TuGraph stand-in
  models; see DESIGN.md §5).

Besides single-vertex reads, the interface has batch reads (the
neighbours of many vertices, properties of many vertices), so the
complex reads touch each hop once instead of once per vertex.

Both accept the same update events, so correctness tests can diff the
two implementations query-by-query after an update stream.
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import pandas as pd

from repro.datasets.property_graph import PropertyGraph
from repro.query.hiactor import _AdjIndex, _VertexTable, find_rows
from repro.storage.csr import gather_segments


class DataAccess(ABC):
    """Minimal LPG access surface the interactive queries need."""

    @abstractmethod
    def vertex(self, label: str, vid: int) -> dict | None: ...

    @abstractmethod
    def vertex_props(
        self, label: str, vids: np.ndarray, props: list[str]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Properties of many vertices: ``(hit, cols)`` where ``hit`` masks
        the entries of ``vids`` that exist and ``cols[p]`` holds property
        ``p`` of ``vids[hit]``, in that order."""

    @abstractmethod
    def neighbors(self, vid: int, elabel: str, direction: str) -> np.ndarray: ...

    @abstractmethod
    def neighbors_batch(
        self, vids: np.ndarray, elabel: str, direction: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of many vertices (``direction`` "out" or "in"):
        ``(row, nbrs)`` with one entry per edge, ``row`` indexing the
        entry of ``vids`` the edge starts from.  An id listed twice gets
        its edges twice, as in a join; the order of edges is unspecified."""

    @abstractmethod
    def neighbors_with_prop(
        self, vid: int, elabel: str, direction: str, prop: str
    ) -> tuple[np.ndarray, np.ndarray]: ...

    @abstractmethod
    def find_vertices(self, label: str, prop: str, value) -> np.ndarray: ...

    # -- updates --------------------------------------------------------
    @abstractmethod
    def add_vertex(self, label: str, row: dict) -> None: ...

    @abstractmethod
    def add_edge(self, elabel: str, src: int, dst: int, props: dict) -> None: ...


def _row(cols: dict[str, np.ndarray], pos: int) -> dict:
    return {c: a[pos : pos + 1].tolist()[0] for c, a in cols.items()}


class IndexedAccess(DataAccess):
    """HiActor-style: id-sorted property tables looked up by position +
    sorted adjacency read a frontier at a time."""

    def __init__(self, pg: PropertyGraph):
        self._tables = {l: _VertexTable.from_frame(p) for l, p in pg.vertices.items()}
        self._adj: dict[tuple[str, str], _AdjIndex] = {}
        for label, pdf in pg.edges.items():
            props = {c: pdf[c].to_numpy() for c in pdf.columns if c not in ("src", "dst")}
            self._adj[(label, "out")] = _AdjIndex(pdf.src.to_numpy(), pdf.dst.to_numpy(), props)
            self._adj[(label, "in")] = _AdjIndex(pdf.dst.to_numpy(), pdf.src.to_numpy(), props)

    @property
    def _v(self) -> dict[str, pd.DataFrame]:
        """Every vertex property, one frame per label."""
        return {l: t.frame for l, t in self._tables.items()}

    def vertex(self, label, vid):
        t = self._tables[label]
        pos, _ = t.find([vid])
        return _row(t.cols, pos[0]) if len(pos) else None

    def vertex_props(self, label, vids, props):
        t = self._tables[label]  # one consistent version of the table
        pos, hit = t.find(vids)
        return hit, {c: t.cols[c][pos] for c in props}

    def neighbors(self, vid, elabel, direction):
        if direction == "both":
            return np.concatenate(
                [self.neighbors(vid, elabel, "out"), self.neighbors(vid, elabel, "in")]
            )
        return self._adj[(elabel, direction)].neighbors(vid)

    def neighbors_batch(self, vids, elabel, direction):
        idx = self._adj[(elabel, direction)]
        row, take = idx.gather(vids)
        return row, idx.nbrs[take]

    def neighbors_with_prop(self, vid, elabel, direction, prop):
        if direction == "both":
            n1, p1 = self.neighbors_with_prop(vid, elabel, "out", prop)
            n2, p2 = self.neighbors_with_prop(vid, elabel, "in", prop)
            return np.concatenate([n1, n2]), np.concatenate([p1, p2])
        idx = self._adj[(elabel, direction)]
        sl = idx.slice(vid)
        return idx.nbrs[sl], idx.props[prop][sl]

    def find_vertices(self, label, prop, value):
        cols = self._tables[label].cols
        return cols["id"][cols[prop] == value]

    def add_vertex(self, label, row):
        # copy-on-write + atomic swap of the whole table (see add_edge)
        self._tables[label] = self._tables[label].insert(row)

    def add_edge(self, elabel, src, dst, props):
        # copy-on-write + atomic swap of the whole index object, so
        # concurrent readers always see a consistent snapshot (the
        # benchmark drives reads and updates from a worker pool)
        for direction, k, n in (("out", src, dst), ("in", dst, src)):
            old = self._adj[(elabel, direction)]
            pos = int(np.searchsorted(old.keys, k, "right"))
            new = _AdjIndex.__new__(_AdjIndex)
            new.keys = np.insert(old.keys, pos, k)
            new.nbrs = np.insert(old.nbrs, pos, n)
            new.props = {
                c: np.insert(old.props[c], pos, props.get(c, 0)) for c in old.props
            }
            self._adj[(elabel, direction)] = new


class ScanAccess(DataAccess):
    """Baseline: same data, no indexes — every access is a full scan."""

    def __init__(self, pg: PropertyGraph):
        self._v = {l: {c: p[c].to_numpy() for c in p.columns} for l, p in pg.vertices.items()}
        self._e: dict[str, dict[str, np.ndarray]] = {}
        for label, pdf in pg.edges.items():
            self._e[label] = {c: pdf[c].to_numpy() for c in pdf.columns}

    def vertex(self, label, vid):
        v = self._v[label]
        hit = np.flatnonzero(v["id"] == vid)  # linear scan
        return _row(v, hit[0]) if len(hit) else None

    def vertex_props(self, label, vids, props):
        v = self._v[label]
        rows = np.flatnonzero(np.isin(v["id"], vids))  # one full scan of the table
        rows = rows[np.argsort(v["id"][rows], kind="stable")]
        pos, hit = find_rows(v["id"][rows], vids)
        return hit, {c: v[c][rows[pos]] for c in props}

    def neighbors(self, vid, elabel, direction):
        e = self._e[elabel]  # grab one consistent snapshot dict
        if direction == "both":
            return np.concatenate(
                [e["dst"][e["src"] == vid], e["src"][e["dst"] == vid]]
            )
        key, other = ("src", "dst") if direction == "out" else ("dst", "src")
        return e[other][e[key] == vid]

    def neighbors_batch(self, vids, elabel, direction):
        e = self._e[elabel]
        key, other = ("src", "dst") if direction == "out" else ("dst", "src")
        vids = np.asarray(vids)
        order = np.argsort(vids, kind="stable")
        sv = vids[order]
        # one pass over every edge, matched against the sorted frontier
        edge, match = gather_segments(
            np.searchsorted(sv, e[key], "left"), np.searchsorted(sv, e[key], "right")
        )
        return order[match], e[other][edge]

    def neighbors_with_prop(self, vid, elabel, direction, prop):
        e = self._e[elabel]
        if direction == "both":
            m1, m2 = e["src"] == vid, e["dst"] == vid
            return (
                np.concatenate([e["dst"][m1], e["src"][m2]]),
                np.concatenate([e[prop][m1], e[prop][m2]]),
            )
        key, other = ("src", "dst") if direction == "out" else ("dst", "src")
        mask = e[key] == vid
        return e[other][mask], e[prop][mask]

    def find_vertices(self, label, prop, value):
        v = self._v[label]
        return v["id"][v[prop] == value]

    def add_vertex(self, label, row):
        # copy-on-write + atomic dict swap (see IndexedAccess.add_edge)
        old = self._v[label]
        self._v[label] = {c: np.append(a, row[c]) for c, a in old.items()}

    def add_edge(self, elabel, src, dst, props):
        # copy-on-write + atomic dict swap (see IndexedAccess.add_edge)
        old = self._e[elabel]
        new = {
            "src": np.append(old["src"], src),
            "dst": np.append(old["dst"], dst),
        }
        for c in old:
            if c not in ("src", "dst"):
                new[c] = np.append(old[c], props.get(c, 0))
        self._e[elabel] = new


# ---------------------------------------------------------------------------
# the workload: complex (C), short (S), update (U) queries
# ---------------------------------------------------------------------------
def _two_hop(da: DataAccess, person: int) -> np.ndarray:
    """Friends and friends-of-friends of ``person``, without ``person``."""
    f1 = da.neighbors(person, "KNOWS", "out")
    _, f2 = da.neighbors_batch(f1, "KNOWS", "out")
    return np.setdiff1d(np.concatenate([f1, f2]), [person])


def c1_friends_in_city(da: DataAccess, person: int, city: str, k: int = 10):
    """Friends and friends-of-friends living in ``city`` (IC1-style)."""
    cand = _two_hop(da, person)
    hit, v = da.vertex_props("Person", cand, ["city", "name"])
    here = v["city"] == city
    ids, names = cand[hit][here], v["name"][here]
    top = np.argsort(names, kind="stable")[:k]  # ties stay in id order
    return list(zip(ids[top].tolist(), names[top].tolist()))


def c2_recent_posts(da: DataAccess, person: int, max_date: int, k: int = 10):
    """Latest posts created by friends, up to ``max_date`` (IC2-style)."""
    f1 = da.neighbors(person, "KNOWS", "out")
    row, posts = da.neighbors_batch(f1, "CREATED", "out")
    hit, v = da.vertex_props("Post", posts, ["creationDate"])
    dates = v["creationDate"]
    ok = dates <= max_date
    rows = zip(dates[ok].tolist(), posts[hit][ok].tolist(), f1[row][hit][ok].tolist())
    return sorted(rows, reverse=True)[:k]


def c3_city_counts(da: DataAccess, person: int):
    """City histogram of the 2-hop friendship neighborhood (IC3-style)."""
    _, v = da.vertex_props("Person", _two_hop(da, person), ["city"])
    cities, counts = np.unique(v["city"], return_counts=True)
    return dict(zip(cities.tolist(), counts.tolist()))


def c4_liked_length_avg(da: DataAccess, person: int):
    """Average length of posts liked by friends (IC4-flavoured)."""
    f1 = da.neighbors(person, "KNOWS", "out")
    _, posts = da.neighbors_batch(f1, "LIKES", "out")
    _, v = da.vertex_props("Post", posts, ["length"])
    n = len(v["length"])
    return int(v["length"].sum()) / n if n else 0.0


def c5_common_friends(da: DataAccess, person: int, k: int = 5):
    """2-hop candidates ranked by number of common friends (IC5-ish)."""
    f1 = np.unique(da.neighbors(person, "KNOWS", "out"))
    _, g = da.neighbors_batch(f1, "KNOWS", "out")
    g = g[(g != person) & ~np.isin(g, f1)]
    ids, counts = np.unique(g, return_counts=True)
    top = np.lexsort((ids, -counts))[:k]
    return list(zip(ids[top].tolist(), counts[top].tolist()))


def s1_profile(da: DataAccess, person: int):
    return da.vertex("Person", person)


def s2_last_posts(da: DataAccess, person: int, k: int = 5):
    posts = da.neighbors(person, "CREATED", "out")
    hit, v = da.vertex_props("Post", posts, ["creationDate"])
    top = np.argsort(-v["creationDate"], kind="stable")[:k]
    return [da.vertex("Post", p) for p in posts[hit][top].tolist()]


def s3_friends(da: DataAccess, person: int):
    nbrs, dates = da.neighbors_with_prop(person, "KNOWS", "out", "creationDate")
    return sorted(zip(nbrs.tolist(), dates.tolist()))


def s4_post(da: DataAccess, post: int):
    return da.vertex("Post", post)


def apply_update(da: DataAccess, ev: dict):
    if ev["kind"] == "add_person":
        da.add_vertex(
            "Person",
            {"id": ev["id"], "name": ev["name"], "city": ev["city"],
             "creationDate": ev["creationDate"]},
        )
    elif ev["kind"] == "add_like":
        da.add_edge("LIKES", ev["src"], ev["dst"], {"date": ev["date"]})
    else:
        da.add_edge("KNOWS", ev["src"], ev["dst"], {"creationDate": ev["creationDate"]})


COMPLEX = {"C1": c1_friends_in_city, "C2": c2_recent_posts, "C3": c3_city_counts,
           "C4": c4_liked_length_avg, "C5": c5_common_friends}
SHORT = {"S1": s1_profile, "S2": s2_last_posts, "S3": s3_friends, "S4": s4_post}


def make_workload(pg: PropertyGraph, *, n_ops: int = 200, seed: int = 17) -> list:
    """Seeded op mix (short-heavy, like the LDBC interactive driver)."""
    from repro.datasets import snb

    g = np.random.default_rng(seed)
    persons = pg.vertices["Person"].id.to_numpy()
    posts = pg.vertices["Post"].id.to_numpy()
    cities = pg.vertices["Person"].city.unique()
    updates = iter(snb.update_stream(pg, n_updates=n_ops, seed=seed + 1))
    ops = []
    # short-read-heavy mix, like the LDBC interactive driver's schedule
    for _ in range(n_ops):
        r = g.random()
        p = int(g.choice(persons))
        if r < 0.02:
            ops.append(("C1", lambda da, p=p, c=str(g.choice(cities)): c1_friends_in_city(da, p, c)))
        elif r < 0.04:
            ops.append(("C2", lambda da, p=p: c2_recent_posts(da, p, 2500)))
        elif r < 0.06:
            ops.append(("C3", lambda da, p=p: c3_city_counts(da, p)))
        elif r < 0.08:
            ops.append(("C4", lambda da, p=p: c4_liked_length_avg(da, p)))
        elif r < 0.10:
            ops.append(("C5", lambda da, p=p: c5_common_friends(da, p)))
        elif r < 0.35:
            ops.append(("S1", lambda da, p=p: s1_profile(da, p)))
        elif r < 0.55:
            ops.append(("S2", lambda da, p=p: s2_last_posts(da, p)))
        elif r < 0.75:
            ops.append(("S3", lambda da, p=p: s3_friends(da, p)))
        elif r < 0.90:
            ops.append(("S4", lambda da, q=int(g.choice(posts)): s4_post(da, q)))
        else:
            ev = next(updates)
            ops.append((f"U_{ev['kind']}", lambda da, ev=ev: apply_update(da, ev)))
    return ops
