"""LDBC SNB Interactive workload, scaled (Exp-2b).

The paper reports official audit results: HiActor-based GraphScope Flex
vs TuGraph on SNB-300 — 14 complex reads, 7 short reads, 8 updates,
8.92× average latency advantage and 2.45× throughput.

Scaled reproduction: a representative subset of each class (C1–C5,
S1–S4, U1–U3) on the SNB-lite schema.  Every query is written ONCE
against an access path with single-vertex and batch reads (the
neighbours of many vertices, properties of many vertices, so the
complex reads touch each hop once instead of once per vertex) and two
writes.  Two access paths supply it:

* :class:`~repro.query.hiactor.HiActorEngine` — the OLTP engine itself:
  sorted adjacency read a frontier at a time (one batch gather) and
  id-sorted property tables looked up by position (actor-shard state).
  :class:`IndexedAccess` is that engine under the name Exp-2b uses;
* :class:`ScanAccess` — the baseline stand-in: identical data held as
  raw arrays, every lookup a full scan (a graph store without
  adjacency indexes — the architectural gap our TuGraph stand-in
  models; see DESIGN.md §5).

Both accept the same update events, so correctness tests can diff the
two implementations query-by-query after an update stream.
"""
from __future__ import annotations

import numpy as np

from repro.datasets.property_graph import PropertyGraph
from repro.query.hiactor import HiActorEngine, find_rows
from repro.storage.csr import gather_segments


def _row(cols: dict[str, np.ndarray], pos: int) -> dict:
    return {c: a[pos : pos + 1].tolist()[0] for c, a in cols.items()}


class IndexedAccess(HiActorEngine):
    """Exp-2b's indexed side: the HiActor engine's own access methods."""

    # Read-only aliases of ``adj`` and ``vprops``: the benchmark's
    # ``flexbench/wl_interactive.footprint`` reads these names, and the
    # benchmark does not change along with this module.
    @property
    def _adj(self):
        return self.adj

    @property
    def _v(self):
        return self.vprops


class ScanAccess:
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

    def add_vertex(self, label, row):
        # copy-on-write + atomic dict swap (see HiActorEngine)
        old = self._v[label]
        self._v[label] = {c: np.append(a, row[c]) for c, a in old.items()}

    def add_edge(self, elabel, src, dst, props):
        # copy-on-write + atomic dict swap (see HiActorEngine)
        old = self._e[elabel]
        new = {
            "src": np.append(old["src"], src),
            "dst": np.append(old["dst"], dst),
        }
        for c in old:
            if c not in ("src", "dst"):
                new[c] = np.append(old[c], props.get(c, 0))
        self._e[elabel] = new


Access = HiActorEngine | ScanAccess


# ---------------------------------------------------------------------------
# the workload: complex (C), short (S), update (U) queries
# ---------------------------------------------------------------------------
def _two_hop(da: Access, person: int) -> np.ndarray:
    """Friends and friends-of-friends of ``person``, without ``person``."""
    f1 = da.neighbors(person, "KNOWS", "out")
    _, f2 = da.neighbors_batch(f1, "KNOWS", "out")
    return np.setdiff1d(np.concatenate([f1, f2]), [person])


def c1_friends_in_city(da: Access, person: int, city: str, k: int = 10):
    """Friends and friends-of-friends living in ``city`` (IC1-style)."""
    cand = _two_hop(da, person)
    hit, v = da.vertex_props("Person", cand, ["city", "name"])
    here = v["city"] == city
    ids, names = cand[hit][here], v["name"][here]
    top = np.argsort(names, kind="stable")[:k]  # ties stay in id order
    return list(zip(ids[top].tolist(), names[top].tolist()))


def c2_recent_posts(da: Access, person: int, max_date: int, k: int = 10):
    """Latest posts created by friends, up to ``max_date`` (IC2-style)."""
    f1 = da.neighbors(person, "KNOWS", "out")
    row, posts = da.neighbors_batch(f1, "CREATED", "out")
    hit, v = da.vertex_props("Post", posts, ["creationDate"])
    dates = v["creationDate"]
    ok = dates <= max_date
    rows = zip(dates[ok].tolist(), posts[hit][ok].tolist(), f1[row][hit][ok].tolist())
    return sorted(rows, reverse=True)[:k]


def c3_city_counts(da: Access, person: int):
    """City histogram of the 2-hop friendship neighborhood (IC3-style)."""
    _, v = da.vertex_props("Person", _two_hop(da, person), ["city"])
    cities, counts = np.unique(v["city"], return_counts=True)
    return dict(zip(cities.tolist(), counts.tolist()))


def c4_liked_length_avg(da: Access, person: int):
    """Average length of posts liked by friends (IC4-flavoured)."""
    f1 = da.neighbors(person, "KNOWS", "out")
    _, posts = da.neighbors_batch(f1, "LIKES", "out")
    _, v = da.vertex_props("Post", posts, ["length"])
    n = len(v["length"])
    return int(v["length"].sum()) / n if n else 0.0


def c5_common_friends(da: Access, person: int, k: int = 5):
    """2-hop candidates ranked by number of common friends (IC5-ish)."""
    f1 = np.unique(da.neighbors(person, "KNOWS", "out"))
    _, g = da.neighbors_batch(f1, "KNOWS", "out")
    g = g[(g != person) & ~np.isin(g, f1)]
    ids, counts = np.unique(g, return_counts=True)
    top = np.lexsort((ids, -counts))[:k]
    return list(zip(ids[top].tolist(), counts[top].tolist()))


def s1_profile(da: Access, person: int):
    return da.vertex("Person", person)


def s2_last_posts(da: Access, person: int, k: int = 5):
    posts = da.neighbors(person, "CREATED", "out")
    hit, v = da.vertex_props("Post", posts, ["creationDate"])
    top = np.argsort(-v["creationDate"], kind="stable")[:k]
    return [da.vertex("Post", p) for p in posts[hit][top].tolist()]


def s3_friends(da: Access, person: int):
    nbrs, dates = da.neighbors_with_prop(person, "KNOWS", "out", "creationDate")
    return sorted(zip(nbrs.tolist(), dates.tolist()))


def s4_post(da: Access, post: int):
    return da.vertex("Post", post)


def apply_update(da: Access, ev: dict):
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
