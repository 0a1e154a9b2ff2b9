"""HiActor-analog: high-concurrency OLTP execution of GraphIR (§5.3).

HiActor executes small point-lookup-ish queries on actor shards over
in-memory state — latency is microseconds, throughput comes from many
concurrent actors.  The analog here: a driver-local engine holding

* per-label property tables sorted by vertex id, looked up by position
  (``searchsorted`` on the id column, then a take from the column
  arrays — :class:`_VertexTable`), and
* per-(edge label, direction) adjacency including edge properties
  (:class:`_AdjIndex`): a base sorted by key plus a small append-only
  delta in the same arrays, read a whole frontier at a time with one
  batch gather (:meth:`_AdjIndex.gather`),

built once from any GRIN store's :meth:`to_property_graph` view (the
Vineyard/GART zero-copy sharing path).  It is the only driver-local
OLTP index.  The same physical plans Gaia runs distributed execute
here, each operator vectorised over all rows of the query; tests assert
both engines return identical rows.  Besides plans, the engine serves
point and batch reads and writes (``vertex``, ``neighbors_batch``,
``add_edge``, ...): the SNB-interactive queries
(:mod:`repro.query.snb_interactive`) run on them, and the fraud check
(:mod:`repro.usecases.fraud`) reads the same two structures.

A write is an O(1) amortised append, as in GART's mutable CSR (Shen et
al., USENIX ATC'23) and LiveGraph's edge log (Zhu et al., VLDB'20): it
fills the next spare slot of arrays that successive versions share and
publishes a new table or index whose views end one slot later, so a
reader holding the old one still sees one version.  When the spare
slots run out, the insert folds the delta into a fresh sorted base.
One lock per engine serialises writes; reads take none.  A write is
visible to every later plan and read.  The fraud benchmark's throughput
sweep uses a process pool (true parallelism), the analog of HiActor's
shard-per-core loop.
"""
from __future__ import annotations

import operator
import threading

import numpy as np
import pandas as pd

from repro.datasets.property_graph import PropertyGraph
from repro.query import ir
from repro.storage.csr import gather_segments, stable_argsort


_NO_SLOTS = np.empty(0, dtype=np.intp)  # an empty delta's slots (never written)


def _spare(n: int) -> int:
    """Slots beyond ``n`` live entries that fresh arrays get; the insert
    that allocates them takes one."""
    return max(256, n // 32)


def _put(a: np.ndarray, at: int, value) -> np.ndarray:
    """A copy of ``a`` with ``value`` inserted before position ``at``
    (``np.insert`` for one value, without its argument handling)."""
    out = np.empty(len(a) + 1, dtype=a.dtype)
    out[:at], out[at], out[at + 1 :] = a[:at], value, a[at:]
    return out


class _AdjIndex:
    """Adjacency for one (edge label, direction): a sorted base and an
    append-only delta in the same arrays.

    Slots ``[0, nb)`` are the base, sorted by key; slots ``[nb, n)`` are
    the delta, in arrival order, found through ``_dkeys`` (the delta's
    keys, sorted) and ``_dslots`` (the slot of each, ascending within a
    key).  ``keys``/``nbrs``/``props`` are views of the live slots
    ``[0, n)``, so a key's entries are its base entries, then its delta
    entries, each in arrival order.

    Successive versions share the arrays, and ``_filled`` (shared too)
    counts the slots any of them has written.  :meth:`insert` writes slot
    ``n`` and returns a new index ending at ``n + 1``; this one never
    looks past its own ``n``, so a reader holding it sees one version.
    When slot ``n`` is not free (the arrays are full, or a newer version
    has written it), the insert first folds base and delta into fresh
    arrays sorted by key, with at most ``max(256, n // 32)`` spare slots.
    Inserts into one family of versions must be serialised by the caller.
    """

    def __init__(self, keys: np.ndarray, nbrs: np.ndarray, props: dict[str, np.ndarray]):
        order = stable_argsort(keys)  # no spare slots: the first insert folds
        arrays = (keys[order], nbrs[order], {c: a[order] for c, a in props.items()})
        self._set(arrays, [len(keys)], len(keys), len(keys), arrays[0][:0], _NO_SLOTS)

    def _set(self, arrays: tuple, filled: list[int], n: int, nb: int,
             dkeys: np.ndarray, dslots: np.ndarray) -> None:
        """Make this the version ``[0, n)`` of ``arrays`` (keys, nbrs and
        props buffers) with base ``[0, nb)``."""
        self._arrays, self._filled = arrays, filled
        self.n, self.nb, self._dkeys, self._dslots = n, nb, dkeys, dslots
        kb, vb, pb = arrays
        self._base, self.keys, self.nbrs = kb[:nb], kb[:n], vb[:n]
        self.props = {c: a[:n] for c, a in pb.items()}

    def slots(self, vid: int) -> slice | np.ndarray:
        """Slots of the entries of ``vid``: a slice of the base, or the
        slice's slots followed by the delta's when the delta holds some."""
        lo, hi = self._base.searchsorted(vid, "left"), self._base.searchsorted(vid, "right")
        dlo, dhi = self._dkeys.searchsorted(vid, "left"), self._dkeys.searchsorted(vid, "right")
        if dlo == dhi:
            return slice(lo, hi)
        return np.concatenate([np.arange(lo, hi), self._dslots[dlo:dhi]])

    def neighbors(self, vid: int) -> np.ndarray:
        return self.nbrs[self.slots(vid)]

    def gather(self, vids) -> tuple[np.ndarray, np.ndarray]:
        """Entries of a whole frontier at once.

        Returns ``(row, take)``: ``take`` indexes ``nbrs`` and ``props``,
        and ``row[j]`` is the position in ``vids`` of the id entry
        ``take[j]`` belongs to.  Ids are grouped in frontier order; an id
        listed twice gets its entries twice (join semantics) and an id
        with no entries contributes none.
        """
        vids = np.asarray(vids)
        lo, hi = self._base.searchsorted(vids, "left"), self._base.searchsorted(vids, "right")
        dlo, dhi = self._dkeys.searchsorted(vids, "left"), self._dkeys.searchsorted(vids, "right")
        if not (dhi > dlo).any():  # the frontier has no delta entry
            return gather_segments(lo, hi)
        # each id's base range, extended by its delta count; the overflow
        # past the base range is remapped to the delta's slots
        row, take = gather_segments(lo, hi + dhi - dlo)
        d = take >= hi[row]
        take[d] = self._dslots[take[d] + (dlo - hi)[row[d]]]
        return row, take

    def insert(self, key: int, nbr: int, props: dict) -> _AdjIndex:
        """This index with the entry ``key -> nbr`` appended after the
        entries of ``key`` (a property missing from ``props`` is 0), in
        O(1) amortised time: it goes to slot ``n`` of the shared arrays,
        after a fold when that slot is not free (see the class
        docstring).  ``self`` keeps reading its own version."""
        idx = self if self.n == self._filled[0] < len(self._arrays[0]) else self._fold()
        n, (kb, vb, pb) = idx.n, idx._arrays
        kb[n], vb[n] = key, nbr
        for c, a in pb.items():
            a[n] = props.get(c, 0)
        idx._filled[0] = n + 1
        at = int(idx._dkeys.searchsorted(key, "right"))
        new = object.__new__(_AdjIndex)
        new._set(idx._arrays, idx._filled, n + 1, idx.nb, _put(idx._dkeys, at, key),
                 _put(idx._dslots, at, n))
        return new

    def _fold(self) -> _AdjIndex:
        """This version with base and delta merged into fresh arrays
        sorted by key (a key keeps its entries' order) and spare slots."""
        n, order = self.n, stable_argsort(self.keys)

        def fresh(a: np.ndarray) -> np.ndarray:
            out = np.empty(n + _spare(n), dtype=a.dtype)
            out[:n] = a[order]
            return out

        arrays = (fresh(self.keys), fresh(self.nbrs), {c: fresh(a) for c, a in self.props.items()})
        new = object.__new__(_AdjIndex)
        new._set(arrays, [n], n, n, arrays[0][:0], _NO_SLOTS)
        return new


class _VertexTable:
    """One label's vertex properties, sorted by id and looked up by position.

    ``cols`` are views of the live rows ``[0, n)`` of column arrays: a
    lookup is a ``searchsorted`` on ``cols["id"]`` (:func:`find_rows`)
    and a take from the column arrays.  Successive versions share the
    arrays, and ``_filled`` (shared too) counts the rows any of them has
    written.  :meth:`insert` of an id at or above every id present writes
    row ``n`` in place and returns a new table ending at ``n + 1``; this
    one never looks past its own ``n``, so a reader holding it sees one
    version.  Any other insert (an id inside the range, full arrays, or a
    row ``n`` a newer version has written) copies the rows into fresh
    arrays with at most ``max(256, n // 32)`` spare slots.  Inserts into
    one family of versions must be serialised by the caller.
    """

    def __init__(self, arrays: dict[str, np.ndarray], n: int, filled: list[int]):
        self._arrays, self.n, self._filled = arrays, n, filled
        self.cols = {c: a[:n] for c, a in arrays.items()}

    @classmethod
    def from_frame(cls, pdf: pd.DataFrame) -> _VertexTable:
        pdf = pdf.sort_values("id", kind="stable", ignore_index=True)
        return cls({c: pdf[c].to_numpy() for c in pdf.columns}, len(pdf), [len(pdf)])

    @property
    def frame(self) -> pd.DataFrame:
        """Every live row, as a frame over the column views."""
        return pd.DataFrame(self.cols, copy=False)

    def find(self, vids) -> tuple[np.ndarray, np.ndarray]:
        return find_rows(self.cols["id"], vids)

    def insert(self, row: dict) -> _VertexTable:
        """This table with ``row`` added after the rows of its id."""
        n = self.n
        pos = int(self.cols["id"].searchsorted(row["id"], "right"))
        arrays, filled = self._arrays, self._filled
        if not pos == n == filled[0] < len(arrays["id"]):
            arrays, filled = {}, [n]
            for c, a in self.cols.items():
                b = arrays[c] = np.empty(n + _spare(n), dtype=a.dtype)
                b[:pos], b[pos + 1 : n + 1] = a[:pos], a[pos:]
        for c, b in arrays.items():
            b[pos] = row[c]
        filled[0] = n + 1
        return _VertexTable(arrays, n + 1, filled)


def find_rows(ids: np.ndarray, vids) -> tuple[np.ndarray, np.ndarray]:
    """Positional lookup in a sorted id column.

    Returns ``(pos, hit)``: ``hit`` masks the entries of ``vids`` present
    in ``ids`` and ``pos`` holds their row positions, in ``vids`` order
    (duplicates repeat).
    """
    vids = np.asarray(vids)
    pos = np.searchsorted(ids, vids)
    hit = pos < len(ids)
    hit[hit] = ids[pos[hit]] == vids[hit]
    return pos[hit], hit


class HiActorEngine:
    """In-memory interpreter for physical GraphIR plans, and the access
    path of the SNB-interactive queries over the same structures.

    A write appends to a table or index and swaps the new version into
    ``tables``/``adj`` in one assignment, so a reader that took a
    structure sees one version of it (the benchmarks drive reads and
    updates from a worker pool).  Writers hold ``_write_lock``: the
    read, append and swap of a write are one step for other writers.
    """

    def __init__(self, pg: PropertyGraph):
        self.signatures = dict(pg.edge_signatures)
        self._write_lock = threading.Lock()
        self.tables = {l: _VertexTable.from_frame(p) for l, p in pg.vertices.items()}
        self.adj: dict[tuple[str, str], _AdjIndex] = {}
        for label, pdf in pg.edges.items():
            props = {
                c: pdf[c].to_numpy() for c in pdf.columns if c not in ("src", "dst")
            }
            s, d = pdf.src.to_numpy(), pdf.dst.to_numpy()
            self.adj[(label, "out")] = _AdjIndex(s, d, props)
            self.adj[(label, "in")] = _AdjIndex(d, s, props)

    @property
    def vprops(self) -> dict[str, pd.DataFrame]:
        """Every vertex property, one frame per label (live rows only)."""
        return {l: t.frame for l, t in self.tables.items()}

    # -- point and batch reads -----------------------------------------
    def vertex(self, label: str, vid: int) -> dict | None:
        """Every property of one vertex, or ``None`` when it is absent."""
        t = self.tables[label]
        pos, _ = t.find([vid])
        if not len(pos):
            return None
        return {c: a[pos[0] : pos[0] + 1].tolist()[0] for c, a in t.cols.items()}

    def vertex_props(
        self, label: str, vids, props: list[str]
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Properties of many vertices: ``(hit, cols)`` where ``hit`` masks
        the entries of ``vids`` that exist and ``cols[p]`` holds property
        ``p`` of ``vids[hit]``, in that order."""
        t = self.tables[label]  # one consistent version of the table
        pos, hit = t.find(vids)
        return hit, {c: t.cols[c][pos] for c in props}

    def neighbors(self, vid: int, elabel: str, direction: str) -> np.ndarray:
        if direction == "both":
            return np.concatenate(
                [self.neighbors(vid, elabel, "out"), self.neighbors(vid, elabel, "in")]
            )
        return self.adj[(elabel, direction)].neighbors(vid)

    def neighbors_batch(
        self, vids, elabel: str, direction: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of many vertices (``direction`` "out" or "in"):
        ``(row, nbrs)`` with one entry per edge, ``row`` indexing the
        entry of ``vids`` the edge starts from.  An id listed twice gets
        its edges twice, as in a join; the order of edges is unspecified."""
        idx = self.adj[(elabel, direction)]
        row, take = idx.gather(vids)
        return row, idx.nbrs[take]

    def neighbors_with_prop(
        self, vid: int, elabel: str, direction: str, prop: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbours of one vertex and edge property ``prop`` of each edge."""
        if direction == "both":
            n1, p1 = self.neighbors_with_prop(vid, elabel, "out", prop)
            n2, p2 = self.neighbors_with_prop(vid, elabel, "in", prop)
            return np.concatenate([n1, n2]), np.concatenate([p1, p2])
        idx = self.adj[(elabel, direction)]
        sl = idx.slots(vid)
        return idx.nbrs[sl], idx.props[prop][sl]

    # -- writes ----------------------------------------------------------
    def add_vertex(self, label: str, row: dict) -> None:
        with self._write_lock:
            self.tables[label] = self.tables[label].insert(row)

    def add_edge(self, elabel: str, src: int, dst: int, props: dict) -> None:
        with self._write_lock:
            for d, key, nbr in (("out", src, dst), ("in", dst, src)):
                self.adj[(elabel, d)] = self.adj[(elabel, d)].insert(key, nbr, props)

    # -- plan interpretation -------------------------------------------
    # Between operators a relation is a dict of equal-length column
    # arrays; only the result, joins and Raw predicates build a pandas
    # frame (per-operator frame construction cost more than the work).
    def execute(self, plan) -> pd.DataFrame:
        rel: Rel | None = None
        for op in plan:
            rel = self._apply(rel, op)
        return pd.DataFrame(rel)

    def _vertex_rel(self, label: str, alias: str, predicate) -> Rel:
        t = self.tables[label]
        # INDEX trait fast path: the first id-equality predicate becomes
        # a positional lookup, every other atom a filter
        ids = None
        rest = []
        for a in predicate or ():
            if ids is None and isinstance(a, ir.Cmp) and a.prop in (None, "id") and a.op == "=":
                ids = [a.value]
            elif ids is None and isinstance(a, ir.InList) and a.prop in (None, "id"):
                ids = list(a.values)
            else:
                rest.append(a)
        rows = slice(None) if ids is None else t.find(ids)[0]
        return _filter({f"{alias}_{c}": a[rows] for c, a in t.cols.items()}, rest)

    def _apply(self, rel: Rel | None, op) -> Rel:
        if isinstance(op, ir.Scan):
            new = self._vertex_rel(op.label, op.alias, op.predicate)
            if rel is None:
                return new
            n, m = _nrows(rel), _nrows(new)  # cross product, left-major
            out = {c: a[np.repeat(np.arange(n), m)] for c, a in rel.items()}
            out.update({c: a[np.tile(np.arange(m), n)] for c, a in new.items()})
            return out
        if isinstance(op, ir.ExpandEdge) or isinstance(op, ir.ExpandVertex):
            # fused ExpandVertex keeps the edge properties only for its
            # predicate, under the target alias, and drops them after
            fused = isinstance(op, ir.ExpandVertex)
            ealias = op.alias if fused else op.edge_alias
            dirs = ["out", "in"] if op.direction == "both" else [op.direction]
            src_ids = rel[f"{op.from_alias}_id"]
            parts = []
            for d in dirs:
                idx = self.adj[(op.edge_label, d)]
                row, take = idx.gather(src_ids)
                part = {c: a[row] for c, a in rel.items()}
                part[f"{op.alias}_id" if fused else f"{ealias}_nbr"] = idx.nbrs[take]
                for c, arr in idx.props.items():
                    part[f"{ealias}_{c}"] = arr[take]
                parts.append(part)
            out = parts[0] if len(parts) == 1 else {
                c: np.concatenate([p[c] for p in parts]) for c in parts[0]
            }
            out = _filter(out, op.predicate or ())
            if fused:
                for c in idx.props:
                    del out[f"{ealias}_{c}"]
            return out
        if isinstance(op, ir.GetVertex):
            # take only the matched vertex rows (an inner join on id)
            nbr = f"{op.edge_alias}_nbr"
            t = self.tables[op.label]
            pos, hit = t.find(rel[nbr])
            out = {c: a[hit] for c, a in rel.items() if c != nbr}
            for c, a in t.cols.items():
                out[f"{op.alias}_{c}"] = a[pos]
            return _filter(out, op.predicate or ())
        if isinstance(op, ir.Join):
            left = self.execute(op.left)
            right = self.execute(op.right)
            keys = sorted(set(left.columns) & set(right.columns))
            joined = left.merge(right, on=keys)
            return {c: joined[c].to_numpy() for c in joined.columns}
        if isinstance(op, ir.Select):
            return _filter(rel, op.predicate)
        if isinstance(op, ir.Project):
            out = {e.name: rel[e.ref.column] for e in op.exprs}
            if op.distinct:  # first occurrence of each row, in order
                out = _take(out, _group_codes(list(out.values()))[1])
            return out
        if isinstance(op, ir.GroupBy):
            return _groupby(rel, op)
        if isinstance(op, ir.OrderBy):
            keys = [_sort_key(rel[n], asc) for n, asc in op.keys]
            return _take(rel, np.lexsort(keys[::-1]))  # stable, first key major
        if isinstance(op, ir.Limit):
            return {c: a[: op.n] for c, a in rel.items()}
        if isinstance(op, ir.Count):
            return {op.name: np.array([_nrows(rel)])}
        raise TypeError(f"unexecutable op {op!r}")


Rel = dict[str, np.ndarray]


def _nrows(rel: Rel) -> int:
    return len(next(iter(rel.values())))


def _take(rel: Rel, rows: np.ndarray) -> Rel:
    return {c: a[rows] for c, a in rel.items()}


def _filter(rel: Rel, atoms) -> Rel:
    """Rows of ``rel`` satisfying every predicate atom."""
    if not atoms:
        return rel
    keep = np.ones(_nrows(rel), dtype=bool)
    for a in atoms:
        keep &= _eval_atom(rel, a)
    return _take(rel, keep)


def _eval_atom(rel: Rel, a) -> np.ndarray:
    if isinstance(a, ir.Cmp):
        col = rel[f"{a.alias}_{a.prop if a.prop is not None else 'id'}"]
        return _CMP[a.op](col, a.value)
    if isinstance(a, ir.InList):
        col = rel[f"{a.alias}_{a.prop if a.prop is not None else 'id'}"]
        return pd.Series(col).isin(a.values).to_numpy()
    if isinstance(a, ir.ColEq):
        return _CMP[a.op](rel[a.left.column], rel[a.right.column])
    if isinstance(a, ir.Raw):
        return pd.DataFrame(rel).eval(_sql_to_pandas(a.sql)).to_numpy(dtype=bool)
    raise TypeError(f"bad atom {a!r}")


_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _sql_to_pandas(sql: str) -> str:
    """Best-effort SQL -> pandas.eval syntax for Raw atoms."""
    out = sql.replace("<>", "!=")
    # single '=' (not part of <=, >=, !=, ==) -> '=='
    import re as _re

    out = _re.sub(r"(?<![<>!=])=(?!=)", "==", out)
    out = _re.sub(r"\bAND\b", "and", out, flags=_re.IGNORECASE)
    out = _re.sub(r"\bOR\b", "or", out, flags=_re.IGNORECASE)
    return out


def _group_codes(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group number of every row over the key columns ``cols`` (groups
    numbered in order of first appearance, missing values a group of
    their own) and the first row of each group."""
    codes = np.zeros(len(cols[0]), dtype=np.int64)
    for c in cols:
        k, uniq = pd.factorize(c, use_na_sentinel=False)
        codes = pd.factorize(codes * len(uniq) + k)[0]
    return codes, np.unique(codes, return_index=True)[1]


def _sort_key(col: np.ndarray, asc: bool) -> np.ndarray:
    """Integer rank of every value for ``np.lexsort``; missing values
    last in either direction, as in ``DataFrame.sort_values``."""
    r, uniq = pd.factorize(col, sort=True)
    key = r if asc else len(uniq) - 1 - r
    key[r < 0] = len(uniq)
    return key


_AGG = {"count": "count", "sum": "sum", "avg": "mean", "min": "min", "max": "max"}


def _groupby(rel: Rel, op: ir.GroupBy) -> Rel:
    if not op.keys:  # global aggregation -> one row
        return {
            a.name: np.array([
                _nrows(rel) if a.fn == "count" and a.ref is None
                else getattr(pd.Series(rel[a.ref.column]), _AGG[a.fn])()
            ])
            for a in op.aggs
        }
    codes, first = _group_codes([rel[e.ref.column] for e in op.keys])
    out = {e.name: rel[e.ref.column][first] for e in op.keys}
    for a in op.aggs:
        if a.fn == "count" and a.ref is None:
            out[a.name] = np.bincount(codes, minlength=len(first))
        elif a.fn == "count":
            out[a.name] = np.bincount(
                codes[pd.notna(rel[a.ref.column])], minlength=len(first)
            )
        else:  # pandas' per-group semantics (missing values skipped)
            g = pd.Series(rel[a.ref.column]).groupby(codes)
            out[a.name] = getattr(g, _AGG[a.fn])().to_numpy()
    return out
