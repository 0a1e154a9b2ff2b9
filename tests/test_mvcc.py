"""GART and the LiveGraph baseline against one pandas model of the MVCC log.

Both stores take the same random insert, delete and compact sequence,
and every written version is read back as a snapshot.  The model keeps
the live rows in insertion order: an insert appends its rows, a delete
removes every live row of each key.  GART returns every live row
(duplicate keys keep their multiplicity); LiveGraph returns one row per
live key, with the properties of its latest insert.
"""
import re
from functools import reduce

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.datasets.property_graph import PropertyGraph
from repro.storage.gart import GartStore, LiveGraphStore

N = 3  # vertex ids 0..N-1: few keys, so writes often hit live keys
BASE = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "w": [0.0, 1.0, 2.0]})


def _graph() -> PropertyGraph:
    pg = PropertyGraph()
    pg.add_vertices("V", pd.DataFrame({"id": np.arange(N, dtype=np.int64)}))
    pg.add_edges("E", BASE, src_label="V", dst_label="V")
    return pg


def _keys(df) -> pd.DataFrame:
    return pd.DataFrame(df, columns=["src", "dst"], dtype=np.int64)


_key = st.tuples(st.integers(0, N - 1), st.integers(0, N - 1))
_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(_key, min_size=1, max_size=3, unique=True)),
    st.tuples(st.just("delete"), st.lists(_key, max_size=3, unique=True)),
    st.tuples(st.just("compact"), st.just([])),
)


def _rows(df) -> list:
    return sorted(map(tuple, df[["src", "dst", "w"]].itertuples(index=False)))


def _read(store, versions) -> dict:
    """version -> sorted (src, dst, w) rows of its snapshot, in one Spark job."""
    reads = [store.snapshot(v).edges("E").withColumn("v", F.lit(v)) for v in versions]
    got = {v: [] for v in versions}
    for r in reduce(DataFrame.unionByName, reads).collect():
        got[r.v].append((r.src, r.dst, r.w))
    return {v: sorted(rows) for v, rows in got.items()}


@settings(derandomize=True, max_examples=10, deadline=None)
@given(st.lists(_op, min_size=1, max_size=5))
def test_snapshots_match_model(spark, ops):
    gart, lg = GartStore(spark, _graph(), eager=False), LiveGraphStore(spark, _graph(), eager=False)
    live = BASE.copy()
    want = {0: live}  # version -> live rows, in insertion order
    for kind, keys in ops:
        if kind == "compact":
            gart.compact()
            lg.compact()
            continue
        if kind == "insert":
            rows = _keys(keys).assign(w=[10.0 * (gart.write_version + 1) + i for i in range(len(keys))])
            v = gart.insert_edges("E", rows)
            assert lg.insert_edges("E", rows) == v
            live = pd.concat([live, rows], ignore_index=True)
        else:
            v = gart.delete_edges("E", _keys(keys))
            assert lg.delete_edges("E", _keys(keys)) == v
            gone = pd.MultiIndex.from_frame(live[["src", "dst"]]).isin(
                pd.MultiIndex.from_frame(_keys(keys))
            )
            live = live[~gone]
        want[v] = live
    kept = [v for v in want if v >= gart._base_version]
    for v in want.keys() - kept:  # compacted away, as in GART
        with pytest.raises(ValueError):
            gart.snapshot(v)
    got_gart, got_lg = _read(gart, kept), _read(lg, list(want))
    for v, rows in want.items():
        if v in got_gart:
            assert got_gart[v] == _rows(rows), ("gart", v)
        latest = rows.drop_duplicates(["src", "dst"], keep="last")
        assert got_lg[v] == _rows(latest), ("livegraph", v)
    for v, rows in want.items():  # the pandas view, at every version
        assert _rows(gart.to_property_graph(v).edges["E"]) == _rows(rows), ("gart pg", v)
        latest = rows.drop_duplicates(["src", "dst"], keep="last")
        assert _rows(lg.to_property_graph(v).edges["E"]) == _rows(latest), ("livegraph pg", v)
    for store in (gart, lg):
        for direction in ("out", "in"):
            got = sorted(map(tuple, store.adjacency(direction=direction).select("src", "dst").collect()))
            pairs = live[["src", "dst"]] if direction == "out" else live[["dst", "src"]]
            if store is lg:
                pairs = pairs.drop_duplicates()
            assert got == sorted(map(tuple, pairs.itertuples(index=False))), (store.name, direction)


@pytest.mark.parametrize("cls", [GartStore, LiveGraphStore])
def test_write_to_unknown_label_takes_no_version(spark, cls):
    store = cls(spark, _graph(), eager=False)
    v = store.insert_edges("E", pd.DataFrame({"src": [2], "dst": [1], "w": [7.5]}))
    before = _rows(store.snapshot().edges("E").toPandas())
    with pytest.raises(KeyError):
        store.insert_edges("X", pd.DataFrame({"src": [0], "dst": [1], "w": [1.0]}))
    with pytest.raises(KeyError):
        store.delete_edges("X", _keys([(0, 1)]))
    assert store.write_version == v
    assert _rows(store.snapshot().edges("E").toPandas()) == before


def test_livegraph_edges_carry_inserted_properties(spark):
    store = LiveGraphStore(spark, _graph())
    v0 = store.write_version
    v1 = store.insert_edges("E", pd.DataFrame({"src": [2], "dst": [1], "w": [7.5]}))
    got = {(r.src, r.dst): r.w for r in store.edges("E").collect()}
    assert got[(2, 1)] == 7.5
    assert (2, 1) not in {(r.src, r.dst) for r in store.snapshot(v0).edges("E").collect()}
    assert store.snapshot(v1).edges("E", predicate="w > 7").count() == 1


def _plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def test_scan_cost_structure(spark):
    """LiveGraph resolves version chains with an aggregate on the edge key
    in every scan; GART's snapshot read, with a delta and tombstones it
    has not compacted, has no aggregate at all."""
    gart, lg = GartStore(spark, _graph()), LiveGraphStore(spark, _graph())
    for store in (gart, lg):
        store.insert_edges("E", pd.DataFrame({"src": [2], "dst": [1], "w": [7.5]}))
        store.delete_edges("E", _keys([(0, 1)]))
    assert re.search(r"Aggregate\(keys=\[src#\d+L, dst#\d+L\]", _plan(lg.edges("E")))
    plan = _plan(gart.edges("E"))
    assert "LeftAnti" in plan and "Union" in plan  # tombstones and delta are read
    assert "Aggregate" not in plan
