"""The program names that the benchmark under ``flexbench/`` reads.

``flexbench/tracing.py`` patches the functions in its ``TARGETS`` by
module, owner and name, and its GART hooks read a snapshot's store and
delta cache; ``flexbench/wl_interactive.footprint`` reads the OLTP
indexes by attribute.  A rename in the program breaks the benchmark
without failing any other test, so the names are checked here.
"""
import importlib.util
from collections import Counter
from pathlib import Path

import pandas as pd

from repro.datasets import snb
from repro.query.hiactor import HiActorEngine
from repro.query.snb_interactive import IndexedAccess, apply_update
from repro.storage.gart import GartStore

_EVENT = {"LIKES": "add_like", "KNOWS": "add_knows"}  # the updates' edge labels
TRACING = Path(__file__).resolve().parent.parent / "flexbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("flexbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracing_targets_resolve():
    tracing = _tracing()
    for module, owner, attr, *_ in tracing.TARGETS:
        assert hasattr(tracing._resolve(module, owner), attr), (module, owner, attr)


def test_footprint_and_tracer_attributes(spark):
    """After writes, the arrays and frames ``footprint`` reads hold every
    live entry and nothing more, so ``cached_mb`` counts what a write
    appended and no spare capacity."""
    tracing = _tracing()
    pg = snb.snb_graph(n_persons=60, seed=3)
    da, engine = IndexedAccess(pg), HiActorEngine(pg)
    events = snb.update_stream(pg, n_updates=900, seed=5)  # ~300 a kind: past a full fold
    for ev in events:
        apply_update(da, ev)
        apply_update(engine, ev)
    kinds = Counter(ev["kind"] for ev in events)
    edges = {l: len(p) + kinds[_EVENT.get(l)] for l, p in pg.edges.items()}
    rows = {l: len(p) + kinds["add_person" if l == "Person" else None] for l, p in pg.vertices.items()}
    for indexes in (da._adj, engine.adj):  # what footprint reads
        for (label, _), idx in indexes.items():
            live = edges[label]
            assert idx.keys.nbytes == live * idx.keys.itemsize
            assert idx.nbrs.nbytes == live * idx.nbrs.itemsize
            assert all(a.nbytes == live * a.itemsize for a in idx.props.values())
    for frames in (da._v, engine.vprops):
        for label, df in frames.items():
            assert isinstance(df, pd.DataFrame) and len(df) == rows[label]
    snap = GartStore(spark, pg, eager=False).snapshot()
    before = tracing._delta_len((snap,))
    snap.edges("KNOWS")  # memoises this version's delta
    assert tracing._delta_miss((snap,), None, before) == 1
