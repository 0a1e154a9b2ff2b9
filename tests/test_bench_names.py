"""The program names that the benchmark under ``flexbench/`` reads.

``flexbench/tracing.py`` patches the functions in its ``TARGETS`` by
module, owner and name, and its GART hooks read a snapshot's store and
delta cache; ``flexbench/wl_interactive.footprint`` reads the OLTP
indexes by attribute.  A rename in the program breaks the benchmark
without failing any other test, so the names are checked here.
"""
import importlib.util
from pathlib import Path

import pandas as pd

from repro.datasets import snb
from repro.query.hiactor import HiActorEngine
from repro.query.snb_interactive import IndexedAccess
from repro.storage.gart import GartStore

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
    tracing = _tracing()
    pg = snb.snb_graph(n_persons=60, seed=3)
    da, engine = IndexedAccess(pg), HiActorEngine(pg)
    for idx in [*da._adj.values(), *engine.adj.values()]:
        assert idx.keys.nbytes >= 0 and idx.nbrs.nbytes >= 0
        assert all(a.nbytes >= 0 for a in idx.props.values())
    for df in [*da._v.values(), *engine.vprops.values()]:
        assert isinstance(df, pd.DataFrame)
    snap = GartStore(spark, pg, eager=False).snapshot()
    before = tracing._delta_len((snap,))
    snap.edges("KNOWS")  # memoises this version's delta
    assert tracing._delta_miss((snap,), None, before) == 1
