"""GLogue-lite catalog: pattern-frequency statistics for the CBO (§5.2).

GLogue tracks frequencies of patterns up to k vertices.  This scaled
reproduction keeps the 1-vertex and 1-edge tiers exactly (label counts,
edge-label counts and the derived per-direction expansion factors),
which is what the plan search in :mod:`repro.query.cbo` consumes: it
tries every valid edge order of a pattern with up to
``MAX_EXHAUSTIVE_EDGES`` (6) edges and picks one greedily beyond that.
Selectivity of pushable predicates is estimated with classic System-R
defaults (equality 0.1, range 0.3, IN |list|*eq).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.query import ir
from repro.storage.grin import GraphStore

EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3


@dataclass
class Catalog:
    v_count: dict  # label -> count
    e_count: dict  # edge label -> count
    signatures: dict  # edge label -> (src label, dst label)

    @classmethod
    def from_store(cls, store: GraphStore) -> "Catalog":
        v = {l: store.num_vertices(l) for l in store.vertex_labels()}
        e = {l: store.num_edges(l) for l in store.edge_labels()}
        sig = {l: store.edge_signature(l) for l in store.edge_labels()}
        return cls(v, e, sig)

    # -- estimates ------------------------------------------------------
    def selectivity(self, predicate) -> float:
        s = 1.0
        for a in predicate or ():
            if isinstance(a, ir.Cmp):
                s *= EQ_SELECTIVITY if a.op == "=" else RANGE_SELECTIVITY
            elif isinstance(a, ir.InList):
                s *= min(1.0, EQ_SELECTIVITY * len(a.values))
            else:  # ColEq / Raw: unknown, assume range-ish
                s *= RANGE_SELECTIVITY
        return s

    def vertex_card(self, label: str, predicate=()) -> float:
        return max(1.0, self.v_count.get(label, 1)) * self.selectivity(predicate)

    def expand_factor(self, edge_label: str, direction: str) -> float:
        """Average fan-out of one traversal step along ``edge_label``."""
        m = max(1.0, float(self.e_count.get(edge_label, 1)))
        sl, dl = self.signatures[edge_label]
        out_f = m / max(1.0, self.v_count.get(sl, 1))
        in_f = m / max(1.0, self.v_count.get(dl, 1))
        if direction == "out":
            return out_f
        if direction == "in":
            return in_f
        return out_f + in_f
