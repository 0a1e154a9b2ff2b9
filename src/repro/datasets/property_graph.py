"""In-driver representation of a labeled property graph (LPG).

A :class:`PropertyGraph` is the exchange format between dataset
generators and storage backends: per-label pandas DataFrames for
vertices (``id`` + properties) and edges (``src``, ``dst`` +
properties), plus the (src_label, dst_label) signature of every edge
label.  Vertex ids are globally unique int64s across labels (each
label owns a disjoint id range), mirroring the internal-ID assignment
that Vineyard performs in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd


@dataclass
class PropertyGraph:
    """Labeled property graph held as per-label pandas frames."""

    vertices: dict[str, pd.DataFrame] = field(default_factory=dict)
    edges: dict[str, pd.DataFrame] = field(default_factory=dict)
    # edge label -> (source vertex label, destination vertex label)
    edge_signatures: dict[str, tuple[str, str]] = field(default_factory=dict)

    def add_vertices(self, label: str, pdf: pd.DataFrame) -> None:
        if "id" not in pdf.columns:
            raise ValueError(f"vertex frame for {label!r} must have an 'id' column")
        self.vertices[label] = pdf.reset_index(drop=True)

    def add_edges(
        self, label: str, pdf: pd.DataFrame, *, src_label: str, dst_label: str
    ) -> None:
        if not {"src", "dst"} <= set(pdf.columns):
            raise ValueError(f"edge frame for {label!r} must have 'src' and 'dst'")
        self.edges[label] = pdf.reset_index(drop=True)
        self.edge_signatures[label] = (src_label, dst_label)

    # -- flattened views ------------------------------------------------
    def all_vertices(self) -> pd.DataFrame:
        """(id, label) over every vertex label."""
        parts = [
            pdf[["id"]].assign(label=label) for label, pdf in self.vertices.items()
        ]
        return pd.concat(parts, ignore_index=True)

    def all_edges(self) -> pd.DataFrame:
        """(src, dst, label) over every edge label."""
        parts = [
            pdf[["src", "dst"]].assign(label=label)
            for label, pdf in self.edges.items()
        ]
        if not parts:  # a graph without edge labels
            return pd.DataFrame(
                {"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64"),
                 "label": pd.Series(dtype=object)}
            )
        return pd.concat(parts, ignore_index=True)

    @property
    def num_vertices(self) -> int:
        return sum(len(p) for p in self.vertices.values())

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.edges.values())

    def validate(self) -> None:
        """Check id uniqueness and referential integrity (dev aid)."""
        ids = self.all_vertices()
        if ids.id.duplicated().any():
            raise AssertionError("duplicate vertex ids across labels")
        by_label = {l: set(p.id) for l, p in self.vertices.items()}
        for elabel, pdf in self.edges.items():
            sl, dl = self.edge_signatures[elabel]
            if not set(pdf.src).issubset(by_label[sl]):
                raise AssertionError(f"{elabel}: dangling src (expected {sl})")
            if not set(pdf.dst).issubset(by_label[dl]):
                raise AssertionError(f"{elabel}: dangling dst (expected {dl})")
