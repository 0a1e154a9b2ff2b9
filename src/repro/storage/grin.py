"""GRIN — unified Graph Retrieval INterface (paper §4.1).

The paper defines GRIN as a C-language interface whose *traits*
(topology / property / partition / index / predicate / common) let any
execution engine run unchanged on any storage backend that provides the
traits it needs.  Here GRIN is a Python ABC over Spark DataFrames: each
backend class declares its trait set as ``TRAITS``, and the engines (Gaia, HiActor, GRAPE,
GraphLearn) are written once against :class:`GraphStore` only —
reproducing the architectural property measured in Exp-1.

Handles in the C API (VERTEX_LIST, ADJ_LIST, ...) become DataFrames:

* ``vertices(label)``  — VERTEX_LIST with properties
* ``edges(label)``     — EDGE_LIST with properties
* ``adjacency(dir)``   — ADJ_LIST over all edge labels (by default the
  union of the ``edges`` reads; indexed backends keep it pre-partitioned)
* ``predicate=``       — predicate pushdown (SQL string) when the
  backend advertises :attr:`Trait.PREDICATE_PUSHDOWN`; otherwise the
  *caller* must filter (GRIN lets backends refuse a trait).
"""
from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from functools import reduce

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class Trait(enum.Flag):
    """GRIN capability categories (paper Fig. 4, left side)."""

    TOPOLOGY = enum.auto()  # vertices/edges/adjacency traversal
    PROPERTY = enum.auto()  # labeled property access
    PARTITION = enum.auto()  # partitioned (distributed) representation
    INDEX = enum.auto()  # internal-id / sorted-adjacency indices
    PREDICATE_PUSHDOWN = enum.auto()  # storage-level filtering
    MUTABLE = enum.auto()  # accepts writes
    VERSIONED = enum.auto()  # MVCC snapshots


class GraphStore(ABC):
    """Engine-facing view of one graph in one storage backend."""

    name: str = "abstract"
    TRAITS: Trait  # each backend declares its capability set once

    def traits(self) -> Trait:
        """Capability set this backend provides: its class's ``TRAITS``."""
        return self.TRAITS

    def supports(self, t: Trait) -> bool:
        return bool(self.traits() & t)

    # -- schema ---------------------------------------------------------
    @abstractmethod
    def vertex_labels(self) -> list[str]: ...

    @abstractmethod
    def edge_labels(self) -> list[str]: ...

    @abstractmethod
    def edge_signature(self, label: str) -> tuple[str, str]:
        """(src vertex label, dst vertex label) of an edge label."""

    # -- retrieval ------------------------------------------------------
    @abstractmethod
    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        """VERTEX_LIST of one label: columns ``id`` + properties."""

    @abstractmethod
    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        """EDGE_LIST of one label: columns ``src``, ``dst`` + properties."""

    def adjacency(self, *, direction: str = "out") -> DataFrame:
        """ADJ_LIST over all edge labels: ``src``, ``dst``, ``label``.

        ``direction='in'`` swaps endpoints so ``src`` is always the
        traversal origin.  The default is the union of the per-label
        ``edges`` reads; backends that keep a cached, src-clustered
        frame (CSR/CSC analog) override it.
        """
        parts = [
            self.edges(l).select("src", "dst", F.lit(l).alias("label"))
            for l in self.edge_labels()
        ]
        if not parts:  # a graph without edge labels
            empty = "src long, dst long, label string"
            parts = [SparkSession.active().createDataFrame([], empty)]
        out = reduce(DataFrame.unionByName, parts)
        if direction == "in":
            out = out.selectExpr("dst as src", "src as dst", "label")
        return out

    # -- statistics (used by the CBO catalog) ---------------------------
    def num_vertices(self, label: str | None = None) -> int:
        if label is not None:
            return self.vertices(label).count()
        return sum(self.vertices(l).count() for l in self.vertex_labels())

    def num_edges(self, label: str | None = None) -> int:
        if label is not None:
            return self.edges(label).count()
        return sum(self.edges(l).count() for l in self.edge_labels())


def require(store: GraphStore, needed: Trait) -> None:
    """Engine-side trait negotiation: raise if the backend lacks a trait.

    Mirrors GRIN's 'an engine may require or optionally support some
    traits' — engines call this once at setup, making incompatible
    (engine, backend) pairs fail fast instead of silently misbehaving.
    """
    missing = needed & ~store.traits()
    if missing:
        raise ValueError(
            f"store {store.name!r} lacks required GRIN traits: {missing!r}"
        )


_ARROW_DDL = {
    pa.int64(): "long",
    pa.int32(): "int",
    pa.float64(): "double",
    pa.float32(): "float",
    pa.string(): "string",
    pa.large_string(): "string",
    pa.bool_(): "boolean",
    # an empty object column: pandas holds strings as objects
    pa.null(): "string",
}


def arrow_to_ddl(schema: pa.Schema) -> str:
    """Spark DDL of an Arrow schema (the store column types only)."""
    cols = []
    for f in schema:
        t = _ARROW_DDL.get(f.type)
        if t is None:
            raise TypeError(f"unsupported column type {f.type} for {f.name}")
        cols.append(f"{f.name} {t}")
    return ", ".join(cols)


def to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """A store's pandas frame as a Spark frame.

    Spark infers the schema from the rows, so an empty frame (an edge
    label whose every edge was deleted, a graph without edges) gets one
    derived from its pandas dtypes instead.
    """
    if len(pdf):
        return spark.createDataFrame(pdf)
    schema = pa.Schema.from_pandas(pdf, preserve_index=False)
    return spark.createDataFrame(pdf, schema=arrow_to_ddl(schema))
