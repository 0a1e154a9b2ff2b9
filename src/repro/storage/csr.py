"""Static CSR stores — Spark-level and numpy-level.

Two artifacts live here:

* :class:`StaticCSRStore` — the *static graph storage* baseline of
  Exp-1b: an immutable, src-clustered, cached edge frame.  The paper
  uses it as the upper bound on dynamic-store scan throughput.
* :class:`NumpyCSR` — an indptr/indices CSR held in driver memory, the
  substrate for the learning samplers (the paper's in-memory sampling
  servers) and the numpy "GPU" kernels.

:func:`gather_segments` is the batch gather shared by every driver-local
adjacency: ``NumpyCSR.neighbors_batch`` here and HiActor's sorted-key
index (:mod:`repro.query.hiactor`), which the SNB-interactive queries
and the fraud check read through.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.storage.grin import GraphStore, Trait


class StaticCSRStore(GraphStore):
    """Immutable simple-graph store: one cached, src-clustered edge frame."""

    name = "csr"
    TRAITS = Trait.TOPOLOGY | Trait.PARTITION | Trait.INDEX
    _LABEL = "_edge"

    def __init__(self, spark: SparkSession, edges: pd.DataFrame, *, eager: bool = True):
        self._n_vertices = int(
            pd.concat([edges.src, edges.dst]).nunique()
        )
        base = spark.createDataFrame(edges[["src", "dst"]].assign(label=self._LABEL))
        self._adj = base.repartition("src").sortWithinPartitions("src").cache()
        ids = pd.DataFrame({"id": pd.concat([edges.src, edges.dst]).unique()})
        self._v = spark.createDataFrame(ids).cache()
        if eager:
            self._adj.count()
            self._v.count()

    def vertex_labels(self) -> list[str]:
        return ["_vertex"]

    def edge_labels(self) -> list[str]:
        return [self._LABEL]

    def edge_signature(self, label: str) -> tuple[str, str]:
        return ("_vertex", "_vertex")

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        return self._v.filter(predicate) if predicate else self._v

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._adj.select("src", "dst")
        return df.filter(predicate) if predicate else df

    def adjacency(self, *, direction: str = "out") -> DataFrame:
        if direction == "out":
            return self._adj
        return self._adj.selectExpr("dst as src", "src as dst", "label")


def gather_segments(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the index ranges ``[lo[i], hi[i])`` in one pass.

    Returns ``(row, take)``: ``take`` lists every index of every range in
    order and ``row[j]`` is the range ``take[j]`` came from — the
    vectorised form of ``concatenate([arange(l, h) for l, h in ...])``,
    built with repeat/cumsum arithmetic and no Python loop.
    """
    counts = hi - lo
    row = np.repeat(np.arange(len(counts)), counts)
    take = np.arange(len(row)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return row, take


class NumpyCSR:
    """Driver-memory CSR over one edge label (src-sorted indptr/indices).

    ``neighbors(v)`` is an O(deg) slice; ``neighbors_batch`` vectorizes
    over a frontier.  Vertex ids must be dense in ``[0, n)`` — callers
    relabel with :func:`repro.datasets.graphs.compact_ids`.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray, n_vertices: int):
        order = np.argsort(src, kind="stable")
        self.n = int(n_vertices)
        self.indices = np.asarray(dst, dtype=np.int64)[order]
        counts = np.bincount(np.asarray(src, dtype=np.int64), minlength=self.n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.src_sorted = np.asarray(src, dtype=np.int64)[order]

    @classmethod
    def from_edges(cls, edges: pd.DataFrame, n_vertices: int | None = None) -> "NumpyCSR":
        n = n_vertices or int(max(edges.src.max(), edges.dst.max()) + 1)
        return cls(edges.src.to_numpy(), edges.dst.to_numpy(), n)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbors_batch(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of every vertex in ``frontier``
        (one coalesced gather, see :func:`gather_segments`)."""
        frontier = np.asarray(frontier, dtype=np.int64)
        _, take = gather_segments(self.indptr[frontier], self.indptr[frontier + 1])
        return self.indices[take]

    def reverse(self) -> "NumpyCSR":
        """CSC analog: CSR of the transposed graph.

        Memoized — CSR and CSC are both precomputed store indices
        (Vineyard ships both, paper §4.2), not per-query work.
        """
        if getattr(self, "_rev", None) is None:
            self._rev = NumpyCSR(self.indices, self.src_sorted, self.n)
        return self._rev
