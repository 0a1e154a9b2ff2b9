"""LiveGraph-analog baseline: dynamic store with per-record version chains.

The comparison point of Exp-1b.  LiveGraph (VLDB'20) stores adjacency
as append-only logs where each logical edge may have multiple version
records; a scan must resolve, per (src, dst), the latest visible record
and drop deleted ones.  We reproduce that *reader cost structure*: the
whole MVCC log is one un-compacted Spark frame, and every scan pays a
shuffle (groupBy over edge keys with a max-version resolve) — in
contrast to GART, whose compacted base makes scans nearly shuffle-free.

The write API matches :class:`repro.storage.gart.GartStore` so the
Exp-1b harness can drive both stores with the identical update stream.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.datasets.property_graph import PropertyGraph
from repro.storage.grin import GraphStore, Trait

LIVE = np.iinfo(np.int64).max


class LiveGraphStore(GraphStore):
    """Dynamic store whose scans resolve version chains on the fly."""

    name = "livegraph"
    TRAITS = Trait.TOPOLOGY | Trait.PROPERTY | Trait.MUTABLE | Trait.VERSIONED

    def __init__(self, spark: SparkSession, pg: PropertyGraph, *, eager: bool = True):
        self._spark = spark
        self._signatures = dict(pg.edge_signatures)
        self._v_pdf = {l: p.copy() for l, p in pg.vertices.items()}
        self._write_version = 0
        # op log per label: one row per record version; op=+1 insert, -1 delete
        self._log: dict[str, pd.DataFrame] = {
            l: p[["src", "dst"]].assign(version=np.int64(0), op=np.int64(1))
            for l, p in pg.edges.items()
        }
        self._props: dict[str, pd.DataFrame] = {l: p.copy() for l, p in pg.edges.items()}
        self._log_df: dict[str, DataFrame] = {}
        self._dirty = True
        self._refresh(eager=eager)

    def _refresh(self, *, eager: bool = True) -> None:
        if not self._dirty:
            return
        for df in self._log_df.values():
            df.unpersist()
        # the log is cached (it IS in memory, like LiveGraph) — the cost
        # under test is the per-scan version resolution, not I/O.
        self._log_df = {
            l: self._spark.createDataFrame(log).cache() for l, log in self._log.items()
        }
        if eager:
            for df in self._log_df.values():
                df.count()
        self._dirty = False

    # -- write path (same surface as GartStore) -------------------------
    @property
    def write_version(self) -> int:
        return self._write_version

    def insert_edges(self, label: str, pdf: pd.DataFrame) -> int:
        self._write_version += 1
        rows = pdf[["src", "dst"]].assign(
            version=np.int64(self._write_version), op=np.int64(1)
        )
        self._log[label] = pd.concat([self._log[label], rows], ignore_index=True)
        self._dirty = True
        return self._write_version

    def delete_edges(self, label: str, keys: pd.DataFrame) -> int:
        self._write_version += 1
        rows = keys[["src", "dst"]].assign(
            version=np.int64(self._write_version), op=np.int64(-1)
        )
        self._log[label] = pd.concat([self._log[label], rows], ignore_index=True)
        self._dirty = True
        return self._write_version

    # -- read path ------------------------------------------------------
    def vertex_labels(self) -> list[str]:
        return list(self._v_pdf)

    def edge_labels(self) -> list[str]:
        return list(self._log)

    def edge_signature(self, label: str) -> tuple[str, str]:
        return self._signatures[label]

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._spark.createDataFrame(self._v_pdf[label])
        return df.filter(predicate) if predicate else df

    def _resolved(self, label: str) -> DataFrame:
        """Latest-version resolve: the shuffle every LiveGraph scan pays."""
        self._refresh()
        log = self._log_df[label]
        latest = log.groupBy("src", "dst").agg(
            F.max_by("op", "version").alias("op")
        )
        return latest.filter(F.col("op") == 1).select("src", "dst")

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        live = self._resolved(label)
        props = self._spark.createDataFrame(self._props[label])
        df = live.join(props, on=["src", "dst"], how="left")
        return df.filter(predicate) if predicate else df

    def adjacency(self, *, direction: str = "out") -> DataFrame:
        parts = [
            self._resolved(l).withColumn("label", F.lit(l)) for l in self.edge_labels()
        ]
        out = parts[0]
        for p in parts[1:]:
            out = out.unionByName(p)
        if direction == "in":
            out = out.selectExpr("dst as src", "src as dst", "label")
        return out
