"""GART-analog: mutable in-memory graph store with MVCC (paper §4.2).

GART keeps a mutable CSR-like structure and serves *consistent
snapshots* identified by a version, updating under a monotonically
increasing ``write_version``.  The reproduction keeps the same reader
structure the paper credits for GART's read performance:

* a **compacted base** — the edge set live at ``base_version``, one
  cached, src-clustered Spark frame per label (the mutable-CSR segment
  store);
* a small **delta** — inserts after ``base_version``, shipped to Spark
  once per (label, version) as a plain, uncached frame; and
* **tombstones** — keys deleted after ``base_version``, subtracted from
  the base with an anti-join.

A read at version ``v`` is base ⊖ tombstones(≤v) ⊕ delta(≤v): cheap
when the delta is small (cost ≈ static CSR, Exp-1c's 73.5%), while the
LiveGraph baseline (:class:`LiveGraphStore`, the same log without a
compacted base) must resolve per-record version chains with a shuffle
on *every* scan.  ``compact()`` folds the delta into a new
base, exactly like GART's segment compaction, rebuilding only the
labels written since the last base and dropping every memoised delta,
so the frames Spark caches stay one per edge label however long the
write stream runs.  There is no cross-label adjacency frame: adjacency
is the union of the per-label reads.

The full MVCC edge log also lives in driver pandas — the source of
truth that snapshots and compaction are derived from, and the fast
path that :meth:`to_property_graph` hands to HiActor (the OLTP engine
reads GART directly in the fraud use case, Fig. 6(a)).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.datasets.property_graph import PropertyGraph
from repro.storage.grin import GraphStore, Trait, to_spark

LIVE = np.iinfo(np.int64).max  # delete_version sentinel for live records


class GartStore(GraphStore):
    """Dynamic MVCC store. All reads go through a consistent snapshot."""

    name = "gart"
    TRAITS = (
        Trait.TOPOLOGY | Trait.PROPERTY | Trait.PARTITION | Trait.INDEX
        | Trait.PREDICATE_PUSHDOWN | Trait.MUTABLE | Trait.VERSIONED
    )

    def __init__(self, spark: SparkSession, pg: PropertyGraph, *, eager: bool = True):
        self._spark = spark
        self._signatures = dict(pg.edge_signatures)
        self._write_version = 0
        # vertex frames: unversioned (MVCC kept edge-level, as in GART's
        # paper evaluation which is dominated by edge updates).
        self._v_pdf = {l: p.copy() for l, p in pg.vertices.items()}
        # edge MVCC log: per-label pandas with create/delete versions.
        self._log: dict[str, pd.DataFrame] = {
            l: p.assign(cv=np.int64(0), dv=np.int64(LIVE)) for l, p in pg.edges.items()
        }
        self._base_version = 0
        self._base_e: dict[str, DataFrame] = {}
        # labels written since the base was built; compact() rebuilds these
        self._dirty: set[str] = set()
        # (label, base_version, version) -> (tombstone DF, delta DF)
        self._delta_cache: dict[tuple, tuple] = {}
        # label -> vertex frame (vertices are unversioned)
        self._v_df: dict[str, DataFrame] = {}
        self._rebuild_base(self._log, eager=eager)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    @property
    def write_version(self) -> int:
        return self._write_version

    def insert_edges(self, label: str, pdf: pd.DataFrame) -> int:
        """Append edges at a new version; returns that version."""
        self._check_label(label)
        self._write_version += 1
        rows = pdf.copy()
        rows["cv"] = np.int64(self._write_version)
        rows["dv"] = np.int64(LIVE)
        self._log[label] = pd.concat([self._log[label], rows], ignore_index=True)
        self._dirty.add(label)
        return self._write_version

    def delete_edges(self, label: str, keys: pd.DataFrame) -> int:
        """Tombstone live (src, dst) records at a new version."""
        self._check_label(label)
        self._write_version += 1
        log = self._log[label]
        key = pd.MultiIndex.from_frame(keys[["src", "dst"]])
        mask = (
            pd.MultiIndex.from_frame(log[["src", "dst"]]).isin(key)
            & (log.dv == LIVE)
        )
        log.loc[mask, "dv"] = np.int64(self._write_version)
        self._dirty.add(label)
        return self._write_version

    def _check_label(self, label: str) -> None:
        """A write to an unknown label fails before it takes a version."""
        if label not in self._signatures:
            raise KeyError(f"unknown edge label {label!r}")

    def compact(self, *, eager: bool = True) -> None:
        """Fold delta+tombstones into a fresh base at the current version.

        Only labels written since the last base are rebuilt: an unwritten
        label's base is already its edge set at the new version.
        """
        self._base_version = self._write_version
        self._delta_cache.clear()
        self._rebuild_base(sorted(self._dirty), eager=eager)
        self._dirty.clear()

    def _rebuild_base(self, labels, *, eager: bool) -> None:
        vb = self._base_version
        for label in labels:
            old = self._base_e.get(label)
            if old is not None:
                old.unpersist()
            log = self._log[label]
            live = log[(log.cv <= vb) & (log.dv > vb)].drop(columns=["cv", "dv"])
            sdf = to_spark(self._spark, live)
            base = sdf.repartition("src").sortWithinPartitions("src").cache()
            if eager:
                base.count()
            self._base_e[label] = base

    # ------------------------------------------------------------------
    # read path (GraphStore surface == latest consistent snapshot)
    # ------------------------------------------------------------------
    def vertex_labels(self) -> list[str]:
        return list(self._v_pdf)

    def edge_labels(self) -> list[str]:
        return list(self._log)

    def edge_signature(self, label: str) -> tuple[str, str]:
        return self._signatures[label]

    def snapshot(self, version: int | None = None) -> "GartSnapshot":
        v = self._write_version if version is None else version
        if v < self._base_version:
            raise ValueError(
                f"version {v} precedes compacted base {self._base_version} "
                "(old versions are garbage-collected, as in GART)"
            )
        if v > self._write_version:
            raise ValueError(f"version {v} not yet written")
        return GartSnapshot(self, v)

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        return self.snapshot().vertices(label, predicate=predicate)

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        return self.snapshot().edges(label, predicate=predicate)

    # pandas view of one consistent snapshot (HiActor / sampler fast path)
    def to_property_graph(self, version: int | None = None) -> PropertyGraph:
        v = self._write_version if version is None else version
        pg = PropertyGraph()
        for label, pdf in self._v_pdf.items():
            pg.add_vertices(label, pdf)
        for label, log in self._log.items():
            sl, dl = self._signatures[label]
            pg.add_edges(label, self._live_rows(log, v), src_label=sl, dst_label=dl)
        return pg

    @staticmethod
    def _live_rows(log: pd.DataFrame, v: int) -> pd.DataFrame:
        """The records of a label's log live at version ``v``."""
        return log[(log.cv <= v) & (log.dv > v)].drop(columns=["cv", "dv"])


class GartSnapshot(GraphStore):
    """Consistent read view at one version: base ⊖ tombstones ⊕ delta."""

    name = "gart"
    TRAITS = GartStore.TRAITS

    def __init__(self, store: GartStore, version: int):
        self._s = store
        self.version = version

    def vertex_labels(self) -> list[str]:
        return self._s.vertex_labels()

    def edge_labels(self) -> list[str]:
        return self._s.edge_labels()

    def edge_signature(self, label: str) -> tuple[str, str]:
        return self._s.edge_signature(label)

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        s = self._s
        df = s._v_df.get(label)
        if df is None:
            df = s._v_df[label] = to_spark(s._spark, s._v_pdf[label])
        return df.filter(predicate) if predicate else df

    def _resolved(self, label: str) -> DataFrame:
        """Edge set of ``label`` live at ``self.version`` as a Spark DF.

        Tombstones are applied with a *broadcast* anti-join: in GART
        they are a small in-memory set checked inline during the scan,
        so the scan must not pay a shuffle for them.  The delta/tomb
        frames are memoized per (label, base version, version), so the
        delta is shipped to Spark once per version, not on every read.
        They are plain local frames, neither cached nor counted: they
        are small, and a frame Spark caches would outlive the version.
        ``compact()`` drops them all.
        """
        s, v, vb = self._s, self.version, self._s._base_version
        key = (label, vb, v)
        cached = s._delta_cache.get(key)
        if cached is None:
            log = s._log[label]
            tomb = log[(log.cv <= vb) & (log.dv > vb) & (log.dv <= v)][["src", "dst"]]
            delta = log[(log.cv > vb) & (log.cv <= v) & (log.dv > v)].drop(
                columns=["cv", "dv"]
            )
            cached = tuple(
                to_spark(s._spark, p) if len(p) else None for p in (tomb, delta)
            )
            s._delta_cache[key] = cached
        tomb_df, delta_df = cached
        base = s._base_e[label]
        if tomb_df is not None:
            base = base.join(F.broadcast(tomb_df), on=["src", "dst"], how="left_anti")
        if delta_df is not None:
            base = base.unionByName(delta_df)
        return base

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._resolved(label)
        return df.filter(predicate) if predicate else df


class LiveGraphStore(GartStore):
    """LiveGraph-analog (Exp-1c baseline): GART's MVCC log, never compacted.

    LiveGraph (Zhu et al., VLDB'20) appends every edge version to a log
    and keeps no compacted base, so a scan resolves, per ``(src, dst)``,
    the record visible at its version.  Here the write path, the cached
    vertex frames and the schema are GART's; what differs is that Spark
    caches the whole log, dead records included, and that every
    snapshot read pays the resolve as a shuffle (``groupBy`` on the edge
    key).  A read returns one row per live key, with the properties of
    its latest record.
    """

    name = "livegraph"
    TRAITS = Trait.TOPOLOGY | Trait.PROPERTY | Trait.MUTABLE | Trait.VERSIONED

    def _rebuild_base(self, labels, *, eager: bool) -> None:
        for label in labels:
            old = self._base_e.get(label)
            if old is not None:
                old.unpersist()
            # the log is cached (it IS in memory, like LiveGraph): the cost
            # under test is the per-scan version resolve, not I/O
            log = to_spark(self._spark, self._log[label]).cache()
            if eager:
                log.count()
            self._base_e[label] = log

    def compact(self, *, eager: bool = True) -> None:
        """No-op: LiveGraph keeps every version record."""

    @staticmethod
    def _live_rows(log: pd.DataFrame, v: int) -> pd.DataFrame:
        """One row per ``(src, dst)`` live at version ``v``, with the
        properties of its latest record: what a snapshot read returns.
        The log is in version order, so the latest record is the last;
        a delete tombstones every live record of a key, so the latest
        record is live exactly when the key is."""
        latest = log[log.cv <= v].drop_duplicates(["src", "dst"], keep="last")
        return latest[latest.dv > v].drop(columns=["cv", "dv"])

    def snapshot(self, version: int | None = None) -> "LiveGraphSnapshot":
        return LiveGraphSnapshot(self, super().snapshot(version).version)


class LiveGraphSnapshot(GartSnapshot):
    """LiveGraph read view at one version: a version resolve per scan."""

    name = "livegraph"
    TRAITS = LiveGraphStore.TRAITS

    def _resolved(self, label: str) -> DataFrame:
        """Latest record per ``(src, dst)`` created by ``self.version``,
        kept when it is still live then: the shuffle every LiveGraph
        scan pays.  A label written since it was cached is re-cached
        first."""
        s, v = self._s, self.version
        if label in s._dirty:
            s._rebuild_base([label], eager=False)
            s._dirty.discard(label)
        log = s._base_e[label]
        props = [c for c in log.columns if c not in ("src", "dst", "cv", "dv")]
        latest = (
            log.filter(F.col("cv") <= v)
            .groupBy("src", "dst")
            .agg(F.max("dv").alias("dv"), *(F.max_by(c, "cv").alias(c) for c in props))
        )
        return latest.filter(F.col("dv") > v).drop("dv")
