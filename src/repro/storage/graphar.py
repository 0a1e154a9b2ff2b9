"""GraphAr-analog: chunked columnar archive format for graphs (paper §4.2).

Layout on the local filesystem (cloud-FS in the paper):

```
<root>/metadata.json                     # schema, signatures, chunk index
<root>/vertex/<label>/chunk-00000.parquet
<root>/edge/<label>/chunk-00000.parquet  # rows sorted by src
```

The pieces of the paper's design reproduced here:

* **chunking** — vertex and edge tables are split into fixed-size
  Parquet chunks; the metadata records, per edge chunk, the ``src``
  range it covers, so neighbor fetches read only the relevant chunks
  ("retrieve only the relevant data chunks, potentially in parallel");
* **storage-layer operations** — :func:`fetch_neighbors` and label
  scans run directly over the archive without loading the graph;
* **DataSourceV2 registration** — :class:`GraphArDataSource` is a
  Spark 4 *Python* DataSource (``spark.read.format("graphar")``), the
  Python surface of DSv2 (schema + partition planning + per-partition
  scan), registered on a session by :func:`register_datasource`.
  :class:`GraphArStore` does not go through it: it reads the parquet
  chunks with ``spark.read.parquet``.  A JVM DSv2 is out of scope: no
  JVM build toolchain in the container (documented in DESIGN.md §5).
* **fast graph construction** — internal ids and src-sorting are done
  once at archive-write time, so building an in-memory graph from
  GraphAr skips the parse/assign/sort work the CSV baseline pays
  (Exp-1d's ~5×).
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition

from repro.datasets.property_graph import PropertyGraph
from repro.storage.grin import GraphStore, Trait, arrow_to_ddl

_META = "metadata.json"


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------
def write_graphar(
    pg: PropertyGraph,
    root: str | Path,
    *,
    vertex_chunk_size: int = 50_000,
    edge_chunk_size: int = 100_000,
) -> None:
    """Archive a property graph in GraphAr layout (sorted, chunked parquet)."""
    root = Path(root)
    meta: dict = {
        "vertex_labels": list(pg.vertices),
        "edge_labels": list(pg.edges),
        "signatures": {l: list(s) for l, s in pg.edge_signatures.items()},
        "vertex_chunks": {},
        "edge_chunks": {},
    }
    for label, pdf in pg.vertices.items():
        d = root / "vertex" / label
        d.mkdir(parents=True, exist_ok=True)
        pdf = pdf.sort_values("id").reset_index(drop=True)
        chunks = []
        for i in range(0, max(1, len(pdf)), vertex_chunk_size):
            part = pdf.iloc[i : i + vertex_chunk_size]
            f = d / f"chunk-{i // vertex_chunk_size:05d}.parquet"
            pq.write_table(pa.Table.from_pandas(part, preserve_index=False), f)
            chunks.append(
                {
                    "file": str(f.relative_to(root)),
                    "id_min": int(part.id.min()),
                    "id_max": int(part.id.max()),
                    "n": len(part),
                }
            )
        meta["vertex_chunks"][label] = chunks
    for label, pdf in pg.edges.items():
        d = root / "edge" / label
        d.mkdir(parents=True, exist_ok=True)
        pdf = pdf.sort_values(["src", "dst"]).reset_index(drop=True)
        chunks = []
        for i in range(0, max(1, len(pdf)), edge_chunk_size):
            part = pdf.iloc[i : i + edge_chunk_size]
            f = d / f"chunk-{i // edge_chunk_size:05d}.parquet"
            pq.write_table(pa.Table.from_pandas(part, preserve_index=False), f)
            chunks.append(
                {
                    "file": str(f.relative_to(root)),
                    "src_min": int(part.src.min()),
                    "src_max": int(part.src.max()),
                    "n": len(part),
                }
            )
        meta["edge_chunks"][label] = chunks
    (root / _META).write_text(json.dumps(meta, indent=1))


def read_metadata(root: str | Path) -> dict:
    return json.loads((Path(root) / _META).read_text())


# ---------------------------------------------------------------------------
# storage-layer operations (no Spark, no full load)
# ---------------------------------------------------------------------------
def fetch_neighbors(root: str | Path, label: str, vid: int) -> pd.DataFrame:
    """Neighbors of one vertex, reading only the chunks whose src range
    covers ``vid`` (the paper's chunk-pruned point lookup)."""
    root = Path(root)
    meta = read_metadata(root)
    hits = [
        c
        for c in meta["edge_chunks"][label]
        if c["src_min"] <= vid <= c["src_max"]
    ]
    if not hits:
        return pd.DataFrame({"src": pd.Series(dtype="int64"), "dst": pd.Series(dtype="int64")})
    parts = [
        pq.read_table(root / c["file"], filters=[("src", "=", vid)]).to_pandas()
        for c in hits
    ]
    return pd.concat(parts, ignore_index=True)


# ---------------------------------------------------------------------------
# Python DataSource (Spark 4 DSv2 surface)
# ---------------------------------------------------------------------------
class _Chunk(InputPartition):
    def __init__(self, file: str):
        self.file = file


class _GraphArReader(DataSourceReader):
    """One Spark input partition per GraphAr chunk file."""

    def __init__(self, options: dict):
        self._root = options["path"]
        self._label = options["label"]
        self._kind = options.get("kind", "edge")
        meta = read_metadata(self._root)
        key = "edge_chunks" if self._kind == "edge" else "vertex_chunks"
        self._files = [str(Path(self._root) / c["file"]) for c in meta[key][self._label]]

    def partitions(self):
        return [_Chunk(f) for f in self._files]

    def read(self, partition: _Chunk):
        # Arrow-batch read path: yields RecordBatches straight to Spark.
        table = pq.read_table(partition.file)
        yield from table.to_batches()


class GraphArDataSource(DataSource):
    """``spark.read.format("graphar").options(path=..., label=..., kind=...)``"""

    @classmethod
    def name(cls) -> str:
        return "graphar"

    def schema(self) -> str:
        root = self.options["path"]
        label = self.options["label"]
        kind = self.options.get("kind", "edge")
        meta = read_metadata(root)
        key = "edge_chunks" if kind == "edge" else "vertex_chunks"
        first = Path(root) / meta[key][label][0]["file"]
        return arrow_to_ddl(pq.read_schema(str(first)))

    def reader(self, schema) -> _GraphArReader:
        return _GraphArReader(self.options)


_REGISTERED: set[int] = set()


def register_datasource(spark: SparkSession) -> None:
    """Idempotently register the ``graphar`` format on a session."""
    key = id(spark)
    if key not in _REGISTERED:
        spark.dataSource.register(GraphArDataSource)
        _REGISTERED.add(key)


# ---------------------------------------------------------------------------
# GraphStore over an archive (the external backend of Exp-1a)
# ---------------------------------------------------------------------------
class GraphArStore(GraphStore):
    """Reads the archive's parquet chunks on every access — no memory residency.

    Slowest backend in Exp-1a by design ("extra I/O overheads for direct
    data retrieval due to its archiving-focused design").
    """

    name = "graphar"
    TRAITS = (
        Trait.TOPOLOGY | Trait.PROPERTY | Trait.PARTITION | Trait.INDEX | Trait.PREDICATE_PUSHDOWN
    )

    def __init__(self, spark: SparkSession, root: str | Path):
        self._spark = spark
        self._root = str(root)
        self._meta = read_metadata(root)

    def vertex_labels(self) -> list[str]:
        return list(self._meta["vertex_labels"])

    def edge_labels(self) -> list[str]:
        return list(self._meta["edge_labels"])

    def edge_signature(self, label: str) -> tuple[str, str]:
        s = self._meta["signatures"][label]
        return (s[0], s[1])

    def _read(self, kind: str, label: str) -> DataFrame:
        key = "edge_chunks" if kind == "edge" else "vertex_chunks"
        files = [str(Path(self._root) / c["file"]) for c in self._meta[key][label]]
        return self._spark.read.parquet(*files)

    def vertices(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._read("vertex", label)
        return df.filter(predicate) if predicate else df

    def edges(self, label: str, *, predicate: str | None = None) -> DataFrame:
        df = self._read("edge", label)
        return df.filter(predicate) if predicate else df

    def to_property_graph(self) -> PropertyGraph:
        """Materialize the archive into a driver-side property graph."""
        pg = PropertyGraph()
        root = Path(self._root)
        for label in self.vertex_labels():
            files = [root / c["file"] for c in self._meta["vertex_chunks"][label]]
            pg.add_vertices(
                label,
                pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True),
            )
        for label in self.edge_labels():
            files = [root / c["file"] for c in self._meta["edge_chunks"][label]]
            sl, dl = self.edge_signature(label)
            pg.add_edges(
                label,
                pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True),
                src_label=sl,
                dst_label=dl,
            )
        return pg
