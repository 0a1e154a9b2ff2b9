"""CSV baseline for the Exp-1c graph-construction comparison.

The paper's baseline stores datasets as CSV; building a graph from CSV
pays (1) text parse + schema inference, (2) internal-ID assignment,
(3) adjacency sort/cluster — all of which GraphAr did once at archive
time.  Both loaders end at the same place (a :class:`VineyardStore`)
so the comparison times *construction*, not different end states.
"""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from repro.datasets.property_graph import PropertyGraph
from repro.storage.graphar import GraphArStore
from repro.storage.vineyard import VineyardStore


def write_csv(pg: PropertyGraph, root: str | Path) -> None:
    """Dump a property graph as header-ful CSV files (one per label)."""
    root = Path(root)
    (root / "vertex").mkdir(parents=True, exist_ok=True)
    (root / "edge").mkdir(parents=True, exist_ok=True)
    for label, pdf in pg.vertices.items():
        pdf.to_csv(root / "vertex" / f"{label}.csv", index=False)
    for label, pdf in pg.edges.items():
        pdf.to_csv(root / "edge" / f"{label}.csv", index=False)
    sig = pd.DataFrame(
        [(l, s, d) for l, (s, d) in pg.edge_signatures.items()],
        columns=["label", "src_label", "dst_label"],
    )
    sig.to_csv(root / "signatures.csv", index=False)


def load_csv_graph(spark: SparkSession, root: str | Path) -> VineyardStore:
    """Build an in-memory graph from CSV (the slow path under test)."""
    root = Path(root)
    sig = pd.read_csv(root / "signatures.csv")
    pg = PropertyGraph()
    for f in sorted((root / "vertex").glob("*.csv")):
        # schema inference forces a full extra pass over the text file
        sdf = spark.read.csv(str(f), header=True, inferSchema=True)
        pg.add_vertices(f.stem, sdf.toPandas())
    for f in sorted((root / "edge").glob("*.csv")):
        sdf = spark.read.csv(str(f), header=True, inferSchema=True)
        row = sig[sig.label == f.stem].iloc[0]
        pg.add_edges(
            f.stem, sdf.toPandas(), src_label=row.src_label, dst_label=row.dst_label
        )
    return VineyardStore(spark, pg)


def load_graphar_graph(spark: SparkSession, root: str | Path) -> VineyardStore:
    """Build the same in-memory graph from a GraphAr archive (fast path)."""
    pg = GraphArStore(spark, root).to_property_graph()
    return VineyardStore(spark, pg)
