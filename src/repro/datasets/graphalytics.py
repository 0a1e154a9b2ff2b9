"""Scaled-down registry of the paper's Table 1 datasets.

Each abbreviation from Table 1 maps to a deterministic generator config
(RMAT for the power-law crawls/social graphs, uniform for the
datagen/graph500 families) plus the *paper's* |V| and |E| so the
Table-1 harness can print paper-vs-scaled side by side.

``SCALE_DIVISOR`` ~= 1e4: a 1.8B-edge graph becomes ~180k edges — large
enough to exercise shuffles at the benchmark tier, small enough for one
host running Spark in local mode.  Tests pass ``max_edges`` to shrink
further.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import pandas as pd

from repro.datasets import graphs

SCALE_DIVISOR = 10_000


@dataclass(frozen=True)
class DatasetSpec:
    """One Table-1 row: generator family + paper-reported sizes."""

    abbr: str
    name: str
    kind: str  # "rmat" | "uniform"
    paper_v: int
    paper_e: int
    seed: int

    @property
    def scaled_e(self) -> int:
        return max(1000, self.paper_e // SCALE_DIVISOR)

    @property
    def scaled_v_target(self) -> int:
        return max(100, self.paper_v // SCALE_DIVISOR)


# Paper Table 1 (|V|, |E| as reported; M=1e6, B=1e9).
TABLE1: dict[str, DatasetSpec] = {
    s.abbr: s
    for s in [
        DatasetSpec("FB0", "datagen-9_0-fb", "rmat", 12_800_000, 1_050_000_000, 10),
        DatasetSpec("FB1", "datagen-9_1-fb", "rmat", 16_100_000, 1_340_000_000, 11),
        DatasetSpec("ZF", "datagen-9_2-zf", "uniform", 434_900_000, 1_040_000_000, 12),
        DatasetSpec("G500", "graph500-26", "rmat", 32_000_000, 1_050_000_000, 13),
        DatasetSpec("WB", "webbase-2001", "rmat", 118_000_000, 1_710_000_000, 14),
        DatasetSpec("UK", "uk-2005", "rmat", 39_500_000, 1_570_000_000, 15),
        DatasetSpec("CF", "com-friendster", "rmat", 65_600_000, 1_810_000_000, 16),
        DatasetSpec("TW", "twitter-2010", "rmat", 41_700_000, 1_470_000_000, 17),
        DatasetSpec("IT", "it-2004", "rmat", 41_000_000, 1_150_000_000, 18),
        DatasetSpec("AR", "arabic-2005", "rmat", 22_700_000, 1_110_000_000, 19),
        DatasetSpec("PD", "ogbn-products", "uniform", 2_400_000, 62_000_000, 20),
        DatasetSpec("PA", "ogbn-papers100M", "rmat", 111_000_000, 1_600_000_000, 21),
    ]
}

# SNB rows of Table 1 are produced by repro.datasets.snb (labeled
# property graphs, not plain edge lists); listed here for the harness.
SNB_PAPER_SIZES = {
    "SNB-30": (89_000_000, 541_000_000),
    "SNB-300": (817_000_000, 5_270_000_000),
    "SNB-1000": (2_690_000_000, 17_790_000_000),
}


def generate(
    abbr: str, *, max_edges: int | None = None, scale_divisor: int = SCALE_DIVISOR
) -> pd.DataFrame:
    """Generate the scaled dataset for a Table-1 abbreviation.

    ``scale_divisor`` controls the reduction from paper scale (default
    1e4); Exp-3 uses 1e3 so per-superstep data volume dominates Spark's
    fixed job overhead.  Returns a dense-id edge list (``src``, ``dst``
    in ``[0, n)``).
    """
    spec = TABLE1[abbr]
    scaled_e = max(1000, spec.paper_e // scale_divisor)
    scaled_v = max(100, spec.paper_v // scale_divisor)
    n_edges = scaled_e if max_edges is None else min(scaled_e, max_edges)
    if spec.kind == "rmat":
        # pick scale so the vertex-id space roughly matches the target;
        # RMAT's unused ids are compacted away afterwards.
        scale = max(8, math.ceil(math.log2(max(256, scaled_v))))
        # oversample: dedupe + compaction shrink the edge count
        raw = graphs.rmat_edges(scale=scale, n_edges=int(n_edges * 1.3), seed=spec.seed)
    else:
        raw = graphs.uniform_edges(
            n_vertices=max(256, scaled_v),
            n_edges=int(n_edges * 1.1),
            seed=spec.seed,
        )
    raw = raw.head(n_edges) if len(raw) > n_edges else raw
    dense, _ = graphs.compact_ids(raw)
    return dense


def table1_rows(*, max_edges: int | None = None) -> list[dict]:
    """Materialize every Table-1 dataset; one dict per printed row."""
    rows = []
    for abbr, spec in TABLE1.items():
        e = generate(abbr, max_edges=max_edges)
        rows.append(
            {
                "abbr": abbr,
                "dataset": spec.name,
                "paper_v": spec.paper_v,
                "paper_e": spec.paper_e,
                "scaled_v": graphs.num_vertices(e),
                "scaled_e": len(e),
            }
        )
    return rows
