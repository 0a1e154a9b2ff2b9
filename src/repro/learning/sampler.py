"""GraphLearn-analog samplers (paper §7).

Two sampling paths, mirroring the deployment split in the paper:

* :func:`khop_sample_df` — distributed multi-hop sampling expressed as
  a Catalyst dataflow over any GRIN store ("each node in the dataflow
  is parallelized across the graph partitions").  Per-source fanout
  capping uses a rank-over-window on a seeded hash — deterministic and
  shuffle-parallel.  This is the path Exp-1 times per backend.
* :class:`NumpySampler` — the in-memory sampling-server fast path used
  by the scaling experiments (Exp-4): fixed-fanout sampling *with
  replacement* over a CSR, yielding dense (B, f1, f2, ...) neighbor
  tensors that feed the numpy GraphSAGE directly.  Zero-degree
  vertices self-loop (standard PyG convention for mean aggregation).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.storage.csr import NumpyCSR
from repro.storage.grin import GraphStore


def khop_sample_df(
    spark: SparkSession,
    store: GraphStore,
    *,
    seeds: DataFrame,  # (id,)
    fanouts: list[int],
    seed: int = 0,
) -> list[DataFrame]:
    """Multi-hop sampled edge sets; hop k returns (src, dst) pairs.

    Sampling is deterministic in ``seed``: neighbors are ranked by a
    seeded hash and the top ``fanout`` per source are kept.
    """
    adj = store.adjacency().select("src", "dst")
    frontier = seeds.select(F.col("id").alias("src")).distinct()
    out: list[DataFrame] = []
    for k, fan in enumerate(fanouts):
        joined = adj.join(frontier, "src")
        w = Window.partitionBy("src").orderBy(F.xxhash64("src", "dst", F.lit(seed + k)))
        sampled = (
            joined.withColumn("__rk", F.row_number().over(w))
            .filter(F.col("__rk") <= fan)
            .drop("__rk")
        )
        out.append(sampled)
        frontier = sampled.select(F.col("dst").alias("src")).distinct()
    return out


class NumpySampler:
    """Fixed-fanout layered sampler over CSR (the sampling server)."""

    def __init__(self, csr: NumpyCSR, *, seed: int = 0):
        self.csr = csr
        self.rng = np.random.default_rng(seed)

    def sample_batch(self, seeds: np.ndarray, fanouts: list[int]) -> list[np.ndarray]:
        """Returns ``[nodes_0, nodes_1, ..., nodes_L]`` where
        ``nodes_0 = seeds`` and ``nodes_{k+1}`` has
        ``len(nodes_k) * fanouts[k]`` entries (neighbors with
        replacement; self-loop for isolated vertices)."""
        layers = [np.asarray(seeds, dtype=np.int64)]
        indptr, indices = self.csr.indptr, self.csr.indices
        for fan in fanouts:
            cur = layers[-1]
            deg = indptr[cur + 1] - indptr[cur]
            # random offsets into each adjacency segment
            r = self.rng.random((len(cur), fan))
            offs = (r * np.maximum(deg, 1)[:, None]).astype(np.int64)
            idx = indptr[cur][:, None] + offs
            # isolated vertices self-loop; only vertices with out-edges
            # gather, so none reads past its own segment (or the array)
            nbrs = np.repeat(cur, fan)
            has = np.repeat(deg > 0, fan)
            nbrs[has] = indices[idx.ravel()[has]]
            layers.append(nbrs)
        return layers
