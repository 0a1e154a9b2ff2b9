"""Vectorized single-node kernels: the "GPU backend" tier of Exp-3.

No GPU exists in the container, so the paper's GPU systems are mapped
to numpy kernels whose *relative* performance derives from real
memory-access/kernel-structure differences — the same axis the paper's
GPU section discusses (load-balanced thread mapping and GPU-friendly
data structures in GRAPE-GPU vs. generic frameworks):

* :func:`flexgpu_pagerank` / :func:`flexgpu_bfs` — GRAPE-GPU analog:
  CSC segment reductions (``np.add.reduceat``) and frontier batches
  over a CSR with perfectly coalesced reads.  This is the
  "GPU-friendly data structure + load-balanced mapping" design point.
* :func:`gunrock_pagerank` / :func:`gunrock_bfs` — frontier-centric but
  with atomic-scatter accumulation (``np.add.at`` — the analog of
  per-edge atomics) instead of segmented reduction.
* :func:`groute_pagerank` / :func:`groute_bfs` — asynchronous
  chunk-at-a-time processing: edges stream in fixed-size chunks with
  per-chunk scatter, modeling Groute's fine-grained async task loop
  (lower arithmetic intensity per launch).

All kernels compute identical results (asserted against
:mod:`repro.analytics.reference` in tests); only their schedules differ.
"""
from __future__ import annotations

import numpy as np

from repro.storage.csr import NumpyCSR


# ---------------------------------------------------------------------------
# GraphScope Flex GPU-analog: segmented reductions over CSC/CSR
# ---------------------------------------------------------------------------
def flexgpu_pagerank(csr: NumpyCSR, *, alpha: float = 0.85, num_iter: int = 10) -> np.ndarray:
    """Segmented-reduction kernel over the CSC layout.

    Edges are pre-sorted by destination (the GPU-friendly layout), so the
    in-edges of each vertex are one contiguous segment and the
    per-destination sum is one ``np.add.reduceat`` over the segment
    starts: no per-edge atomics and no scatter.  ``reduceat`` returns an
    element, not 0, for an empty segment, so only the vertices with
    in-edges are reduced and the others keep 0.
    """
    n = csr.n
    deg = csr.degrees().astype(np.float64)
    csc = csr.reverse()  # edges sorted by destination
    src_of = csc.indices  # source of each edge, in destination order
    has_in = np.flatnonzero(np.diff(csc.indptr))  # the non-empty segments
    starts = csc.indptr[has_in]
    rank = np.full(n, 1.0 / n)
    safe_deg = np.maximum(deg, 1)
    incoming = np.zeros(n)
    for _ in range(num_iter):
        contrib = np.where(deg > 0, rank / safe_deg, 0.0)
        incoming[has_in] = np.add.reduceat(contrib[src_of], starts)
        rank = (1 - alpha) / n + alpha * incoming
    return rank


def flexgpu_bfs(csr: NumpyCSR, source: int) -> np.ndarray:
    """Frontier-batched BFS: only the frontier's edges are touched per
    level (load-balanced gather), dedup via a visited bitmap — no sort,
    no full-edge-list sweep."""
    n = csr.n
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        nbrs = csr.neighbors_batch(frontier)
        mask = np.zeros(n, dtype=bool)
        mask[nbrs] = True
        mask &= dist == -1
        nxt = np.flatnonzero(mask)
        dist[nxt] = level
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Gunrock-analog: frontier + atomic scatter
# ---------------------------------------------------------------------------
def gunrock_pagerank(src: np.ndarray, dst: np.ndarray, n: int, *, alpha: float = 0.85, num_iter: int = 10) -> np.ndarray:
    deg = np.bincount(src, minlength=n).astype(np.float64)
    safe = np.maximum(deg, 1)
    rank = np.full(n, 1.0 / n)
    for _ in range(num_iter):
        contrib = np.where(deg > 0, rank / safe, 0.0)
        incoming = np.zeros(n)
        np.add.at(incoming, dst, contrib[src])  # atomic-add analog
        rank = (1 - alpha) / n + alpha * incoming
    return rank


def gunrock_bfs(src: np.ndarray, dst: np.ndarray, n: int, source: int) -> np.ndarray:
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier_mask = np.zeros(n, dtype=bool)
    frontier_mask[source] = True
    level = 0
    while frontier_mask.any():
        level += 1
        # edge-parallel advance: filter the whole edge list by frontier
        active = frontier_mask[src]
        targets = dst[active]
        new_mask = np.zeros(n, dtype=bool)
        new_mask[targets] = True
        new_mask &= dist == -1
        dist[new_mask] = level
        frontier_mask = new_mask
    return dist


# ---------------------------------------------------------------------------
# Groute-analog: async chunked scatter
# ---------------------------------------------------------------------------
def groute_pagerank(
    src: np.ndarray, dst: np.ndarray, n: int, *, alpha: float = 0.85, num_iter: int = 10, chunk: int = 4096
) -> np.ndarray:
    deg = np.bincount(src, minlength=n).astype(np.float64)
    safe = np.maximum(deg, 1)
    rank = np.full(n, 1.0 / n)
    m = len(src)
    for _ in range(num_iter):
        contrib = np.where(deg > 0, rank / safe, 0.0)
        incoming = np.zeros(n)
        for i in range(0, m, chunk):  # fine-grained async task loop
            s, d = src[i : i + chunk], dst[i : i + chunk]
            np.add.at(incoming, d, contrib[s])
        rank = (1 - alpha) / n + alpha * incoming
    return rank


def groute_bfs(src: np.ndarray, dst: np.ndarray, n: int, source: int, *, chunk: int = 4096) -> np.ndarray:
    INF = np.int64(n + 1)
    dist = np.full(n, INF, dtype=np.int64)
    dist[source] = 0
    m = len(src)
    changed = True
    rounds = n
    while changed and rounds:
        changed = False
        rounds -= 1
        for i in range(0, m, chunk):  # async relaxation, chunk at a time
            s, d = src[i : i + chunk], dst[i : i + chunk]
            cand = dist[s] + 1
            better = cand < dist[d]
            if better.any():
                np.minimum.at(dist, d[better], cand[better])
                changed = True
    out = dist.copy()
    out[out >= INF] = -1
    return out
