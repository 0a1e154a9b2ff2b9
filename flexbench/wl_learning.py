"""learning: GraphSAGE sampling, feature gathering and training steps.

No Spark.  The program holds an RMAT-14 graph (edge factor 8, ids
compacted to a dense range, one extra vertex appended as the highest id
with a single in-edge and no out-edges) in ``NumpyCSR``, a
``NumpySampler`` (fanouts [10, 5]), a ``FeatureStore`` and a 2-layer
``GraphSAGE``.  One round is:

* ``add_edges`` (write): 64 new edges, then the CSR is rebuilt from the
  whole edge list, the update path of a static sampling server;
* 8 x ``sample`` (read): ``sample_batch`` of 64 seeds, then ``gather`` of
  every layer's features;
* 7 x ``train_step`` (read): ``loss_and_grads`` and ``step`` on a batch.

The first batch of every round contains the highest id.  It is a
vertex of out-degree 0 at the end of the id range, which makes
``sample_batch`` index one past the CSR's last edge and raise
``IndexError``: that batch fails in every round on every seed, so
exactly 1 of 16 operations fails.  The other batches draw their seeds
from vertices whose seeds and first hop stay clear of that id range
(the "tail"), because such a failure depends on the random draw and
would change the failed share from seed to seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from harness import expect, expect_eq

from repro.datasets import graphs
from repro.learning import features, sage, sampler
from repro.storage import csr as csr_mod

SPARK = False
READ_KINDS = ["sample", "train_step"]
WRITE_KINDS = ["add_edges"]
MIN_ROUNDS = 10  # cached_mb is taken after this many rounds
SCALE = 14
EDGE_FACTOR = 8
FANOUTS = [10, 5]
BATCH = 64
BATCHES_PER_ROUND = 8
NEW_EDGES = 64
DIM, HIDDEN, CLASSES = 32, 32, 4
LR = 0.05


@dataclass
class State:
    seed: int
    n: int
    src: np.ndarray
    dst: np.ndarray
    csr: csr_mod.NumpyCSR
    sampler: sampler.NumpySampler
    store: features.FeatureStore
    labels: np.ndarray
    model: sage.GraphSAGE
    # the benchmark's own view, set by attach_model
    feats: np.ndarray | None = None
    keys: np.ndarray | None = None  # sorted unique src * n + dst
    deg: np.ndarray | None = None
    body: np.ndarray | None = None  # ids outside the tail
    pool: np.ndarray | None = None  # seed candidates clear of the tail


def build(seed: int, spark) -> State:
    e = graphs.rmat_edges(scale=SCALE, n_edges=EDGE_FACTOR << SCALE, seed=seed)
    e, n = graphs.compact_ids(e)
    # the appended vertex n is the highest id: one in-edge, no out-edges
    src = np.append(e.src.to_numpy(), 0).astype(np.int64)
    dst = np.append(e.dst.to_numpy(), n).astype(np.int64)
    n += 1
    csr = csr_mod.NumpyCSR(src, dst, n)
    return State(
        seed=seed,
        n=n,
        src=src,
        dst=dst,
        csr=csr,
        sampler=sampler.NumpySampler(csr, seed=seed),
        store=features.FeatureStore(features.make_features(n, DIM, seed=seed)),
        labels=features.make_labels(src, dst, n, CLASSES),
        model=sage.GraphSAGE(sage.SageParams.init(DIM, HIDDEN, CLASSES, len(FANOUTS), seed=seed), FANOUTS),
    )


def attach_model(st: State) -> None:
    st.feats = st.store.feats.copy()
    st.keys = np.unique(st.src * st.n + st.dst)
    st.deg = np.bincount(st.src, minlength=st.n)
    # tail: ids at and above the last vertex with out-edges
    tail_start = int(np.flatnonzero(st.deg).max()) + 1
    st.body = np.arange(tail_start)
    bad = np.zeros(st.n, dtype=bool)
    bad[tail_start:] = True
    bad[st.src[bad[st.dst]]] = True  # a first hop could land in the tail
    st.pool = np.flatnonzero(~bad)


# -- checks ----------------------------------------------------------------
def check_sample(st: State, seeds: np.ndarray, got) -> None:
    layers, feats = got
    expect_eq(len(layers), len(FANOUTS) + 1, "sample: layer count")
    expect(np.array_equal(layers[0], seeds), "sample: layer 0 is not the seed batch")
    for k, fan in enumerate(FANOUTS):
        parent = np.repeat(layers[k], fan)
        child = layers[k + 1]
        expect_eq(len(child), len(parent), f"sample: layer {k + 1} size")
        iso = st.deg[parent] == 0
        expect(np.array_equal(child[iso], parent[iso]), "sample: isolated vertex not self-looped")
        pos = np.searchsorted(st.keys, parent[~iso] * st.n + child[~iso])
        pos = np.minimum(pos, len(st.keys) - 1)
        expect(bool(np.all(st.keys[pos] == parent[~iso] * st.n + child[~iso])),
               f"sample: layer {k + 1} holds an id that is not an out-neighbour")
    for k, f in enumerate(feats):
        expect(np.array_equal(f, st.feats[layers[k]]), f"gather: layer {k} features differ")


def check_train(got) -> None:
    loss, acc = got
    expect(bool(np.isfinite(loss)) and loss >= 0, f"train_step: loss {loss!r}")
    expect(bool(np.isfinite(acc)) and 0.0 <= acc <= 1.0, f"train_step: accuracy {acc!r}")


def check_csr(st: State, got) -> None:
    expect_eq(got.num_edges, len(st.src), "add_edges: edge count")
    expect(np.array_equal(got.degrees(), st.deg), "add_edges: out-degrees differ")


# -- one round -------------------------------------------------------------
def _sample(st: State, seeds: np.ndarray):
    layers = st.sampler.sample_batch(seeds, FANOUTS)
    return layers, [st.store.gather(nodes) for nodes in layers]


def _train(st: State, batch):
    seeds, feats = batch
    loss, acc, grads = st.model.loss_and_grads(feats, st.labels[seeds])
    st.model.step(grads, LR)
    return loss, acc


def _rebuild(st: State) -> csr_mod.NumpyCSR:
    st.csr = csr_mod.NumpyCSR(st.src, st.dst, st.n)
    st.sampler.csr = st.csr
    return st.csr


def run_round(st: State, r: int, rec) -> None:
    g = np.random.default_rng([st.seed, r + 1])
    new_src = g.choice(st.body, NEW_EDGES)
    new_dst = g.choice(st.body, NEW_EDGES)
    st.src = np.concatenate([st.src, new_src])
    st.dst = np.concatenate([st.dst, new_dst])
    st.keys = np.union1d(st.keys, new_src * st.n + new_dst)
    np.add.at(st.deg, new_src, 1)
    rec.op("add_edges", lambda: _rebuild(st), lambda out: check_csr(st, out))

    for b in range(BATCHES_PER_ROUND):
        seeds = g.choice(st.pool, BATCH)
        if b == 0:
            seeds[0] = st.n - 1  # the highest id: hits the sampler fault
        got = rec.op("sample", lambda s=seeds: _sample(st, s),
                     lambda out, s=seeds: check_sample(st, s, out))
        if got is not None:
            rec.op("train_step", lambda s=seeds, got=got: _train(st, (s, got[1])), check_train)


def footprint(st: State, spark) -> int:
    """Bytes of the CSR arrays and the feature matrix."""
    c = st.csr
    return c.indptr.nbytes + c.indices.nbytes + c.src_sorted.nbytes + st.store.feats.nbytes
