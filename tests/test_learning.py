"""Learning stack: samplers, GraphSAGE gradients, pipeline, NCN."""
import duckdb
import numpy as np
import pytest

from repro.datasets import graphs
from repro.learning import ncn
from repro.learning.features import (
    FeatureStore,
    PartitionedFeatureStore,
    make_features,
    make_labels,
)
from repro.learning.pipeline import run_epoch
from repro.learning.sage import GraphSAGE, SageParams
from repro.learning.sampler import NumpySampler, khop_sample_df
from repro.storage.csr import NumpyCSR, StaticCSRStore


@pytest.fixture(scope="module")
def g():
    e = graphs.rmat_edges(scale=8, n_edges=2000, seed=21)
    dense, n = graphs.compact_ids(e)
    return dense, n


@pytest.fixture(scope="module")
def csr(g):
    dense, n = g
    return NumpyCSR.from_edges(dense, n)


def test_numpy_sampler_shapes(csr):
    s = NumpySampler(csr, seed=1)
    seeds = np.arange(10)
    layers = s.sample_batch(seeds, [5, 3])
    assert [len(x) for x in layers] == [10, 50, 150]
    # sampled neighbors are real neighbors (or self-loops for isolated)
    for i, v in enumerate(seeds):
        nbrs = set(csr.neighbors(v)) or {v}
        assert set(layers[1][i * 5 : (i + 1) * 5]) <= nbrs


def test_numpy_sampler_deterministic(csr):
    a = NumpySampler(csr, seed=7).sample_batch(np.arange(5), [4, 2])
    b = NumpySampler(csr, seed=7).sample_batch(np.arange(5), [4, 2])
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_df_sampler_fanout_and_validity(spark, g):
    dense, n = g
    store = StaticCSRStore(spark, dense)
    seeds = spark.createDataFrame([(int(v),) for v in dense.src.unique()[:20]], "id long")
    hops = khop_sample_df(spark, store, seeds=seeds, fanouts=[3, 2], seed=5)
    h0 = hops[0].toPandas()
    assert h0.groupby("src").size().max() <= 3
    real = set(map(tuple, dense[["src", "dst"]].itertuples(index=False)))
    assert set(map(tuple, h0[["src", "dst"]].itertuples(index=False))) <= real
    h1 = hops[1].toPandas()
    assert h1.groupby("src").size().max() <= 2
    assert set(h1.src) <= set(h0.dst)


def test_sage_gradcheck():
    """Exact grads vs numerical differentiation on a tiny instance."""
    rng = np.random.default_rng(0)
    fanouts = [3, 2]
    p = SageParams.init(4, 5, 3, 2, seed=1)
    model = GraphSAGE(p, fanouts)
    feats = [rng.standard_normal((2, 4)), rng.standard_normal((6, 4)),
             rng.standard_normal((12, 4))]
    labels = np.array([0, 2])
    loss, acc, grads = model.loss_and_grads(feats, labels)
    eps = 1e-6
    for pi, gi in zip(p.flat(), grads.flat()):
        it = np.nditer(pi, flags=["multi_index"])
        for _ in range(min(4, pi.size)):  # spot-check a few entries
            idx = it.multi_index
            old = pi[idx]
            pi[idx] = old + eps
            lp, _, _ = model.loss_and_grads(feats, labels)
            pi[idx] = old - eps
            lm, _, _ = model.loss_and_grads(feats, labels)
            pi[idx] = old
            num = (lp - lm) / (2 * eps)
            assert abs(num - gi[idx]) < 1e-5, f"grad mismatch at {idx}"
            next(it, None)


def _full_backward(model, feats, labels):
    """Loss and parameter gradients of a backward pass that also
    propagates into the sampled input features, as the trainer did
    before it stopped at layer 0's parameters."""
    logits, (cache, h_top) = model.forward(feats)
    B = len(labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.log(probs[np.arange(B), labels] + 1e-12).mean()
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    p = model.p
    g = SageParams([np.zeros_like(w) for w in p.w_self], [np.zeros_like(w) for w in p.w_nbr],
                   [np.zeros_like(b) for b in p.b], h_top.T @ dlogits, dlogits.sum(axis=0))
    grads_h = [dlogits @ p.w_out.T]
    for l in reversed(range(model.n_layers)):
        new = [np.zeros_like(h_self) for h_self, _, _ in cache[l]]
        new.append(np.zeros((len(cache[l][-1][1]) * model.fanouts[len(cache[l]) - 1],
                             cache[l][-1][1].shape[1])))
        for k, (h_self, h_nbr, z) in enumerate(cache[l]):
            dz = grads_h[k] * (z > 0)
            g.w_self[l] += h_self.T @ dz
            g.w_nbr[l] += h_nbr.T @ dz
            g.b[l] += dz.sum(axis=0)
            new[k] += dz @ p.w_self[l].T
            new[k + 1] += np.repeat((dz @ p.w_nbr[l].T) / model.fanouts[k], model.fanouts[k], axis=0)
        grads_h = new
    return loss, g


@pytest.mark.parametrize("fanouts", [[3, 2], [4, 3, 2]])
def test_sage_grads_match_full_backward(fanouts):
    rng = np.random.default_rng(11)
    model = GraphSAGE(SageParams.init(6, 8, 3, len(fanouts), seed=12), fanouts)
    sizes = np.cumprod([5, *fanouts])
    feats = [rng.standard_normal((m, 6)) for m in sizes]
    labels = rng.integers(0, 3, sizes[0])
    loss, _, grads = model.loss_and_grads(feats, labels)
    want_loss, want = _full_backward(model, feats, labels)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-12)
    for got, exp in zip(grads.flat(), want.flat(), strict=True):
        np.testing.assert_allclose(got, exp, rtol=1e-12)


def test_training_learns(csr, g):
    dense, n = g
    feats = make_features(n, 16, seed=3)
    labels = make_labels(dense.src.to_numpy(), dense.dst.to_numpy(), n)
    store = FeatureStore(feats)
    sampler = NumpySampler(csr, seed=2)
    model = GraphSAGE(SageParams.init(16, 32, 4, 2, seed=4), [5, 3])
    seeds = np.arange(n)
    first = run_epoch(sampler=sampler, model=model, feature_store=store,
                      labels=labels, seeds=seeds, fanouts=[5, 3],
                      batch_size=128, n_samplers=1, n_trainers=1, lr=0.2)
    for _ in range(8):
        last = run_epoch(sampler=sampler, model=model, feature_store=store,
                         labels=labels, seeds=seeds, fanouts=[5, 3],
                         batch_size=128, n_samplers=2, n_trainers=1, lr=0.2)
    assert last.loss < first.loss, "training should reduce loss"
    assert last.acc > 0.3, "degree-derived labels should be learnable"


def test_partitioned_store_matches_local(g):
    dense, n = g
    feats = make_features(n, 8, seed=9)
    local = FeatureStore(feats)
    parts = PartitionedFeatureStore(feats, 4)
    nodes = np.random.default_rng(1).integers(0, n, 50)
    np.testing.assert_array_equal(local.gather(nodes), parts.gather(nodes, home=2))


def test_common_neighbors_oracle(csr, g):
    dense, n = g
    con = duckdb.connect()
    con.register("e", dense)
    pairs = dense.head(10)[["src", "dst"]].to_numpy()
    for u, v in pairs:
        got = ncn.common_neighbors(csr, int(u), int(v))
        want = con.execute(
            "SELECT DISTINCT a.dst FROM e a JOIN e b ON a.dst = b.dst "
            "WHERE a.src = ? AND b.src = ? ORDER BY a.dst",
            [int(u), int(v)],
        ).fetchnumpy()["dst"]
        np.testing.assert_array_equal(got, np.sort(want))
    con.close()


def test_ncn_scores(csr, g):
    dense, n = g
    feats = make_features(n, 16, seed=5)
    store = FeatureStore(feats)
    sampler = NumpySampler(csr, seed=6)
    model = GraphSAGE(SageParams.init(16, 32, 4, 2, seed=7), [4, 3])
    pos = dense.head(16)[["src", "dst"]].to_numpy()
    neg = ncn.negative_edges(csr, 16, seed=8)
    samples = ncn.sample_ncn_batch(sampler, np.vstack([pos, neg]), [4, 3])
    scores = ncn.ncn_score(model, store, samples)
    assert scores.shape == (32,)
    assert np.isfinite(scores).all()
    assert ((scores >= 0) & (scores <= 1)).all()


@pytest.mark.parametrize(
    "csr, seeds",
    [
        # the highest id has no out-edges: its segment starts at the end
        (NumpyCSR([0, 1], [1, 2], 3), [2]),
        (NumpyCSR([0, 1], [1, 2], 3), [2, 0, 1]),
        (NumpyCSR(np.empty(0, np.int64), np.empty(0, np.int64), 4), [0, 3, 1]),
    ],
    ids=["highest-id-sink", "sink-among-others", "no-edges"],
)
def test_numpy_sampler_zero_degree(csr, seeds):
    layers = NumpySampler(csr, seed=3).sample_batch(np.asarray(seeds), [4, 2])
    for parent, child, fan in zip(layers, layers[1:], [4, 2]):
        assert len(child) == len(parent) * fan
        for i, v in enumerate(parent):
            nbrs = set(csr.neighbors(v).tolist()) or {int(v)}
            assert set(child[i * fan : (i + 1) * fan].tolist()) <= nbrs
