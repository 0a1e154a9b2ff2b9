"""numpy GraphSAGE (mean aggregator) with hand-written backprop.

PyTorch/TensorFlow are unavailable in-container (DESIGN.md §5), so the
training backend is a real numpy implementation: L SAGE layers
(``h' = relu(W_s h + W_n mean(h_nbrs) + b)``) over the layered fanout
tensors produced by :class:`repro.learning.sampler.NumpySampler`,
a linear classifier, softmax cross-entropy, and SGD.  Gradients are
exact (verified against numerical differentiation in tests), so epoch
timings exercise genuine forward+backward compute — which is what the
Exp-4 scaling claims are about.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _relu(x):
    return np.maximum(x, 0.0)


@dataclass
class SageParams:
    w_self: list  # per layer (din, dh)
    w_nbr: list
    b: list
    w_out: np.ndarray
    b_out: np.ndarray

    @classmethod
    def init(cls, in_dim: int, hidden: int, n_classes: int, n_layers: int, *, seed: int = 0):
        g = np.random.default_rng(seed)

        def glorot(a, b):
            return (g.standard_normal((a, b)) * np.sqrt(2.0 / (a + b))).astype(np.float64)

        dims = [in_dim] + [hidden] * n_layers
        return cls(
            w_self=[glorot(dims[i], dims[i + 1]) for i in range(n_layers)],
            w_nbr=[glorot(dims[i], dims[i + 1]) for i in range(n_layers)],
            b=[np.zeros(dims[i + 1]) for i in range(n_layers)],
            w_out=glorot(hidden, n_classes),
            b_out=np.zeros(n_classes),
        )

    def flat(self) -> list:
        return [*self.w_self, *self.w_nbr, *self.b, self.w_out, self.b_out]


class GraphSAGE:
    """L-layer mean-aggregator SAGE over layered node tensors."""

    def __init__(self, params: SageParams, fanouts: list[int]):
        self.p = params
        self.fanouts = fanouts
        self.n_layers = len(params.w_self)
        if len(fanouts) != self.n_layers:
            raise ValueError("need one fanout per layer")

    # -- forward --------------------------------------------------------
    def forward(self, feats_per_level: list[np.ndarray]):
        """``feats_per_level[k]`` = features of sampled level k
        (level 0 = the batch seeds).  Returns (logits, cache)."""
        L = self.n_layers
        hs = [f.astype(np.float64) for f in feats_per_level]
        cache = []
        for l in range(L):
            new_hs, level_cache = [], []
            for k in range(len(hs) - 1):
                fan = self.fanouts[k]
                h_self = hs[k]
                h_nbr = hs[k + 1].reshape(len(h_self), fan, -1).mean(axis=1)
                z = h_self @ self.p.w_self[l] + h_nbr @ self.p.w_nbr[l] + self.p.b[l]
                new_hs.append(_relu(z))
                level_cache.append((h_self, h_nbr, z))
            cache.append(level_cache)
            hs = new_hs
        logits = hs[0] @ self.p.w_out + self.p.b_out
        return logits, (cache, hs[0])

    # -- loss + backward ------------------------------------------------
    def loss_and_grads(self, feats_per_level, labels):
        logits, (cache, h_top) = self.forward(feats_per_level)
        B = len(labels)
        m = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m)
        probs = e / e.sum(axis=1, keepdims=True)
        loss = -np.log(probs[np.arange(B), labels] + 1e-12).mean()
        acc = float((logits.argmax(axis=1) == labels).mean())

        dlogits = probs.copy()
        dlogits[np.arange(B), labels] -= 1.0
        dlogits /= B
        g = SageParams(
            w_self=[np.zeros_like(w) for w in self.p.w_self],
            w_nbr=[np.zeros_like(w) for w in self.p.w_nbr],
            b=[np.zeros_like(b) for b in self.p.b],
            w_out=h_top.T @ dlogits,
            b_out=dlogits.sum(axis=0),
        )
        grads_h = [dlogits @ self.p.w_out.T]  # grad w.r.t. hs after last layer
        for l in reversed(range(self.n_layers)):
            level_cache = cache[l]
            dzs = [grads_h[k] * (z > 0) for k, (_, _, z) in enumerate(level_cache)]
            for (h_self, h_nbr, _), dz in zip(level_cache, dzs):
                g.w_self[l] += h_self.T @ dz
                g.w_nbr[l] += h_nbr.T @ dz
                g.b[l] += dz.sum(axis=0)
            if l == 0:
                break  # layer 0's inputs are the sampled features: no gradient needed
            grads_h = [np.zeros_like(c[0]) for c in level_cache]
            grads_h.append(
                np.zeros((len(level_cache[-1][1]) * self.fanouts[len(level_cache) - 1],
                          level_cache[-1][1].shape[1]))
            )
            for k, dz in enumerate(dzs):
                grads_h[k] += dz @ self.p.w_self[l].T
                fan = self.fanouts[k]
                # mean-aggregation backprop: broadcast /fan to each child
                dnbr = (dz @ self.p.w_nbr[l].T) / fan
                grads_h[k + 1] += np.repeat(dnbr, fan, axis=0)
        return loss, acc, g

    def step(self, grads: SageParams, lr: float) -> None:
        for p, gr in zip(self.p.flat(), grads.flat()):
            p -= lr * gr


def train_batch(model: GraphSAGE, store, layers, labels, *, lr: float = 0.05):
    """One optimization step over a sampled batch; returns (loss, acc)."""
    feats = [store.gather(nodes) for nodes in layers]
    loss, acc, grads = model.loss_and_grads(feats, labels)
    model.step(grads, lr)
    return loss, acc
