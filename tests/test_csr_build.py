"""Driver-local adjacency builds: the radix sort they share
(``stable_argsort``) and the arrays it builds on degenerate edge lists,
each against ``np.argsort(kind="stable")``."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import graphs
from repro.query.hiactor import _AdjIndex
from repro.storage.csr import NumpyCSR, stable_argsort

I32, I64 = np.iinfo(np.int32), np.iinfo(np.int64)
# spans around each 16-bit digit boundary, up to 4 passes; offsets far
# from 0 in both directions (ids of a label need not start near 0)
SPANS = [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**48 + 1, 2**62]
OFFSETS = [0, -7, 3 * 10**9, -3 * 10**9, -(2**62)]


def _same_as_argsort(keys) -> None:
    got, want = stable_argsort(keys), np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@st.composite
def _keys(draw):
    span = draw(st.sampled_from(SPANS) | st.integers(0, 2**62))
    lo = draw(st.sampled_from(OFFSETS) | st.integers(-(2**62), 2**62 - 1))
    vals = draw(st.lists(st.integers(0, span), max_size=40))
    vals += draw(st.lists(st.sampled_from(vals or [0]), max_size=20))  # ties
    vals = draw(st.permutations(vals + [0, span]))  # the whole span occurs
    keys = np.asarray(vals, dtype=np.uint64).astype(np.int64) + np.int64(lo)
    if I32.min <= lo and lo + span <= I32.max and draw(st.booleans()):
        keys = keys.astype(np.int32)
    return keys


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_keys())
def test_stable_argsort_matches_numpy(keys):
    _same_as_argsort(keys)


@pytest.mark.parametrize(
    "keys",
    [
        np.empty(0, np.int64),
        np.array([5]),
        np.full(9, -3),
        np.array([3, -1, 3, -2**31, 2**31 - 1, -1], dtype=np.int32),
        np.array([I64.max, I64.min, 0, -1, I64.max, I64.min]),  # span 2**64 - 1
    ],
    ids=["empty", "single", "constant", "int32-negative", "full-int64-span"],
)
def test_stable_argsort_edge_cases(keys):
    _same_as_argsort(keys)


@pytest.mark.parametrize("span", [2**16 - 1, 2**16 + 1, 2**32, 2**62])
def test_stable_argsort_large(span):
    # large enough that numpy's per-pass sort runs its bucket path
    g = np.random.default_rng(span % 1000)
    keys = g.integers(0, span, 200_000, endpoint=True) + 3 * 10**9
    keys[g.integers(0, len(keys), 1000)] = keys[0]  # many ties
    _same_as_argsort(keys)


def test_stable_argsort_rejects_float_keys():
    with pytest.raises(TypeError):
        stable_argsort(np.array([1.0, 0.0]))


_rmat, _n = graphs.compact_ids(graphs.rmat_edges(scale=8, n_edges=2000, seed=21))
# (src, dst, n): the degenerate graphs every adjacency must build, and
# a skewed one with many ties per key
GRAPHS = {
    "empty": ([], [], 3),
    "zero-degree-highest-id": ([0, 1, 0], [1, 2, 2], 3),
    "self-loops": ([1, 1, 0, 2], [1, 1, 0, 2], 3),
    "duplicate-edges": ([2, 0, 2, 2, 0], [1, 1, 1, 0, 1], 3),
    "rmat": (_rmat.src.to_numpy(), _rmat.dst.to_numpy(), _n),
}


def _arrays(src, dst):
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _argsort_csr(src, dst, n):
    """(indptr, indices, src_sorted) as NumpyCSR built them with np.argsort."""
    order = np.argsort(src, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).astype(np.int64)
    return indptr, dst[order], src[order]


@pytest.mark.parametrize("name", GRAPHS)
def test_numpy_csr_matches_argsort_build(name):
    src, dst = _arrays(*GRAPHS[name][:2])
    n = GRAPHS[name][2]
    csr = NumpyCSR(src, dst, n)
    want = _argsort_csr(src, dst, n)
    want_rev = _argsort_csr(want[1], want[2], n)  # reverse() sorts the CSR's own arrays
    for g, w in ((csr, want), (csr.reverse(), want_rev)):
        for got, exp in zip((g.indptr, g.indices, g.src_sorted), w):
            assert got.dtype == exp.dtype
            np.testing.assert_array_equal(got, exp)


@pytest.mark.parametrize("offset", [0, 3 * 10**9])
@pytest.mark.parametrize("name", GRAPHS)
def test_adj_index_matches_argsort_build(name, offset):
    src, dst = _arrays(*GRAPHS[name][:2])
    src, dst = src + offset, dst + offset
    w = np.arange(len(src), dtype=np.float64)
    for keys, nbrs in ((src, dst), (dst, src)):
        idx = _AdjIndex(keys, nbrs, {"w": w})
        order = np.argsort(keys, kind="stable")
        for got, want in ((idx.keys, keys[order]), (idx.nbrs, nbrs[order]), (idx.props["w"], w[order])):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
