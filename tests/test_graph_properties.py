"""Property tests of the graph module over generated edge lists."""

from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from shgcn import graphs
from shgcn.graphs import (
    FEATURE_LANDMARKS,
    FEATURE_TEMPERATURE,
    Graph,
    _adjacency,
    _landmark_features,
    erdos_graph,
)


@st.composite
def edge_lists(draw):
    """A node count n <= 40 and up to 60 endpoint pairs in [0, n), self-loops
    and repeats included (Graph drops both)."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    return n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def forests(draw, max_extra=0):
    """A forest on n <= 60 nodes, each node after the first joined to an
    earlier one or starting a new tree, plus up to max_extra more pairs
    (each may close a cycle)."""
    n = draw(st.integers(1, 60))
    parents = draw(st.lists(st.one_of(st.none(), st.integers(0, n)),
                            min_size=n - 1, max_size=n - 1))
    pairs = [(v, p % v) for v, p in enumerate(parents, start=1) if p is not None]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=max_extra))
    return n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _assert_landmark_features_equal_the_all_pairs_reference(n, pairs):
    adj = Graph(n, pairs, np.zeros((n, 1))).adjacency()
    dist = shortest_path(adj, method="D", unweighted=True)
    finite = np.where(np.isfinite(dist), dist, dist[np.isfinite(dist)].max() + 1.0)
    landmarks = np.unique(np.linspace(0, n - 1, min(FEATURE_LANDMARKS, n)).astype(np.int64))
    want = np.exp(-finite[:, landmarks] / FEATURE_TEMPERATURE)
    got = _landmark_features(adj)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edge_lists())
def test_landmark_features_equal_the_all_pairs_reference(case):
    _assert_landmark_features_equal_the_all_pairs_reference(*case)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(forests())
def test_landmark_features_of_forests_equal_the_all_pairs_reference(case):
    _assert_landmark_features_equal_the_all_pairs_reference(*case)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(forests(max_extra=3))
def test_landmark_features_of_forests_with_extra_edges_equal_the_all_pairs_reference(case):
    _assert_landmark_features_equal_the_all_pairs_reference(*case)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(edge_lists(), forests(max_extra=3)))
def test_landmark_features_equal_the_reference_with_one_dijkstra_row_per_block(case):
    # every block then tightens the bounds that pick the next one
    with mock.patch.object(graphs, "LANDMARK_BLOCK_CELLS", 1):
        _assert_landmark_features_equal_the_all_pairs_reference(*case)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edge_lists())
def test_adjacency_arrays_equal_the_coo_build(case):
    n, pairs = case
    edges = Graph(n, pairs, np.zeros((n, 1))).edges
    got = _adjacency(n, edges)
    i, j = edges[:, 0], edges[:, 1]
    coo = (np.ones(2 * len(edges)), (np.concatenate([i, j]), np.concatenate([j, i])))
    want = sp.csr_matrix(coo, shape=(n, n))
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def reference_erdos_edges(n: int, p: float, seed: int) -> np.ndarray:
    """The pairs i < j of triu_indices whose uniforms, one draw of all of
    them in that order, fall below p."""
    iu = np.triu_indices(n, k=1)
    mask = np.random.default_rng(seed).random(len(iu[0])) < p
    return np.column_stack([iu[0][mask], iu[1][mask]]).astype(np.int64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 80),
       st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
       st.integers(0, 2**32 - 1))
def test_erdos_edges_equal_the_triu_indices_reference(n, p, seed):
    got, want = erdos_graph(n, p, seed=seed).edges, reference_erdos_edges(n, p, seed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
