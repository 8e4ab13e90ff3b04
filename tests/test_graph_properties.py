"""Property tests of the graph module over generated edge lists."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from shgcn.graphs import FEATURE_LANDMARKS, FEATURE_TEMPERATURE, Graph, _landmark_features


@st.composite
def edge_lists(draw):
    """A node count n <= 40 and up to 60 endpoint pairs in [0, n), self-loops
    and repeats included (Graph drops both)."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    return n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(edge_lists())
def test_landmark_features_equal_the_all_pairs_reference(case):
    n, pairs = case
    adj = Graph(n, pairs, np.zeros((n, 1))).adjacency()
    dist = shortest_path(adj, method="D", unweighted=True)
    finite = np.where(np.isfinite(dist), dist, dist[np.isfinite(dist)].max() + 1.0)
    landmarks = np.unique(np.linspace(0, n - 1, min(FEATURE_LANDMARKS, n)).astype(np.int64))
    want = np.exp(-finite[:, landmarks] / FEATURE_TEMPERATURE)
    got = _landmark_features(adj)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
