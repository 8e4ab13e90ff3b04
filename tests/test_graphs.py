import numpy as np
import pytest
from scipy.sparse.csgraph import shortest_path

from shgcn.graphs import (
    FEATURE_LANDMARKS,
    FEATURE_TEMPERATURE,
    Graph,
    _landmark_features,
    all_pairs_distances,
    cycle_graph,
    delta_hyperbolicity,
    erdos_graph,
    load_graph,
    normalized_adjacency,
    parse_synthetic,
    random_tree,
    sample_negative_edges,
    split_edges,
    tree_graph,
)


def brute_force_delta(g: Graph) -> float:
    """Independent oracle: literal loop over all quadruples."""
    d = all_pairs_distances(g)
    n = g.n
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    sums = sorted(
                        [d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]]
                    )
                    best = max(best, (sums[2] - sums[1]) / 2.0)
    return best


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


def test_graph_dedupes_and_symmetrizes():
    g = Graph(3, [[0, 1], [1, 0], [2, 1], [1, 1]], np.zeros((3, 2)))
    assert g.num_edges == 2
    assert g.edge_set() == {(0, 1), (1, 2)}


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, [[0, 5]], np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# normalized adjacency
# ---------------------------------------------------------------------------


def test_single_edge_two_nodes():
    g = Graph(2, [[0, 1]], np.zeros((2, 1)))
    a = normalized_adjacency(g).matrix.toarray()
    assert np.allclose(a, [[0.5, 0.5], [0.5, 0.5]])


def test_empty_edges_gives_identity():
    g = Graph(3, np.zeros((0, 2), dtype=int), np.zeros((3, 1)))
    assert np.allclose(normalized_adjacency(g).matrix.toarray(), np.eye(3))


def test_triangle_uniform_third():
    g = Graph(3, [[0, 1], [1, 2], [0, 2]], np.zeros((3, 1)))
    assert np.allclose(normalized_adjacency(g).matrix.toarray(), np.full((3, 3), 1 / 3))


def test_rows_sum_to_one_random():
    g = erdos_graph(40, 0.1, seed=5)
    a = normalized_adjacency(g)
    ones = np.ones((40, 1))
    assert np.allclose(a @ ones, ones, atol=1e-9)


# ---------------------------------------------------------------------------
# edge splitting
# ---------------------------------------------------------------------------


def test_split_all_train():
    g = erdos_graph(20, 0.2, seed=1)
    s = split_edges(g, (1.0, 0.0, 0.0), seed=0)
    assert len(s.train_pos) == g.num_edges
    assert len(s.val_pos) == 0 and len(s.test_pos) == 0


def test_split_deterministic():
    g = erdos_graph(30, 0.15, seed=2)
    a = split_edges(g, (0.8, 0.1, 0.1), seed=9)
    b = split_edges(g, (0.8, 0.1, 0.1), seed=9)
    assert np.array_equal(a.train_pos, b.train_pos)
    assert np.array_equal(a.val_neg, b.val_neg)


def test_split_path_graph_negatives_verified():
    edges = np.column_stack([np.arange(9), np.arange(1, 10)])
    g = Graph(10, edges, np.zeros((10, 1)))
    with pytest.warns(UserWarning):
        s = split_edges(g, (0.8, 0.1, 0.1), seed=7)
    assert len(s.val_neg) == len(s.val_pos)
    assert len(s.test_neg) == len(s.test_pos)
    present = g.edge_set()
    for a, b in np.vstack([s.val_neg, s.test_neg]):
        assert (min(a, b), max(a, b)) not in present


def test_split_partition_properties():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        g = erdos_graph(n, 0.25, seed=trial)
        if g.num_edges < 5:
            continue
        s = split_edges(g, (0.7, 0.15, 0.15), seed=trial)
        parts = [set(map(tuple, p)) for p in (s.train_pos, s.val_pos, s.test_pos)]
        assert parts[0] | parts[1] | parts[2] == g.edge_set()
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert len(s.val_neg) == len(s.val_pos)
        assert len(s.test_neg) == len(s.test_pos)


def test_split_keeps_training_graph_connected_when_possible():
    g = erdos_graph(25, 0.4, seed=3)
    assert g.is_connected()
    s = split_edges(g, (0.7, 0.15, 0.15), seed=4)
    train = Graph(g.n, s.train_pos, g.features)
    assert train.is_connected()


def test_split_zero_edges_contract_error():
    g = Graph(4, np.zeros((0, 2), dtype=int), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        split_edges(g, (0.8, 0.1, 0.1), seed=0)


def test_negative_sampler_rejects_overfull():
    g = Graph(3, [[0, 1], [1, 2], [0, 2]], np.zeros((3, 1)))  # complete
    with pytest.raises(ValueError):
        sample_negative_edges(g, 1, np.random.default_rng(0))


def reference_negative_edges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """The sampler as a literal rejection loop over the same draw blocks."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    present = g.edge_set()
    chosen: list[tuple[int, int]] = []
    seen = set()
    while len(chosen) < count:
        draw = rng.integers(0, g.n, size=(max(count * 2, 32), 2))
        for a, b in draw:
            if a == b:
                continue
            pair = (int(min(a, b)), int(max(a, b)))
            if pair in present or pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64)


def _near_complete(n: int) -> Graph:
    iu = np.triu_indices(n, k=1)
    keep = np.arange(len(iu[0])) % 7 != 0  # every seventh pair is a non-edge
    return Graph(n, np.column_stack(iu)[keep], np.zeros((n, 1)))


@pytest.mark.parametrize("g", [
    tree_graph(3, 4),
    cycle_graph(30),
    erdos_graph(40, 0.2, seed=1),
    _near_complete(12),
    Graph(8, np.zeros((0, 2), dtype=int), np.zeros((8, 1))),
], ids=["tree", "cycle", "erdos", "near-complete", "edgeless"])
def test_negative_sampler_matches_reference_loop(g):
    non_edges = g.n * (g.n - 1) // 2 - g.num_edges
    for seed in range(4):
        for count in sorted({0, 1, 5, 9, min(40, non_edges), non_edges // 2}):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # consecutive calls share one generator
                got = sample_negative_edges(g, count, fast)
                want = reference_negative_edges(g, count, slow)
                assert got.dtype == want.dtype and got.shape == (count, 2)
                assert np.array_equal(got, want), (seed, count)
                assert fast.bit_generator.state == slow.bit_generator.state


# ---------------------------------------------------------------------------
# delta-hyperbolicity
# ---------------------------------------------------------------------------


def test_tree_delta_zero():
    assert delta_hyperbolicity(tree_graph(5, 1)) == 0.0  # star K_1,5
    assert delta_hyperbolicity(tree_graph(2, 4)) == 0.0  # balanced binary


def test_cycle4_delta_one():
    assert delta_hyperbolicity(cycle_graph(4)) == 1.0


def test_single_edge_delta_zero():
    g = Graph(2, [[0, 1]], np.zeros((2, 1)))
    assert delta_hyperbolicity(g) == 0.0


def test_delta_matches_brute_force():
    rng = np.random.default_rng(12)
    for trial in range(6):
        n = int(rng.integers(5, 11))
        g = erdos_graph(n, 0.5, seed=trial + 50)
        try:
            expected = brute_force_delta(g)
        except ValueError:
            continue  # disconnected draw
        assert delta_hyperbolicity(g) == expected


def test_delta_permutation_invariant():
    g = erdos_graph(12, 0.35, seed=8)
    base = delta_hyperbolicity(g)
    rng = np.random.default_rng(4)
    for _ in range(5):
        perm = rng.permutation(g.n)
        remapped = np.vectorize(lambda v: perm[v])(g.edges)
        h = Graph(g.n, remapped, g.features[np.argsort(perm)])
        assert delta_hyperbolicity(h) == base


def test_delta_bounded_by_half_diameter():
    for seed in range(5):
        g = erdos_graph(14, 0.3, seed=seed + 20)
        try:
            d = all_pairs_distances(g)
        except ValueError:
            continue
        assert delta_hyperbolicity(g) <= d.max() / 2.0


def test_delta_disconnected_contract_error():
    g = Graph(4, [[0, 1]], np.zeros((4, 1)))
    with pytest.raises(ValueError):
        delta_hyperbolicity(g)


def test_delta_node_cap():
    g = erdos_graph(30, 0.3, seed=1)
    with pytest.raises(ValueError):
        delta_hyperbolicity(g, node_cap=10)


# ---------------------------------------------------------------------------
# generators / loaders
# ---------------------------------------------------------------------------


def test_tree_counts():
    g = tree_graph(3, 5)
    assert g.n == 364 and g.num_edges == 363
    assert g.labels.max() == 5


def test_cycle_basic():
    g = cycle_graph(6)
    assert g.n == 6 and g.num_edges == 6


def test_erdos_deterministic():
    a = erdos_graph(25, 0.2, seed=3)
    b = erdos_graph(25, 0.2, seed=3)
    assert np.array_equal(a.edges, b.edges)


def reference_landmark_features(n: int, edges) -> np.ndarray:
    """Landmark profiles read off the all-pairs distance matrix."""
    g = Graph(n, edges, np.zeros((n, 1)))
    dist = shortest_path(g.adjacency(), method="D", unweighted=True)
    finite = np.where(np.isfinite(dist), dist, dist[np.isfinite(dist)].max() + 1.0)
    landmarks = np.unique(np.linspace(0, n - 1, min(FEATURE_LANDMARKS, n)).astype(np.int64))
    return np.exp(-finite[:, landmarks] / FEATURE_TEMPERATURE)


@pytest.mark.parametrize("g,connected", [
    (tree_graph(3, 4), True),
    (cycle_graph(30), True),
    (random_tree(2), True),
    (erdos_graph(40, 0.03, seed=0), False),
], ids=["tree", "cycle", "edge", "disconnected-erdos"])
def test_landmark_features_match_all_pairs_reference(g, connected):
    assert g.is_connected() == connected
    got = _landmark_features(g.n, g.edges)
    assert np.array_equal(got, reference_landmark_features(g.n, g.edges))


def test_random_tree_is_tree():
    for seed in range(10):
        n = int(np.random.default_rng(seed).integers(4, 25))
        g = random_tree(n, seed=seed)
        assert g.num_edges == n - 1
        assert g.is_connected()


def test_parse_synthetic():
    assert parse_synthetic("tree:2,3").n == 15
    assert parse_synthetic("cycle:5").n == 5
    assert parse_synthetic("erdos:10,0.5,1").n == 10
    with pytest.raises(ValueError):
        parse_synthetic("torus:4")
    with pytest.raises(ValueError):
        parse_synthetic("tree:2")


def test_load_graph_roundtrip(tmp_path):
    edges = tmp_path / "e.csv"
    edges.write_text("0,1\n1,2\n2 3\n")
    feats = tmp_path / "x.csv"
    feats.write_text("1,0\n0,1\n1,1\n0,0\n")
    labels = tmp_path / "y.csv"
    labels.write_text("0\n1\n0\n1\n")
    g = load_graph(str(edges), str(feats), str(labels))
    assert g.n == 4 and g.num_edges == 3
    assert g.features.shape == (4, 2)
    assert list(g.labels) == [0, 1, 0, 1]
