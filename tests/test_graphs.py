import importlib.util
import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from shgcn import graphs
from shgcn.graphs import (
    FEATURE_LANDMARKS,
    FEATURE_TEMPERATURE,
    Graph,
    _bfs_rows,
    _landmark_features,
    _largest_finite_distance,
    _pair_rows,
    _spanning_tree_mask,
    _far_apart_pairs,
    _pair_sweep,
    _pair_sweep_pays,
    _quadruple_sweep,
    _two_core,
    cycle_graph,
    delta_hyperbolicity,
    erdos_graph,
    graph_from_train_edges,
    load_graph,
    normalized_adjacency,
    parse_synthetic,
    random_tree,
    sample_negative_edges,
    split_edges,
    split_nodes,
    tree_graph,
)
from shgcn.training import _disjoint_union


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
    assert set(map(tuple, g.edges.tolist())) == {(0, 1), (1, 2)}


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, [[0, 5]], np.zeros((2, 1)))


@pytest.mark.parametrize("loop", [[5, 5], [-1, -1]])
def test_graph_rejects_out_of_range_self_loop(loop):
    with pytest.raises(ValueError, match="edge endpoint out of range"):
        Graph(3, [loop], np.zeros((3, 1)))


def test_graph_rejects_negative_labels():
    with pytest.raises(ValueError, match="labels must be non-negative"):
        Graph(3, [[0, 1]], np.zeros((3, 1)), [0, -1, 1])
    assert Graph(3, [[0, 1]], np.zeros((3, 1)), [0, 2, 1]).labels.tolist() == [0, 2, 1]


def reference_canonical_edges(n: int, edges) -> np.ndarray:
    """The row-wise canonicaliser Graph used before it keyed pairs as
    lo * n + hi: sort each row, drop duplicate rows, drop self-loops, then
    range-check what is left."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        edges = np.unique(np.column_stack([lo, hi]), axis=0)
        if np.any(edges[:, 0] == edges[:, 1]):
            edges = edges[edges[:, 0] != edges[:, 1]]
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
    return edges


def _random_edge_lists(count: int):
    """Edge lists with duplicates, reversed pairs and self-loops, plus the
    empty list and single-node graphs."""
    rng = np.random.default_rng(2024)
    yield 3, np.zeros((0, 2), dtype=np.int64)
    yield 1, []
    yield 1, [[0, 0], [0, 0]]
    for _ in range(count):
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        dupes = edges[rng.integers(0, max(len(edges), 1), size=len(edges) // 3)]
        edges = np.concatenate([edges, dupes[:, ::-1], dupes])
        yield n, edges[rng.permutation(len(edges))]


def test_canonical_edges_equal_the_row_wise_reference():
    for n, edges in _random_edge_lists(2000):
        expected = reference_canonical_edges(n, edges)
        got = Graph(n, edges, np.zeros((n, 1))).edges
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# normalized adjacency
# ---------------------------------------------------------------------------


def test_single_edge_two_nodes():
    g = Graph(2, [[0, 1]], np.zeros((2, 1)))
    a = normalized_adjacency(g).toarray()
    assert np.allclose(a, [[0.5, 0.5], [0.5, 0.5]])


def test_empty_edges_gives_identity():
    g = Graph(3, np.zeros((0, 2), dtype=int), np.zeros((3, 1)))
    assert np.allclose(normalized_adjacency(g).toarray(), np.eye(3))


def test_triangle_uniform_third():
    g = Graph(3, [[0, 1], [1, 2], [0, 2]], np.zeros((3, 1)))
    assert np.allclose(normalized_adjacency(g).toarray(), np.full((3, 3), 1 / 3))


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a forest falls back silently
        s = split_edges(g, (0.8, 0.1, 0.1), seed=7)
    assert len(s.val_neg) == len(s.val_pos)
    assert len(s.test_neg) == len(s.test_pos)
    present = set(map(tuple, g.edges.tolist()))
    for a, b in np.vstack([s.val_neg, s.test_neg]):
        assert (min(a, b), max(a, b)) not in present


def test_split_fallback_warns_when_the_graph_has_a_cycle():
    # a 12-node path plus the chord (0, 2): the 11-edge spanning tree does
    # not fit in the 10 training edges of 12
    edges = np.vstack([np.column_stack([np.arange(11), np.arange(1, 12)]), [[0, 2]]])
    g = Graph(12, edges, np.zeros((12, 1)))
    with pytest.warns(UserWarning, match="spanning-forest reservation"):
        s = split_edges(g, (0.85, 0.05, 0.10), seed=0)
    assert len(s.train_pos) == 10


# some of these Erdos graphs have cycles that the training part cannot keep
@pytest.mark.filterwarnings("ignore:spanning-forest reservation:UserWarning")
def test_split_partition_properties():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        g = erdos_graph(n, 0.25, seed=trial)
        if g.num_edges < 5:
            continue
        s = split_edges(g, (0.7, 0.15, 0.15), seed=trial)
        parts = [set(map(tuple, p)) for p in (s.train_pos, s.val_pos, s.test_pos)]
        assert parts[0] | parts[1] | parts[2] == set(map(tuple, g.edges.tolist()))
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert len(s.val_neg) == len(s.val_pos)
        assert len(s.test_neg) == len(s.test_pos)


def test_split_keeps_training_graph_connected_when_possible():
    g = erdos_graph(25, 0.4, seed=3)
    assert g.is_connected()
    s = split_edges(g, (0.7, 0.15, 0.15), seed=4)
    train = Graph(g.n, s.train_pos, g.features)
    assert train.is_connected()


BAD_RATIOS = [(0.5, 0.5), (0.5, 0.25, 0.25, 0.0), (1.2, -0.1, -0.1), (0.1, 0.7, 0.7),
              (0.5, 0.5, float("nan"))]


@pytest.mark.parametrize("ratios", BAD_RATIOS,
                         ids=["two", "four", "negative", "sum-above-1", "nan"])
def test_splits_reject_bad_ratios(ratios):
    with pytest.raises(ValueError, match="three nonnegatives summing to 1"):
        split_nodes(10, ratios, 0)
    with pytest.raises(ValueError, match="three nonnegatives summing to 1"):
        split_edges(erdos_graph(20, 0.3, seed=1), ratios, 0)


@pytest.mark.parametrize("count", [3, 7])
def test_splits_never_overlap_when_val_and_test_round_up(count):
    # half and half of 3 items round to 2 and 2; the test part gives way
    parts = split_nodes(count, (0.0, 0.5, 0.5), 0)
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(count))
    edges = np.column_stack([np.arange(count), np.arange(1, count + 1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a forest falls back silently
        s = split_edges(Graph(count + 1, edges, np.zeros((count + 1, 1))), (0.0, 0.5, 0.5), 0)
    used = np.vstack([s.train_pos, s.val_pos, s.test_pos])
    assert np.array_equal(np.sort(used, axis=0), edges)
    assert len(s.val_pos) == len(parts[1]) == round(count / 2)


def reference_spanning_tree_mask(n: int, edges: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Union-find over the edges in visit order: keep an edge when it
    joins two components."""
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    keep = np.zeros(len(edges), dtype=bool)
    for idx in order:
        ra, rb = find(edges[idx, 0]), find(edges[idx, 1])
        if ra != rb:
            parent[ra] = rb
            keep[idx] = True
    return keep


@pytest.mark.parametrize("g", [
    *(erdos_graph(n, p, seed=s) for n, p, s in
      [(12, 0.1, 0), (20, 0.15, 1), (30, 0.3, 2), (40, 0.05, 3), (25, 0.9, 4)]),
    *(cycle_graph(n) for n in (3, 7, 16)),
    *(random_tree(n, seed=s) for n, s in [(2, 0), (9, 1), (50, 2)]),
], ids=lambda g: f"n{g.n}-m{g.num_edges}")
def test_spanning_forest_equals_union_find(g):
    rng = np.random.default_rng(g.num_edges)
    orders = [np.arange(g.num_edges), np.arange(g.num_edges)[::-1].copy()]
    orders += [rng.permutation(g.num_edges) for _ in range(4)]
    for order in orders:
        assert np.array_equal(_spanning_tree_mask(g.n, g.edges, order),
                              reference_spanning_tree_mask(g.n, g.edges, order))


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
    present = set(map(tuple, g.edges.tolist()))
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


def unsorted_lookup_negative_edges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """The vectorised sampler as it was before its edge lookup moved to the
    sorted distinct keys: every draw is looked up, in draw order."""
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    n = g.n
    if n * (n - 1) // 2 - g.num_edges < count:
        raise ValueError("graph too dense to sample that many negatives")
    edge_keys = np.append(g.edges[:, 0] * n + g.edges[:, 1], n * n)
    chosen = np.zeros(0, dtype=np.int64)
    while len(chosen) < count:
        draw = rng.integers(0, n, size=(max(count * 2, 32), 2))
        lo, hi = draw.min(axis=1), draw.max(axis=1)
        keys = (lo * n + hi)[lo != hi]
        keys = keys[edge_keys[np.searchsorted(edge_keys, keys)] != keys]
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, chosen)]
        chosen = np.concatenate([chosen, keys[: count - len(chosen)]])
    return np.column_stack([chosen // n, chosen % n])


@pytest.mark.parametrize("g", [
    tree_graph(3, 4),
    cycle_graph(40),
    erdos_graph(40, 0.2, seed=1),
    erdos_graph(40, 0.03, seed=0),
    _near_complete(14),
], ids=["tree", "cycle", "erdos-connected", "erdos-disconnected", "near-complete"])
def test_negative_sampler_matches_unsorted_lookup_sampler(g):
    non_edges = g.n * (g.n - 1) // 2 - g.num_edges
    for seed in range(3):
        for count in (1, 5, non_edges):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):  # consecutive calls share one generator
                got = sample_negative_edges(g, count, fast)
                want = unsorted_lookup_negative_edges(g, count, slow)
                assert got.dtype == want.dtype and np.array_equal(got, want), (seed, count)
                assert fast.bit_generator.state == slow.bit_generator.state


class _SelfLoopsFirst:
    """A generator whose first `integers` block is all self-loops; later
    blocks come from a seeded numpy generator."""

    def __init__(self, seed: int):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def integers(self, low, high, size):
        self.calls += 1
        if self.calls == 1:
            return np.repeat(self.rng.integers(low, high, size=(size[0], 1)), 2, axis=1)
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize("count", [1, 7, 40])
def test_negative_sampler_survives_a_block_of_self_loops_only(count):
    g = tree_graph(3, 3)
    fast, slow = _SelfLoopsFirst(5), _SelfLoopsFirst(5)
    got = sample_negative_edges(g, count, fast)
    assert np.array_equal(got, reference_negative_edges(g, count, slow))
    assert fast.calls == slow.calls == 2 and got.shape == (count, 2)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_negative_sampler_dense_graph_draws_several_blocks():
    g = _near_complete(14)
    count = g.n * (g.n - 1) // 2 - g.num_edges
    rng, one_block = np.random.default_rng(0), np.random.default_rng(0)
    got = sample_negative_edges(g, count, rng)
    one_block.integers(0, g.n, size=(max(2 * count, 32), 2))
    assert rng.bit_generator.state != one_block.bit_generator.state
    assert np.array_equal(got, reference_negative_edges(g, count, np.random.default_rng(0)))


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


def all_pairs_distances(g: Graph) -> np.ndarray:
    """BFS distances between every pair of nodes of a connected graph."""
    dist = shortest_path(g.adjacency(), method="D", unweighted=True)
    if np.any(np.isinf(dist)):
        raise ValueError("graph is disconnected; delta-hyperbolicity undefined")
    return dist


def reference_delta(g: Graph) -> float:
    """The square-block kernel over all nodes that the triangular-block
    search over the 2-core replaced, kept as the exact reference."""
    dist = all_pairs_distances(g).astype(np.int16)
    n = g.n
    if n < 2:
        return 0.0
    best = 0
    chunk = 32
    # every 4-subset {i < j < k < l} is reached with k, l drawn past the
    # chunk base; tuples with repeated nodes contribute zero, re-orderings
    # repeat values already covered, so the running max is unaffected
    for i in range(n - 1):
        row_i = dist[i]
        for j0 in range(i + 1, n, chunk):
            js = np.arange(j0, min(j0 + chunk, n))
            lo = j0 + 1
            if lo >= n:
                continue
            sub = dist[lo:, lo:]
            a = row_i[None, lo:, None] + dist[js][:, None, lo:]  # d_ik + d_jl
            b = np.transpose(a, (0, 2, 1))                       # d_il + d_jk
            c = dist[i, js][:, None, None] + sub[None, :, :]     # d_ij + d_kl
            hi = np.maximum(a, b)
            top = np.maximum(hi, c)
            np.minimum(a, b, out=a)
            np.minimum(hi, c, out=hi)
            np.maximum(a, hi, out=a)  # second largest
            np.subtract(top, a, out=top)
            best = max(best, int(top.max()))
    return best / 2.0


def _bare(n: int, edges) -> Graph:
    return Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))


def _ring(nodes) -> list:
    return [(nodes[t], nodes[(t + 1) % len(nodes)]) for t in range(len(nodes))]


def _with_pendant_trees(g: Graph, roots, sizes, seed: int) -> Graph:
    """g with a random tree of the given size hung from each root."""
    edges = [tuple(e) for e in g.edges]
    n = g.n
    for t, (root, size) in enumerate(zip(roots, sizes)):
        tree = random_tree(size, seed=seed + t)
        # the tree's node 0 becomes root, the others get fresh ids
        ids = np.concatenate([[root], np.arange(n, n + size - 1)])
        edges += [(ids[a], ids[b]) for a, b in tree.edges]
        n += size - 1
    return _bare(n, edges)


@pytest.mark.parametrize("n", [4, 5, 16, 17, 31, 33, 48, 49, 65, 97])
def test_delta_matches_reference_across_block_edges(n):
    # an erdos graph plus a Hamiltonian cycle is connected with every node
    # in the 2-core, so the core size straddles the chunk and block edges
    for p, seed in ((0.02, 1), (0.1, 2), (0.4, 3)):
        g = _bare(n, np.concatenate([erdos_graph(n, p, seed=seed).edges,
                                     _ring(np.arange(n))]))
        assert len(_two_core(g)) == n
        assert delta_hyperbolicity(g) == reference_delta(g), (p, seed)


def _lone_square(n: int, square) -> Graph:
    """A 4-cycle a-b-c-d on the given ids, every other node in one clique
    joined to both a and b: {a, b, c, d} is the only quadruple worth 1, all
    others give at most 1/2, and every node is in the 2-core."""
    a, b, c, d = square
    rest = np.setdiff1d(np.arange(n), square)
    edges = _ring([a, b, c, d]) + [(x, y) for x in rest for y in rest if x < y]
    edges += [(x, y) for x in rest for y in (a, b)]
    return _bare(n, edges)


@pytest.mark.parametrize("square", [
    (0, 1, 2, 3), (68, 69, 70, 71),
    (0, 32, 33, 34), (0, 33, 34, 71), (5, 37, 38, 39), (5, 38, 70, 71),
    (0, 1, 17, 18), (0, 1, 18, 19), (0, 1, 17, 71), (3, 20, 37, 38), (3, 20, 38, 39),
])
def test_delta_finds_a_lone_square_at_every_block_position(square):
    # the square's sorted ids put j on the last or first slot of a chunk
    # and k on the last or first slot of a block
    g = _lone_square(72, square)
    assert delta_hyperbolicity(g) == reference_delta(g) == 1.0


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 5), (4, 4), (7, 2)])
def test_pair_sweep_finds_a_lone_square_at_every_block_and_tile_position(rows, cols,
                                                                         monkeypatch):
    # only the square's two diagonals meet at 1, and the square's ids put
    # them at 41 different pairs of positions among the 16 far-apart pairs
    monkeypatch.setattr(graphs, "DELTA_PAIR_ROWS", rows)
    monkeypatch.setattr(graphs, "DELTA_PAIR_COLS", cols)
    for square in itertools.permutations(range(8), 4):
        if square[0] > square[1]:
            continue  # (b, a, d, c) gives the graph that (a, b, c, d) gives
        dist = all_pairs_distances(_lone_square(8, square)).astype(np.int16)
        assert _pair_sweep(dist, *_far_apart_pairs(dist)) == 2, square


def test_lone_square_has_one_quadruple_worth_one():
    g = _lone_square(9, (0, 4, 7, 8))
    d = all_pairs_distances(g)
    worth_one = []
    for quad in itertools.combinations(range(g.n), 4):
        i, j, k, l = quad
        sums = sorted([d[i, j] + d[k, l], d[i, k] + d[j, l], d[i, l] + d[j, k]])
        if sums[2] - sums[1] == 2:
            worth_one.append(quad)
        assert sums[2] - sums[1] <= 2
    assert worth_one == [(0, 4, 7, 8)]


def test_delta_matches_reference_on_cycles_with_pendant_trees():
    rng = np.random.default_rng(7)
    for m in (4, 5, 9, 20, 33):
        roots = rng.choice(m, size=3, replace=False)
        sizes = rng.integers(2, 12, size=3)
        g = _with_pendant_trees(cycle_graph(m), roots, sizes, seed=m)
        assert len(_two_core(g)) == m
        assert delta_hyperbolicity(g) == reference_delta(g) == reference_delta(cycle_graph(m))


def test_delta_matches_reference_on_two_cycles_joined_by_a_path():
    for m1, m2, path in ((4, 4, 1), (6, 9, 3), (12, 5, 6), (17, 16, 2)):
        left, right = np.arange(m1), np.arange(m1, m1 + m2)
        inner = np.arange(m1 + m2, m1 + m2 + path - 1)
        chain = np.concatenate([[left[0]], inner, [right[0]]])
        edges = _ring(left) + _ring(right) + list(zip(chain[:-1], chain[1:]))
        g = _bare(m1 + m2 + path - 1, edges)
        assert len(_two_core(g)) == g.n
        assert delta_hyperbolicity(g) == reference_delta(g)


def test_delta_matches_reference_on_random_trees():
    for seed in range(10):
        g = random_tree(int(np.random.default_rng(seed).integers(2, 60)), seed=seed)
        assert len(_two_core(g)) <= 1
        assert delta_hyperbolicity(g) == reference_delta(g) == 0.0


def test_delta_empty_two_core():
    g = _bare(4, [(0, 1), (1, 2), (2, 3)])  # the last two survivors are both leaves
    assert len(_two_core(g)) == 0
    assert delta_hyperbolicity(g) == reference_delta(g) == 0.0


def test_delta_unchanged_by_pendant_trees():
    for seed, g in enumerate([cycle_graph(8), erdos_graph(40, 0.15, seed=3),
                              _bare(6, _ring(np.arange(6)) + [(0, 3)])]):
        base = delta_hyperbolicity(g)
        assert base == reference_delta(g) > 0
        hung = _with_pendant_trees(g, [0, 1, g.n - 1], [5, 20, 2], seed=seed)
        assert delta_hyperbolicity(hung) == base


def _wheel(rim: int) -> Graph:
    """Hub 0 joined to every node of the cycle 1..rim."""
    return _bare(rim + 1, _ring(np.arange(1, rim + 1)) + [(0, i) for i in range(1, rim + 1)])


def _friendship(triangles: int) -> Graph:
    """Triangles that share the one hub 0."""
    return _bare(2 * triangles + 1, [e for t in range(1, 2 * triangles, 2)
                                     for e in ((0, t), (0, t + 1), (t, t + 1))])


def _ladder(rungs: int) -> Graph:
    rails = [(i, i + 1) for i in range(rungs - 1)]
    rails += [(a + rungs, b + rungs) for a, b in rails]
    return _bare(2 * rungs, rails + [(i, i + rungs) for i in range(rungs)])


def _necklace(beads: int) -> Graph:
    """4-cycles in a row, each joined to the next by a bridge from its node
    2 to the next one's node 0."""
    edges = [e for b in range(beads) for e in _ring(np.arange(4 * b, 4 * b + 4))]
    return _bare(4 * beads, edges + [(4 * b + 2, 4 * b + 4) for b in range(beads - 1)])


def _grid(rows: int, cols: int) -> Graph:
    ids = np.arange(rows * cols).reshape(rows, cols)
    edges = [(a, b) for line in (*ids, *ids.T) for a, b in zip(line[:-1], line[1:])]
    return _bare(rows * cols, edges)


def _erdos_ring(n: int, p: float, seed: int) -> Graph:
    return _bare(n, np.concatenate([erdos_graph(n, p, seed=seed).edges, _ring(np.arange(n))]))


def _core_distances(g: Graph) -> np.ndarray:
    core = _two_core(g)
    return all_pairs_distances(g)[np.ix_(core, core)].astype(np.int16)


DELTA_FAMILIES = [
    *(_wheel(rim) for rim in (3, 4, 5, 12, 31)),
    *(_friendship(k) for k in (2, 3, 16)),
    *(_ladder(rungs) for rungs in (2, 3, 9, 24)),
    *(_necklace(beads) for beads in (1, 2, 5)),
    *(_grid(r, c) for r, c in ((2, 2), (3, 5), (6, 6), (4, 9))),
    *(cycle_graph(n) for n in (3, 5, 6, 11, 40)),
    *(_erdos_ring(n, p, seed) for n in (12, 60, 150) for seed, p in enumerate((0.02, 0.1, 0.4))),
]


@pytest.mark.parametrize("g", DELTA_FAMILIES, ids=lambda g: f"n{g.n}-m{g.num_edges}")
def test_delta_and_both_sweeps_match_reference_on_graph_families(g, monkeypatch):
    expected = reference_delta(g)
    assert delta_hyperbolicity(g) == expected
    dist = _core_distances(g)
    if len(dist) >= 4:
        far = _far_apart_pairs(dist)
        assert _quadruple_sweep(dist) == _pair_sweep(dist, *far) == 2 * expected
        # blocks and tiles of a few pairs put every pair near one of their edges
        monkeypatch.setattr(graphs, "DELTA_PAIR_ROWS", 3)
        monkeypatch.setattr(graphs, "DELTA_PAIR_COLS", 5)
        assert _pair_sweep(dist, *far) == 2 * expected


@pytest.mark.parametrize("g,pairs_pay", [
    (_erdos_ring(100, 0.02, 0), True),   # few far-apart pairs, long distances
    (_grid(8, 8), True),
    (_wheel(40), False),                 # every rim pair not on the rim is far-apart
    (_friendship(20), False),
], ids=["erdos-ring", "grid", "wheel", "friendship"])
def test_delta_picks_the_sweep_by_its_counts(g, pairs_pay):
    dist = _core_distances(g)
    x, _ = _far_apart_pairs(dist)
    assert _pair_sweep_pays(len(dist), len(x)) is pairs_pay
    assert delta_hyperbolicity(g) == reference_delta(g)


def test_far_apart_pairs_alone_give_the_brute_force_delta():
    rng = np.random.default_rng(31)
    checked = 0
    for trial in range(40):
        g = erdos_graph(int(rng.integers(4, 10)), float(rng.uniform(0.3, 0.7)), seed=trial)
        if not g.is_connected():
            continue
        d = all_pairs_distances(g)
        nbrs = [np.flatnonzero(row) for row in g.adjacency().toarray()]
        far = [(x, y) for x, y in itertools.combinations(range(g.n), 2)
               if d[nbrs[x], y].max() <= d[x, y] and d[x, nbrs[y]].max() <= d[x, y]]
        got = _far_apart_pairs(d.astype(np.int16))
        assert list(zip(*(a.tolist() for a in got))) == far
        best = 0.0
        for (x, y), (u, v) in itertools.combinations(far, 2):
            other = max(d[x, u] + d[y, v], d[x, v] + d[y, u])
            best = max(best, (d[x, y] + d[u, v] - other) / 2.0)
        assert best == brute_force_delta(g)
        checked += 1
    assert checked >= 20


def test_delta_battery_tiny_prints_reference_deltas(capsys):
    spec = importlib.util.spec_from_file_location(
        "delta_battery", Path(__file__).resolve().parent.parent / "tools" / "delta_battery.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--tiny"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = tool.battery(tiny=True)
    assert header.split()[-2:] == ["delta", "seconds"] and len(lines) == len(rows)
    for line, (name, build) in zip(lines, rows):
        assert line.startswith(name)
        assert float(line.split()[-2]) == reference_delta(build()), line


# ---------------------------------------------------------------------------
# generators / loaders
# ---------------------------------------------------------------------------


def test_tree_counts():
    g = tree_graph(3, 5)
    assert g.n == 364 and g.num_edges == 363
    assert g.labels.max() == 5


def reference_tree(branching: int, depth: int):
    """Edges and depth labels of the complete tree, grown level by level."""
    edges, labels, frontier, next_id = [], [0], [0], 1
    for level in range(1, depth + 1):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                labels.append(level)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.asarray(labels)


@pytest.mark.parametrize("b,d", [(1, 0), (1, 5), (2, 0), (2, 4), (3, 6), (4, 3)])
def test_tree_matches_level_by_level_reference(b, d):
    g = tree_graph(b, d)
    edges, labels = reference_tree(b, d)
    assert g.n == len(labels) and g.edges.shape == edges.shape
    assert np.array_equal(g.edges, edges) and g.edges.dtype == edges.dtype
    assert np.array_equal(g.labels, labels)
    assert np.array_equal(g.features, reference_landmark_features(g.n, edges))


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


def _disconnected_graphs():
    """Disconnected graphs, many with isolated nodes: sparse Erdős–Rényi
    draws, and paths whose last node id leaves a gap of isolated ids."""
    graphs = [g for g in (erdos_graph(n, p, seed=s) for n in (5, 17, 40, 90)
                          for p in (0.02, 0.05, 0.1) for s in range(4))
              if g.num_edges and not g.is_connected()]
    for n, last in [(4, 2), (40, 35), (300, 0), (300, 299)]:
        path = np.array([[0, 1], [1, 2], [2, last]])
        graphs.append(Graph(n, path, np.zeros((n, 1))))
    return graphs


def _path(n: int, start: int = 0, total: int | None = None) -> Graph:
    """The path start, start + 1, ..., start + n - 1 in a graph of `total`
    nodes (n by default)."""
    nodes = np.arange(start, start + n)
    return Graph(total or n, np.column_stack([nodes[:-1], nodes[1:]]), np.zeros((total or n, 1)))


# a tree's training graph: one component per held-out edge, plus one
TREE = tree_graph(3, 4)
TREE_TRAIN = graph_from_train_edges(TREE, split_edges(TREE, (0.85, 0.05, 0.1), seed=0))


@pytest.mark.parametrize("g,connected", [
    pytest.param(TREE, True, id="tree"),
    pytest.param(cycle_graph(30), True, id="cycle"),
    pytest.param(random_tree(2), True, id="edge"),
    pytest.param(erdos_graph(40, 0.03, seed=0), False, id="disconnected-erdos"),
    pytest.param(_path(600), True, id="path-600"),
    pytest.param(TREE_TRAIN, False, id="tree-train-graph"),
    pytest.param(Graph(1, np.zeros((0, 2), dtype=int), np.zeros((1, 1))), True, id="one-node"),
    pytest.param(Graph(6, np.zeros((0, 2), dtype=int), np.zeros((6, 1))), False, id="edgeless"),
    *[pytest.param(g, False, id=f"disconnected-n{g.n}-m{g.num_edges}")
      for g in _disconnected_graphs()],
])
def test_landmark_features_match_all_pairs_reference(g, connected):
    assert g.is_connected() == connected
    got, want = _landmark_features(g.adjacency()), reference_landmark_features(g.n, g.edges)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _sparse_graph(seed: int) -> tuple[int, np.ndarray]:
    """A node count n < 60 and its edges: random pairs for even seeds, a
    random forest plus up to three random pairs for odd ones."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    if seed % 2:
        pairs = [(v, int(rng.integers(0, v))) for v in range(1, n) if rng.random() < 0.9]
        pairs = np.array(pairs + rng.integers(0, n, size=(int(rng.integers(0, 4)), 2)).tolist())
    else:
        pairs = rng.integers(0, n, size=(int(rng.integers(n // 2, 2 * n)), 2))
    return n, Graph(n, pairs, np.zeros((n, 1))).edges


def test_largest_finite_distance_with_one_dijkstra_row_per_block(monkeypatch):
    # with one row per block, each block's bounds decide which nodes the
    # next ones still search; moved to ids 1..n of a graph 16 (n + 1)
    # nodes wide, the edges meet no landmark, so only the sweeps bound them
    monkeypatch.setattr(graphs, "LANDMARK_BLOCK_CELLS", 1)
    for seed in range(600):
        n, edges = _sparse_graph(seed)
        dist = shortest_path(Graph(n, edges, np.zeros((n, 1))).adjacency(), method="D",
                             unweighted=True)
        want = dist[np.isfinite(dist)].max()
        for shift, total in ((0, n), (1, 16 * (n + 1))):
            adj = Graph(total, edges + shift, np.zeros((total, 1))).adjacency()
            landmarks = np.unique(np.linspace(0, total - 1, min(FEATURE_LANDMARKS, total))
                                  .astype(np.int64))
            got = _largest_finite_distance(adj, landmarks, _bfs_rows(adj, landmarks))
            assert got == want, (seed, shift)


def test_isolated_nodes_do_not_make_landmark_features_quadratic(tmp_path):
    # 3,001 nodes, 2,997 of them isolated: an all-pairs distance matrix
    # alone would take 72 MB
    edges = tmp_path / "e.txt"
    edges.write_text("0 1\n1 2\n2 3000\n")
    tracemalloc.start()
    try:
        g = load_graph(str(edges))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 3001 and g.features.shape == (3001, FEATURE_LANDMARKS)
    assert peak < 16 * 2**20


def test_landmark_features_on_two_long_paths_stay_in_bounded_memory():
    # two 2,000-node paths: every node has an edge, so one (n, n) distance
    # call would take 128 MB
    n = 4000
    edges = np.concatenate([_path(2000).edges, _path(2000, start=2000, total=n).edges])
    adj = Graph(n, edges, np.zeros((n, 1))).adjacency()
    tracemalloc.start()
    try:
        got = _landmark_features(adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    # within a path the distance is the id gap; across, one beyond the
    # largest finite distance, 1,999
    nodes = np.arange(n)[:, None]
    landmarks = np.unique(np.linspace(0, n - 1, FEATURE_LANDMARKS).astype(np.int64))
    dist = np.where(nodes // 2000 == landmarks // 2000, np.abs(nodes - landmarks), 2000.0)
    assert got.tobytes() == np.exp(-dist / FEATURE_TEMPERATURE).tobytes()


@pytest.mark.parametrize("g", [
    tree_graph(3, 4), cycle_graph(31), _path(600), TREE_TRAIN,
    erdos_graph(40, 0.03, seed=0), _path(3, start=2, total=9),
    Graph(5, np.zeros((0, 2), dtype=int), np.zeros((5, 1))),
    Graph(1, np.zeros((0, 2), dtype=int), np.zeros((1, 1))),
], ids=["tree", "cycle", "path-600", "tree-train-graph", "disconnected-erdos",
        "path-with-isolated-nodes", "edgeless", "one-node"])
def test_bfs_rows_equal_dijkstra_rows(g):
    adj = g.adjacency()
    _, comp = connected_components(adj, directed=False)
    every = np.arange(g.n)
    for sources in (every, every[::-1][:5], every[::7], every[-1:]):
        got = _bfs_rows(adj, sources)
        want = shortest_path(adj, method="D", unweighted=True, indices=sources)
        assert got.shape == want.shape == (len(sources), g.n) and got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.all(got[np.arange(len(sources)), sources] == 0.0)
        # inf exactly where a node lies in another component than the source
        assert np.array_equal(np.isinf(got), comp[sources][:, None] != comp[None, :])


def bfs_is_connected(g: Graph) -> bool:
    """Connectivity by a breadth-first search from node 0."""
    if g.n <= 1:
        return True
    return len(breadth_first_order(g.adjacency(), 0, return_predecessors=False)) == g.n


ERDOS = [erdos_graph(60, 0.1, seed=s) for s in range(8)]  # seed 5 is disconnected
ERDOS += [erdos_graph(40, 0.03, seed=0), erdos_graph(12, 1.0, seed=2)]


@pytest.mark.parametrize("g", [
    tree_graph(3, 4), cycle_graph(3), cycle_graph(31), random_tree(2), random_tree(57, seed=4),
    *ERDOS,
], ids=lambda g: f"n{g.n}-m{g.num_edges}")
def test_generated_features_match_references(g):
    assert g.is_connected() == bfs_is_connected(g)
    assert np.array_equal(g.features, reference_landmark_features(g.n, g.edges))


@pytest.mark.parametrize("g", ERDOS, ids=lambda g: f"n{g.n}-m{g.num_edges}")
def test_erdos_labels_split_degrees_at_the_median(g):
    degrees = np.asarray(g.adjacency().sum(axis=1)).reshape(-1)
    assert np.array_equal(g.labels, (degrees > np.median(degrees)).astype(np.int64))


def test_edgeless_erdos_has_zero_features_and_labels():
    g = erdos_graph(5, 0.0)
    assert g.num_edges == 0 and not g.is_connected() and bfs_is_connected(g) is False
    assert np.array_equal(g.features, np.zeros((5, 5))) and np.array_equal(g.labels, np.zeros(5))


@pytest.mark.parametrize("make,ok,too_big", [
    (lambda n: tree_graph(3, n), 3, 4),  # 40 and 121 nodes
    (lambda n: tree_graph(1, n), 39, 40),  # a path of n + 1 nodes
    (cycle_graph, 40, 41),
    (lambda n: erdos_graph(n, 0.1), 40, 41),
    (random_tree, 40, 41),
])
def test_generators_refuse_more_than_max_nodes(monkeypatch, make, ok, too_big):
    monkeypatch.setattr(graphs, "MAX_NODES", 40)
    assert make(ok).n <= 40
    with pytest.raises(ValueError, match="more than the limit of 40 nodes"):
        make(too_big)


def test_deep_tree_is_refused_without_counting_its_nodes():
    # 2 ** (10 ** 18) would never finish; the closed form stops at 64 levels
    with pytest.raises(ValueError, match="more than the limit"):
        tree_graph(2, 10**18)


@pytest.mark.parametrize("n", [2, 3, 80, graphs.MAX_NODES])
def test_pair_rows_invert_the_row_major_pair_order_at_every_row_boundary(n):
    # the first, second, last and next-to-last pair of every row, where
    # the float root of the closed form is nearest an integer
    i = np.arange(n - 1, dtype=np.int64)
    start = i * (2 * n - 1 - i) // 2
    for k, j in [(start, i + 1), (start + 1, i + 2), (start + n - 2 - i, np.full(n - 1, n - 1)),
                 (start + n - 3 - i, np.full(n - 1, n - 2))]:
        keep = (j > i) & (j < n)
        got = _pair_rows(k[keep], n)
        assert np.array_equal(got, np.column_stack([i[keep], j[keep]]))


def test_pair_rows_enumerate_triu_indices():
    for n in range(1, 40):
        got = _pair_rows(np.arange(n * (n - 1) // 2), n)
        assert np.array_equal(got, np.column_stack(np.triu_indices(n, k=1)))


def test_sparse_erdos_graph_stays_in_bounded_memory():
    # the pair list of triu_indices and one draw of all 8 million
    # uniforms would take 190.7 MiB
    tracemalloc.start()
    try:
        g = erdos_graph(4000, 0.001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 4000 and g.features.shape == (4000, FEATURE_LANDMARKS)
    assert peak <= 16 * 2**20


def test_a_tree_training_graph_needs_no_dijkstra_row(monkeypatch):
    g = tree_graph(3, 7)
    train = graph_from_train_edges(g, split_edges(g, (0.85, 0.05, 0.1), seed=0))
    adj = train.adjacency()
    assert not train.is_connected()
    calls = []
    monkeypatch.setattr(graphs, "shortest_path", lambda *a, **k: calls.append(k))
    assert _landmark_features(adj).shape == (g.n, FEATURE_LANDMARKS)
    assert calls == []


def test_random_tree_is_tree():
    for seed in range(10):
        n = int(np.random.default_rng(seed).integers(4, 25))
        g = random_tree(n, seed=seed)
        assert g.num_edges == n - 1
        assert g.is_connected()
    for seed in range(3):
        assert random_tree(2, seed=seed).edges.tolist() == [[0, 1]]


def _member(n: int, edges) -> Graph:
    return Graph(n, edges, np.arange(2.0 * n).reshape(n, 2))


@pytest.mark.parametrize("members", [
    [_member(1, []), _member(3, [[0, 1], [1, 2], [2, 0]]), _member(4, []),
     _member(5, [[4, 0], [1, 3]]), _member(2, [])],
    [_member(1, []), _member(3, [])],
])
def test_disjoint_union_with_edgeless_members(members):
    union, membership = _disjoint_union(members)
    offsets = np.cumsum([0] + [g.n for g in members])
    expected = [(u + off, v + off) for g, off in zip(members, offsets) for u, v in g.edges]
    assert union.n == offsets[-1]
    assert union.edges.dtype == np.int64 and union.edges.shape == (len(expected), 2)
    assert union.edges.tolist() == [list(e) for e in expected]
    assert np.array_equal(union.features, np.concatenate([g.features for g in members]))
    assert membership.dtype == np.int64
    assert membership.tolist() == [i for i, g in enumerate(members) for _ in range(g.n)]


def test_parse_synthetic():
    assert parse_synthetic("tree:2,3").n == 15
    assert parse_synthetic("cycle:5").n == 5
    assert parse_synthetic("erdos:10,0.5,1").n == 10
    with pytest.raises(ValueError):
        parse_synthetic("torus:4")
    with pytest.raises(ValueError):
        parse_synthetic("tree:2")


@pytest.mark.parametrize("spec,fields", [
    ("tree:2,3,9", 3), ("tree:2,,3", 3), ("tree", 0),
    ("cycle:4,1", 2), ("cycle:", 0),
    ("erdos:5,0.5,0,7", 4), ("erdos:5,0.5", 2),
])
def test_parse_synthetic_refuses_a_wrong_field_count(spec, fields):
    with pytest.raises(ValueError, match=f"bad synthetic graph spec.*got {fields}$"):
        parse_synthetic(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text,value", [
    ("0 1\n1 1e20\n", "1e+20"),
    ("0 1\n-1e19 2\n", "-1e+19"),
    ("0 1\n1 9223372036854775808\n", "9.22337e+18"),
])
def test_load_graph_refuses_ids_beyond_int64_before_casting(tmp_path, text, value):
    edges = tmp_path / "e.csv"
    edges.write_text(text)
    with pytest.raises(ValueError, match="id or label out of range in") as info:
        load_graph(str(edges))
    assert str(edges) in str(info.value) and str(info.value).endswith(value)


@pytest.mark.filterwarnings("error")
def test_load_graph_refuses_labels_beyond_int64(tmp_path):
    edges, labels = tmp_path / "e.csv", tmp_path / "y.csv"
    edges.write_text("0 1\n1 2\n")
    labels.write_text("0\n1\n3e30\n")
    with pytest.raises(ValueError, match=f"id or label out of range in {labels}"):
        load_graph(str(edges), labels_path=str(labels))


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
