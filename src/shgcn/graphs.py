"""Graph container, normalized adjacency, edge splits, synthetic generators,
and the exact Gromov delta-hyperbolicity statistic."""

from __future__ import annotations

import dataclasses
import heapq
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, shortest_path

DELTA_NODE_CAP = 600


@dataclasses.dataclass(frozen=True)
class Graph:
    """Immutable undirected graph: deduplicated edge list without
    self-loops, node features, optional node labels, optional scalar
    target for graph-level regression."""

    n: int
    edges: np.ndarray  # (m, 2) int, each row i < j
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None
    graph_target: float | None = None

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            edges = np.unique(np.column_stack([lo, hi]), axis=0)
            if np.any(edges[:, 0] == edges[:, 1]):
                edges = edges[edges[:, 0] != edges[:, 1]]
            if edges.size and (edges.min() < 0 or edges.max() >= self.n):
                raise ValueError("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.n:
            raise ValueError(f"features must be (n, d), got {feats.shape}")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if labels.shape != (self.n,):
                raise ValueError("labels must have one entry per node")
            object.__setattr__(self, "labels", labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        if not len(self.edges):
            return sp.csr_matrix((self.n, self.n))
        i, j = self.edges[:, 0], self.edges[:, 1]
        data = np.ones(2 * len(self.edges))
        return sp.csr_matrix(
            (data, (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n),
        )

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(a), int(b)) for a, b in self.edges}

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        order = breadth_first_order(self.adjacency(), 0, return_predecessors=False)
        return len(order) == self.n


@dataclasses.dataclass(frozen=True)
class NormalizedAdjacency:
    """Row-stochastic D^-1 (A + I) as a sparse CSR operator."""

    matrix: sp.csr_matrix

    def __matmul__(self, other):
        return self.matrix @ other

    @property
    def shape(self):
        return self.matrix.shape


def normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    a_hat = (g.adjacency() + sp.identity(g.n, format="csr")).tocsr()
    degrees = np.asarray(a_hat.sum(axis=1)).reshape(-1)
    inv = sp.diags(1.0 / degrees)
    return NormalizedAdjacency((inv @ a_hat).tocsr())


# ---------------------------------------------------------------------------
# edge splitting and negative sampling
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EdgeSplit:
    train_pos: np.ndarray
    val_pos: np.ndarray
    test_pos: np.ndarray
    val_neg: np.ndarray
    test_neg: np.ndarray
    seed: int


def sample_negative_edges(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rejection sampling over non-edges (no self-loops).

    Candidates come in blocks of max(2 * count, 32) ordered pairs drawn from
    rng.  A candidate is rejected if it is a self-loop, an edge of g, or a
    pair already chosen; the first `count` survivors in draw order are
    returned as rows (lo, hi).  Block size and draw order fix both the
    output and the generator's state afterwards for a given seed.
    """
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    n = g.n
    max_pairs = n * (n - 1) // 2
    if max_pairs - g.num_edges < count:
        raise ValueError("graph too dense to sample that many negatives")
    # pair (lo, hi) has key lo * n + hi.  Graph keeps its edges sorted by
    # (lo, hi), so the edge keys are sorted too; the sentinel n * n exceeds
    # every key, so a lookup never runs past the end.
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


def _spanning_tree_mask(n: int, edges: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Union-find pass marking the edges (in the given visit order) that
    first connect two components."""
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


def split_edges(g: Graph, ratios=(0.85, 0.05, 0.10), seed: int = 0) -> EdgeSplit:
    """Deterministic shuffle split of the edge set into train/val/test plus
    matched negative samples for val and test.

    Tries to reserve a spanning forest inside the training fraction so the
    training graph keeps the graph's connectivity; when the forest alone
    exceeds the training budget (trees, sparse forests) it falls back to a
    plain split with a warning.
    """
    if g.num_edges == 0:
        raise ValueError("cannot split a graph with no edges")
    ratios = tuple(float(x) for x in ratios)
    if len(ratios) != 3 or any(x < 0 for x in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three nonnegatives summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    m = g.num_edges
    order = rng.permutation(m)
    n_val = int(round(ratios[1] * m))
    n_test = int(round(ratios[2] * m))
    n_train = m - n_val - n_test

    tree_mask = _spanning_tree_mask(g.n, g.edges, order)
    n_tree = int(tree_mask.sum())
    if n_tree <= n_train:
        tree_idx = np.flatnonzero(tree_mask)
        rest = np.array([i for i in order if not tree_mask[i]], dtype=np.int64)
        extra = n_train - n_tree
        train_idx = np.concatenate([tree_idx, rest[:extra]])
        val_idx = rest[extra : extra + n_val]
        test_idx = rest[extra + n_val :]
    else:
        warnings.warn(
            "spanning-forest reservation exceeds the training ratio; "
            "falling back to a plain split (training graph may disconnect)"
        )
        train_idx = order[:n_train]
        val_idx = order[n_train : n_train + n_val]
        test_idx = order[n_train + n_val :]

    neg_rng = np.random.default_rng(seed + 1)
    val_neg = sample_negative_edges(g, len(val_idx), neg_rng)
    test_neg = sample_negative_edges(g, len(test_idx), neg_rng)
    return EdgeSplit(
        train_pos=g.edges[np.sort(train_idx)],
        val_pos=g.edges[np.sort(val_idx)],
        test_pos=g.edges[np.sort(test_idx)],
        val_neg=val_neg,
        test_neg=test_neg,
        seed=seed,
    )


def graph_from_train_edges(g: Graph, split: EdgeSplit) -> Graph:
    """The message-passing graph for link prediction: training edges only."""
    return Graph(g.n, split.train_pos, g.features, g.labels, g.graph_target)


def split_nodes(n: int, ratios=(0.85, 0.05, 0.10), seed: int = 0):
    """Node-level split for classification tasks."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = int(round(ratios[1] * n))
    n_test = int(round(ratios[2] * n))
    n_train = n - n_val - n_test
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train : n_train + n_val]),
        np.sort(order[n_train + n_val :]),
    )


# ---------------------------------------------------------------------------
# Gromov delta-hyperbolicity (four-point condition, exact)
# ---------------------------------------------------------------------------


def all_pairs_distances(g: Graph) -> np.ndarray:
    dist = shortest_path(g.adjacency(), method="D", unweighted=True)
    if np.any(np.isinf(dist)):
        raise ValueError("graph is disconnected; delta-hyperbolicity undefined")
    return dist


def delta_hyperbolicity(g: Graph, node_cap: int = DELTA_NODE_CAP) -> float:
    """Exact Gromov delta over all node quadruples.

    For each quadruple, the three pairwise-sum pairings S1 >= S2 >= S3 of
    the BFS distances give a contribution (S1 - S2)/2; delta is the global
    maximum.  Theta(n^4) via batched vector arithmetic, so refuse graphs
    beyond node_cap.
    """
    if g.n > node_cap:
        raise ValueError(
            f"graph has {g.n} nodes, above the exact-delta cap of {node_cap}"
        )
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


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

FEATURE_LANDMARKS = 16
FEATURE_TEMPERATURE = 3.0


def _landmark_features(n: int, edges: np.ndarray, k: int = FEATURE_LANDMARKS) -> np.ndarray:
    """Smoothed BFS profiles against k spread-out landmark nodes.

    Node features must carry positional signal for link prediction to be
    learnable on held-out edges (removing any tree edge disconnects its
    endpoints, so the structure alone says nothing about them).
    """
    g = Graph(n, edges, np.zeros((n, 1)))
    k = min(k, n)
    landmarks = np.unique(np.linspace(0, n - 1, k).astype(np.int64))
    if g.is_connected():
        # every distance is finite, so BFS from the landmarks alone suffices
        profiles = shortest_path(g.adjacency(), method="D", unweighted=True,
                                 indices=landmarks).T
    else:
        # an unreachable pair sits one step beyond the largest finite
        # distance anywhere in the graph, which needs every pair
        dist = shortest_path(g.adjacency(), method="D", unweighted=True)
        finite = np.where(np.isfinite(dist), dist, dist[np.isfinite(dist)].max() + 1.0)
        profiles = finite[:, landmarks]
    return np.exp(-profiles / FEATURE_TEMPERATURE)


def tree_graph(branching: int, depth: int) -> Graph:
    """Complete rooted tree; node ids in breadth-first order, labels are
    node depths."""
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    edges = []
    labels = [0]
    frontier = [0]
    next_id = 1
    for level in range(1, depth + 1):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                labels.append(level)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    n = next_id
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return Graph(n, edges, _landmark_features(n, edges), np.asarray(labels))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    labels = np.arange(n) % 2
    return Graph(n, edges, _landmark_features(n, edges), labels)


def erdos_graph(n: int, p: float, seed: int = 0) -> Graph:
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < p
    edges = np.column_stack([iu[0][mask], iu[1][mask]])
    if len(edges):
        adj = Graph(n, edges, np.zeros((n, 1))).adjacency()
        degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
        labels = (degrees > np.median(degrees)).astype(np.int64)
        feats = _landmark_features(n, edges)
    else:
        labels = np.zeros(n, dtype=np.int64)
        feats = np.zeros((n, min(FEATURE_LANDMARKS, n)))
    return Graph(n, edges, feats, labels)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labelled tree via a Pruefer sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Graph(1, np.zeros((0, 2), dtype=np.int64), np.ones((1, 1)))
    if n == 2:
        edges = np.array([[0, 1]])
        return Graph(2, edges, _landmark_features(2, edges))
    rng = np.random.default_rng(seed)
    prufer = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in prufer:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    edges = np.asarray(edges, dtype=np.int64)
    return Graph(n, edges, _landmark_features(n, edges))


def parse_synthetic(spec: str) -> Graph:
    """Grammar: tree:<branching>,<depth> | cycle:<n> | erdos:<n>,<p>,<seed>."""
    try:
        kind, _, args = spec.partition(":")
        parts = [a for a in args.split(",") if a] if args else []
        if kind == "tree":
            return tree_graph(int(parts[0]), int(parts[1]))
        if kind == "cycle":
            return cycle_graph(int(parts[0]))
        if kind == "erdos":
            return erdos_graph(int(parts[0]), float(parts[1]), int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad synthetic graph spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown synthetic graph kind {kind!r}; expected tree/cycle/erdos"
    )


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def _read_table(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            rows.append([float(p) for p in parts])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(rows, dtype=np.float64)


def load_graph(edges_path: str, features_path: str | None = None,
               labels_path: str | None = None) -> Graph:
    """Edge list as two-column text (0-based ids, whitespace or CSV);
    optional per-node feature CSV (row i = node i) and single-column label
    CSV.  Directed input edges are symmetrized."""
    raw = _read_table(edges_path)
    if raw.shape[1] != 2:
        raise ValueError(f"edge file must have two columns, got {raw.shape[1]}")
    edges = raw.astype(np.int64)
    n = int(edges.max()) + 1 if edges.size else 0
    features = None
    if features_path is not None:
        features = _read_table(features_path)
        n = max(n, features.shape[0])
    labels = None
    if labels_path is not None:
        labels = _read_table(labels_path).reshape(-1).astype(np.int64)
        n = max(n, labels.shape[0])
    if features is None:
        features = _landmark_features(n, edges)
    return Graph(n, edges, features, labels)
