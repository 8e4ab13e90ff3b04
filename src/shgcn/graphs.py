"""Graph container, normalized adjacency, edge splits, synthetic generators,
and the exact Gromov delta-hyperbolicity statistic."""

from __future__ import annotations

import dataclasses
import heapq
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree, shortest_path

# a loaded edge list's node count is its largest id + 1; ids at or above
# this are refused before anything sized by the node count is allocated
MAX_NODES = 1_000_000
DELTA_NODE_CAP = 600
DELTA_J_CHUNK = 32  # js per chunk of the 4-set sweep
DELTA_K_BLOCK = 16  # ks per block of the 4-set sweep
DELTA_PAIR_ROWS = 128  # later pairs per block of the pair sweep
DELTA_PAIR_COLS = 1024  # earlier pairs per tile of such a block
# the time of one pair meeting of the pair sweep, in 4-set visits of the
# 4-set sweep: 1.27 measured on the wheel W_301 (2-vCPU Xeon)
DELTA_PAIR_COST = 1.3


@dataclasses.dataclass(frozen=True)
class Graph:
    """Immutable undirected graph: deduplicated edge list without
    self-loops, node features, optional node labels, optional scalar
    target for graph-level regression.

    Every endpoint, self-loops included, must lie in [0, n).  Edges are rows
    (lo, hi), lo < hi, sorted by the int64 key lo * n + hi (so n * n < 2**63),
    which sample_negative_edges relies on."""

    n: int
    edges: np.ndarray  # (m, 2) int, each row i < j
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray | None = None
    graph_target: float | None = None

    def __post_init__(self):
        n = self.n
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if np.any((edges < 0) | (edges >= n)):
            raise ValueError("edge endpoint out of range")
        lo, hi = np.minimum(edges[:, 0], edges[:, 1]), np.maximum(edges[:, 0], edges[:, 1])
        keys = np.unique((lo * n + hi)[lo != hi])
        object.__setattr__(self, "edges", np.column_stack([keys // n, keys % n]))
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.n:
            raise ValueError(f"features must be (n, d), got {feats.shape}")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if labels.shape != (self.n,):
                raise ValueError("labels must have one entry per node")
            if np.any(labels < 0):
                raise ValueError("labels must be non-negative")
            object.__setattr__(self, "labels", labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> sp.csr_matrix:
        return _adjacency(self.n, self.edges)

    def is_connected(self) -> bool:
        return _is_connected(self.adjacency())


def _adjacency(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of an edge list that holds each undirected
    edge once, with no self-loops."""
    if not len(edges):
        return sp.csr_matrix((n, n))
    i, j = edges[:, 0], edges[:, 1]
    data = np.ones(2 * len(edges))
    return sp.csr_matrix(
        (data, (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(n, n),
    )


def _is_connected(adj: sp.csr_matrix) -> bool:
    return connected_components(adj, directed=False, return_labels=False) <= 1


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Row-stochastic D^-1 (A + I) as a sparse CSR operator."""
    a_hat = (g.adjacency() + sp.identity(g.n, format="csr")).tocsr()
    degrees = np.asarray(a_hat.sum(axis=1)).reshape(-1)
    inv = sp.diags(1.0 / degrees)
    return (inv @ a_hat).tocsr()


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
    # pair (lo, hi) has key lo * n + hi, and Graph keeps its edges sorted by
    # that key; the sentinel n * n exceeds every key, so a lookup never
    # runs past the end.
    edge_keys = np.append(g.edges[:, 0] * n + g.edges[:, 1], n * n)
    chosen = np.zeros(0, dtype=np.int64)
    while len(chosen) < count:
        draw = rng.integers(0, n, size=(max(count * 2, 32), 2))
        lo, hi = np.minimum(draw[:, 0], draw[:, 1]), np.maximum(draw[:, 0], draw[:, 1])
        keys = (lo * n + hi)[lo != hi]
        # look the distinct keys up in sorted order, then put the survivors
        # back in the order of their first draw
        distinct, first = np.unique(keys, return_index=True)
        first = first[edge_keys[np.searchsorted(edge_keys, distinct)] != distinct]
        keys = keys[np.sort(first)]
        keys = keys[~np.isin(keys, chosen)]
        chosen = np.concatenate([chosen, keys[: count - len(chosen)]])
    return np.column_stack([chosen // n, chosen % n])


def _spanning_tree_mask(n: int, edges: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Mark the edges that, visited in `order`, first connect two
    components.  That is Kruskal's forest with each edge weighted by its
    1-based position in `order`; distinct weights make the forest unique."""
    weight = np.empty(len(edges))
    weight[order] = np.arange(1, len(order) + 1)
    graph = sp.csr_matrix((weight, (edges[:, 0], edges[:, 1])), shape=(n, n))
    forest = minimum_spanning_tree(graph)
    keep = np.zeros(len(edges), dtype=bool)
    keep[order[forest.data.astype(np.int64) - 1]] = True
    return keep


def check_ratios(ratios) -> tuple[float, float, float]:
    """The (train, val, test) fractions as floats.  Raises ValueError
    unless they are three nonnegatives summing to 1."""
    parts = tuple(float(x) for x in ratios)
    if len(parts) != 3 or not all(x >= 0 for x in parts) or abs(sum(parts) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be three nonnegatives summing to 1, got {parts}")
    return parts


def split_sizes(count: int, ratios) -> tuple[int, int, int]:
    """Train, val and test sizes of `count` items.  Rounding can push val
    plus test past `count` (half and half of 3 items round to 2 and 2); the
    test size then gives way, so the three parts never overlap."""
    _, val, test = check_ratios(ratios)
    n_val = int(round(val * count))
    n_test = min(int(round(test * count)), count - n_val)
    return count - n_val - n_test, n_val, n_test


def split_edges(g: Graph, ratios, seed: int = 0) -> EdgeSplit:
    """Deterministic shuffle split of the edge set into train/val/test plus
    matched negative samples for val and test.

    Tries to reserve a spanning forest inside the training fraction so the
    training graph keeps the graph's connectivity; when the forest alone
    exceeds the training budget it falls back to a plain split.  The
    fallback warns only when the graph has a cycle: a forest is its own
    spanning forest, so no partial training set can ever hold it.
    """
    if g.num_edges == 0:
        raise ValueError("cannot split a graph with no edges")
    m = g.num_edges
    n_train, n_val, _ = split_sizes(m, ratios)
    order = np.random.default_rng(seed).permutation(m)

    tree_mask = _spanning_tree_mask(g.n, g.edges, order)
    n_tree = int(tree_mask.sum())
    if n_tree <= n_train:
        tree_idx = np.flatnonzero(tree_mask)
        rest = order[~tree_mask[order]]
        extra = n_train - n_tree
        train_idx = np.concatenate([tree_idx, rest[:extra]])
        val_idx = rest[extra : extra + n_val]
        test_idx = rest[extra + n_val :]
    else:
        if n_tree < m:
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
    )


def graph_from_train_edges(g: Graph, split: EdgeSplit) -> Graph:
    """The message-passing graph for link prediction: training edges only."""
    return Graph(g.n, split.train_pos, g.features, g.labels, g.graph_target)


def split_nodes(n: int, ratios, seed: int = 0):
    """Node-level split for classification tasks."""
    n_train, n_val, _ = split_sizes(n, ratios)
    order = np.random.default_rng(seed).permutation(n)
    return (
        np.sort(order[:n_train]),
        np.sort(order[n_train : n_train + n_val]),
        np.sort(order[n_train + n_val :]),
    )


# ---------------------------------------------------------------------------
# Gromov delta-hyperbolicity (four-point condition, exact)
# ---------------------------------------------------------------------------


def _two_core(g: Graph) -> np.ndarray:
    """Indices of the nodes left after repeatedly dropping every degree-1
    node: the 2-core, or at most one node when g is a tree."""
    adj = g.adjacency()
    degree = np.asarray(adj.sum(axis=1)).reshape(-1)
    keep = np.ones(g.n, dtype=bool)
    leaves = degree == 1
    while leaves.any():
        keep &= ~leaves
        degree -= adj @ leaves.astype(np.float64)
        leaves = keep & (degree == 1)
    return np.flatnonzero(keep)


def delta_hyperbolicity(g: Graph, node_cap: int = DELTA_NODE_CAP) -> float:
    """Exact Gromov delta over all node quadruples.

    For each quadruple, the three pairwise-sum pairings S1 >= S2 >= S3 of
    the BFS distances give a contribution (S1 - S2)/2; delta is the global
    maximum.  The worst case is Theta(n^4), so refuse graphs beyond
    node_cap.

    Only the 2-core is searched.  If v is a leaf with neighbour u, then in
    any quadruple holding v, v sits in exactly one distance of each of the
    three pairings, so every pairing sum is one more than with u in v's
    place: the quadruple's value is that of the quadruple with u for v, or
    zero when u is already in it.  Dropping leaves until none is left thus
    keeps delta, and shortest paths between the survivors never pass
    through a dropped node, so BFS on the core subgraph alone gives the
    full graph's distances among them.  Trees keep at most one node and
    give 0 without any distance being computed.

    Within the core, one of two exact sweeps runs (_pair_sweep_pays picks
    it from the core size and the number of far-apart pairs):
    _pair_sweep over far-apart pairs by decreasing distance, which stops
    early, or _quadruple_sweep over every 4-set.
    """
    if g.n > node_cap:
        raise ValueError(
            f"graph has {g.n} nodes, above the exact-delta cap of {node_cap}"
        )
    adj = g.adjacency()
    if not _is_connected(adj):
        raise ValueError("graph is disconnected; delta-hyperbolicity undefined")
    core = _two_core(g)
    n = len(core)
    if n < 4:
        return 0.0
    dist = shortest_path(adj[core][:, core], method="D", unweighted=True).astype(np.int16)
    x, y = _far_apart_pairs(dist)
    if _pair_sweep_pays(n, len(x)):
        best = _pair_sweep(dist, x, y)
    else:
        best = _quadruple_sweep(dist)
    return best / 2.0


def _far_apart_pairs(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs x < y of a connected graph, given its distance matrix,
    such that no neighbour of x is farther from y and no neighbour of y is
    farther from x."""
    # reach[x, y]: the largest distance from y to a neighbour of x
    reach = np.empty_like(dist)
    for x, row in enumerate(dist):
        reach[x] = dist[row == 1].max(axis=0)
    far = (reach <= dist) & (reach.T <= dist)
    return np.nonzero(np.triu(far, 1))


def _pair_sweep_pays(n: int, pairs: int) -> bool:
    """Whether the pair sweep over `pairs` far-apart pairs costs at most the
    4-set sweep over n nodes, even when it never stops early."""
    return DELTA_PAIR_COST * pairs * (pairs - 1) / 2 <= math.comb(n, 4)


def _pair_sweep(dist: np.ndarray, x: np.ndarray, y: np.ndarray) -> int:
    """Twice the delta of a connected graph with distance matrix dist,
    when (x, y) are its far-apart pairs (Cohen, Coudert & Lancin, "On
    computing the Gromov hyperbolicity", ACM JEA 2015).

    Pairs go by decreasing distance, and each pair B = (x, y) meets every
    earlier pair A = (u, v) as d(A) + d(B) - max(d(x, u) + d(y, v),
    d(x, v) + d(y, u)).  That never exceeds the value S1 - S2 of the set
    {u, v, x, y}, and equals it when {A, B} is its largest-sum pairing.
    The sweep stops at the first pair B with d(B) <= best, the largest
    S1 - S2 found so far.  Two lemmas make that exact.

    Lemma 1: S1 - S2 <= min(d(A), d(B)) when {A, B} is the largest-sum
    pairing.  By the triangle inequality through u and through v,
    2 d(x, y) <= d(x, u) + d(u, y) + d(x, v) + d(v, y), the sum of the
    other two pairings, which is at most 2 S2.  So d(x, y) <= S2 and
    S1 - S2 <= d(u, v); the same steps with the pairs swapped give
    S1 - S2 <= d(x, y).

    Lemma 2: when delta > 0, some 4-set of value 2 delta has as its
    largest-sum pairing two far-apart pairs.  Take an optimal set with
    pairing {(x, y), (u, v)}.  If x has a neighbour x' with d(x', y) =
    d(x, y) + 1 (or y, u or v has one, alike), put x' in x's place: S1
    rises by 1 and each other sum, by the triangle inequality, by at most
    1, so the value does not fall and {(x', y), (u, v)} is still the
    largest-sum pairing.  x' is none of y, u and v, since the new set is
    worth at least 2 delta > 0 and a set with a repeated node is worth 0.
    Each move raises S1, which is at most twice the diameter, so after
    finitely many moves both pairs are far-apart and the set is still
    optimal.

    So the optimum pairs two far-apart pairs; the later of them, B*, meets
    the earlier, A*, unless the sweep stops first, at some B with d(B*) <=
    d(B) <= best, and then by lemma 1 the optimum is at most d(B*) <=
    best.  The sweep takes the later pairs in blocks of DELTA_PAIR_ROWS,
    gathers the block's rows of dist once, and meets every pair up to the
    block's end in tiles of DELTA_PAIR_COLS, so each int16 array holds at
    most DELTA_PAIR_ROWS x DELTA_PAIR_COLS values (256 KB); meetings with
    pairs that are not earlier stay below the optimum too.
    """
    d = dist[x, y]
    order = np.argsort(-d, kind="stable")
    x, y, d = x[order], y[order], d[order]
    best, b0 = 0, 0
    while b0 < len(d) and d[b0] > best:
        b1 = min(b0 + DELTA_PAIR_ROWS, int(np.searchsorted(-d, -best)))
        # dist is symmetric: column w of cols_x holds d(x_b, w) for the block's b
        cols_x, cols_y = dist[:, x[b0:b1]], dist[:, y[b0:b1]]
        for a0 in range(0, b1, DELTA_PAIR_COLS):
            a1 = min(a0 + DELTA_PAIR_COLS, b1)
            u, v = x[a0:a1], y[a0:a1]
            other = cols_x[u]
            other += cols_y[v]  # d(x, u) + d(y, v)
            cross = cols_x[v]
            cross += cols_y[u]  # d(x, v) + d(y, u)
            np.maximum(other, cross, out=other)
            np.subtract(d[a0:a1, None], other, out=other)
            best = max(best, int((other.max(axis=0) + d[b0:b1]).max()))
        b0 = b1
    return best


def _quadruple_sweep(dist: np.ndarray) -> int:
    """Twice the delta of a graph with distance matrix dist, from every
    4-set {i < j < k < l}.

    The sweep walks i, a chunk of DELTA_J_CHUNK js, a block of
    DELTA_K_BLOCK ks from j0 + 1 and every l from the block's first k on;
    tuples with repeated nodes contribute zero and re-orderings repeat
    values already covered.  Each block holds DELTA_J_CHUNK x DELTA_K_BLOCK
    x (n - k0) int16 sums, at most about 0.6 MB per array at the 600-node
    cap, so the integer max/min passes run in cache.
    """
    n = len(dist)
    best = 0
    for i in range(n - 3):
        row_i = dist[i]
        for j0 in range(i + 1, n - 2, DELTA_J_CHUNK):
            j1 = min(j0 + DELTA_J_CHUNK, n)
            rows_j = dist[j0:j1]
            for k0 in range(j0 + 1, n - 1, DELTA_K_BLOCK):
                k1 = min(k0 + DELTA_K_BLOCK, n)
                a = row_i[None, k0:k1, None] + rows_j[:, None, k0:]       # d_ik + d_jl
                b = rows_j[:, k0:k1, None] + row_i[None, None, k0:]       # d_jk + d_il
                c = row_i[j0:j1, None, None] + dist[None, k0:k1, k0:]     # d_ij + d_kl
                hi = np.maximum(a, b)
                top = np.maximum(hi, c)
                np.minimum(a, b, out=a)
                np.minimum(hi, c, out=hi)
                np.maximum(a, hi, out=a)  # second largest
                np.subtract(top, a, out=top)
                best = max(best, int(top.max()))
    return best


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

FEATURE_LANDMARKS = 16
FEATURE_TEMPERATURE = 3.0


def _landmark_features(adj: sp.csr_matrix) -> np.ndarray:
    """Smoothed BFS profiles against FEATURE_LANDMARKS spread-out landmark
    nodes (or every node, if fewer), from the symmetric adjacency `adj`
    that the caller built.

    Node features must carry positional signal for link prediction to be
    learnable on held-out edges (removing any tree edge disconnects its
    endpoints, so the structure alone says nothing about them).
    """
    n = adj.shape[0]
    landmarks = np.unique(np.linspace(0, n - 1, min(FEATURE_LANDMARKS, n)).astype(np.int64))
    if _is_connected(adj):
        # every distance is finite, so BFS from the landmarks alone suffices
        profiles = shortest_path(adj, method="D", unweighted=True, indices=landmarks).T
    else:
        # an unreachable pair sits one step beyond the largest finite
        # distance, which joins two nodes that have an edge (or is 0): BFS
        # from those and the landmarks suffices; isolated nodes add no row
        sources = np.union1d(landmarks, np.flatnonzero(np.diff(adj.indptr)))
        dist = shortest_path(adj, method="D", unweighted=True, indices=sources)
        dist[np.isinf(dist)] = dist[np.isfinite(dist)].max() + 1.0
        profiles = dist[np.searchsorted(sources, landmarks)].T
    return np.exp(-profiles / FEATURE_TEMPERATURE)


def tree_graph(branching: int, depth: int) -> Graph:
    """Complete rooted tree; node ids in breadth-first order, labels are
    node depths."""
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    level_sizes = branching ** np.arange(depth + 1, dtype=np.int64)
    n = int(level_sizes.sum())
    child = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([(child - 1) // branching, child])
    labels = np.repeat(np.arange(depth + 1), level_sizes)
    return Graph(n, edges, _landmark_features(_adjacency(n, edges)), labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    labels = np.arange(n) % 2
    return Graph(n, edges, _landmark_features(_adjacency(n, edges)), labels)


def erdos_graph(n: int, p: float, seed: int = 0) -> Graph:
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, k=1)
    mask = rng.random(len(iu[0])) < p
    edges = np.column_stack([iu[0][mask], iu[1][mask]])
    if len(edges):
        adj = _adjacency(n, edges)
        degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
        labels = (degrees > np.median(degrees)).astype(np.int64)
        feats = _landmark_features(adj)
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
    return Graph(n, edges, _landmark_features(_adjacency(n, edges)))


def parse_synthetic(spec: str) -> Graph:
    """Grammar: tree:<branching>,<depth> | cycle:<n> | erdos:<n>,<p>,<seed>.
    Each kind takes exactly its fields; a missing, empty or extra one is
    refused."""
    kinds = {"tree": (tree_graph, (int, int)), "cycle": (cycle_graph, (int,)),
             "erdos": (erdos_graph, (int, float, int))}
    kind, _, args = spec.partition(":")
    if kind not in kinds:
        raise ValueError(f"unknown synthetic graph kind {kind!r}; expected tree/cycle/erdos")
    make, types = kinds[kind]
    parts = args.split(",") if args else []
    if len(parts) != len(types):
        raise ValueError(f"bad synthetic graph spec {spec!r}: {kind} takes "
                         f"{len(types)} comma-separated field(s), got {len(parts)}")
    try:
        return make(*[cast(part) for cast, part in zip(types, parts)])
    except ValueError as exc:
        raise ValueError(f"bad synthetic graph spec {spec!r}: {exc}") from None


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
    table = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(table)):
        raise ValueError(f"non-finite value in {path}")
    return table


def _read_ids(path: str) -> np.ndarray:
    """A table of node ids or class labels: integral values such as 1.0
    are taken, fractional ones refused rather than truncated, and values
    that int64 cannot hold refused before the cast could wrap them."""
    table = _read_table(path)
    if not np.array_equal(table, np.round(table)):
        raise ValueError(f"non-integral id or label in {path}")
    huge = np.abs(table) >= 2.0**63
    if huge.any():
        raise ValueError(f"id or label out of range in {path}: {table[huge][0]:g}")
    return table.astype(np.int64)


def load_graph(edges_path: str, features_path: str | None = None,
               labels_path: str | None = None) -> Graph:
    """Edge list as two-column text (0-based ids, whitespace or CSV);
    optional per-node feature CSV (row i = node i) and single-column label
    CSV.  Directed input edges are symmetrized."""
    edges = _read_ids(edges_path)
    if edges.shape[1] != 2:
        raise ValueError(f"edge file must have two columns, got {edges.shape[1]}")
    n = int(edges.max()) + 1 if edges.size else 0
    if n > MAX_NODES:
        raise ValueError(f"node id {n - 1} in {edges_path} is above the limit of {MAX_NODES - 1}")
    features = None
    if features_path is not None:
        features = _read_table(features_path)
        n = max(n, features.shape[0])
    labels = None
    if labels_path is not None:
        labels = _read_ids(labels_path).reshape(-1)
        n = max(n, labels.shape[0])
    if features is None:
        # Graph checks and deduplicates the raw edge list first
        features = _landmark_features(Graph(n, edges, np.zeros((n, 1))).adjacency())
    return Graph(n, edges, features, labels)
