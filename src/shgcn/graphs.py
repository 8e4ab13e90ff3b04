"""Graph container, normalized adjacency, edge splits, synthetic generators,
and the exact Gromov delta-hyperbolicity statistic."""

from __future__ import annotations

import dataclasses
import heapq
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    minimum_spanning_tree,
    shortest_path,
)

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
        keys = (lo * n + hi)[lo != hi]
        if np.any(keys[1:] <= keys[:-1]):  # generators hand in sorted, distinct keys
            keys = np.unique(keys)
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
    edge once, with no self-loops.  The CSR arrays are built directly, each
    row's columns ascending, as scipy's COO-to-CSR conversion leaves them;
    a repeated edge would repeat its entries rather than sum them."""
    if not len(edges):
        return sp.csr_matrix((n, n))
    i, j = edges[:, 0], edges[:, 1]
    keys = np.concatenate([i * n + j, j * n + i])
    keys.sort()
    # scipy's index dtype; handing it in spares the constructor a cast
    index = np.int32 if max(n, len(keys)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(edges.ravel(), minlength=n), out=indptr[1:])
    return sp.csr_matrix((np.ones(len(keys)), (keys % n).astype(index), indptr), shape=(n, n))


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
        if len(keys):
            # look the distinct keys up in sorted order, then put the
            # survivors back in the order of their first draw; the least
            # draw index of each run of equal keys is its first draw
            order = np.argsort(keys)
            ranked = keys[order]
            starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
            first = np.minimum.reduceat(order, starts)
            distinct = ranked[starts]
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
# distances per block of source rows when a disconnected graph's largest
# finite distance is sought: 8 MB of float64
LANDMARK_BLOCK_CELLS = 1 << 20
# uniforms per draw of erdos_graph: 8 MB of float64
ERDOS_CHUNK = 1 << 20


def _check_size(n: int) -> None:
    """Refuse a graph of more than MAX_NODES nodes before it is built."""
    if n > MAX_NODES:
        raise ValueError(f"more than the limit of {MAX_NODES} nodes")


def _bfs_rows(adj: sp.csr_matrix, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each of `sources` to every node, as a
    (len(sources), n) float64 array with inf where a node is unreachable.

    One breadth-first search per source gives its predecessor tree; the
    depths then come from pointer jumping over all trees at once, each
    round doubling the span every node has climbed, so log2 of the largest
    eccentricity rounds suffice.  Cost is O(k (n + m)) for the searches
    plus O(k n log2 ecc) for the jumping, in O(k n) memory, for k sources.
    With 16 sources (2-vCPU Xeon) this took 1.30 ms on tree:3,7 against
    4.17 ms for scipy's unweighted Dijkstra, but 0.38 against 0.23 ms on
    C_600, where the jumping needs nine rounds; over all pairs of C_600
    it took 24.2 ms against 7.7, so all-pairs distances stay with
    Dijkstra.
    """
    n, k = adj.shape[0], len(sources)
    # up[i] is the cell node i's climb has reached, row by row in one flat
    # array whose last cell is a sink of depth 0 that points at itself
    up = np.empty(k * n + 1, dtype=np.int64)
    pred = up[:-1].reshape(k, n)
    for row, s in zip(pred, sources):
        row[:] = breadth_first_order(adj, s, return_predecessors=True)[1]
    # a root and an unreached node have no predecessor: they point at the
    # sink, and every other node at its parent, one step up
    missing = pred < 0
    pred += n * np.arange(k)[:, None]
    pred[missing] = k * n
    up[-1] = k * n
    depth = np.zeros(k * n + 1)
    depth[:-1] = ~missing.ravel()
    while True:
        step = depth.take(up)
        if not np.count_nonzero(step):  # every climb has reached the sink
            break
        depth += step
        up = up.take(up)
    rows = depth[:-1].reshape(k, n)
    rows[missing] = np.inf
    rows[np.arange(k), sources] = 0.0
    return rows


def _sweep(adj: sp.csr_matrix, sources: np.ndarray) -> np.ndarray:
    """Each node's hop distance from the one of `sources` in its component,
    inf in a component without one, when no component holds two: one
    breadth-first search from an extra node n with an arc to each source."""
    n, k = adj.shape[0], len(sources)
    index = adj.indices.dtype
    indices = np.concatenate([adj.indices, sources.astype(index)])
    indptr = np.append(adj.indptr, adj.nnz + k).astype(index)
    joined = sp.csr_matrix((np.ones(adj.nnz + k), indices, indptr), shape=(n + 1, n + 1))
    return _bfs_rows(joined, np.array([n]))[0, :n] - 1.0


def _eccentricity_bounds(rows: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """For full distance rows from some sources s: each source's
    eccentricity ecc(s), its row's largest finite entry, and the upper
    bound min over s of d(s, v) + ecc(s) on each node v's eccentricity,
    inf off the sources' components.  `out=rows` adds in place."""
    ecc = np.max(rows, axis=1, where=np.isfinite(rows), initial=0.0)
    return ecc, np.add(rows, ecc[:, None], out=out).min(axis=0)


def _largest_finite_distance(adj: sp.csr_matrix, landmarks: np.ndarray,
                             rows: np.ndarray) -> float:
    """The largest component diameter of the graph with symmetric
    adjacency `adj`, given the rows of _bfs_rows from `landmarks`.

    Every eccentricity found bounds the answer from below, and
    _eccentricity_bounds gives each node an upper bound (Takes & Kosters,
    "Determining the diameter of small world networks", CIKM 2011); a node
    whose upper bound is at most the lower one cannot change the answer.
    The bounds start from the landmarks.  Each component with an edge
    that is a tree or holds no landmark adds two sources from a double
    sweep, two _sweep searches that cover all such components at once:
    from one node of each, then from the farthest node of the first
    search.  That second eccentricity is a tree's diameter, so trees need
    no more search.  Dijkstra rows then run from the nodes of the other
    components that are still open, in blocks of LANDMARK_BLOCK_CELLS
    distances, and each block tightens the bounds for the next.
    """
    n = adj.shape[0]
    ids = np.arange(n)
    # the strong components of a symmetric digraph are its undirected
    # ones, found without the transpose that directed=False builds; the
    # strong search of scipy 1.17 never returns if an entry repeats, which
    # _adjacency's distinct edges rule out
    count, comp = connected_components(adj, directed=True, connection="strong")

    def comp_max(x, init):
        out = np.full(count, init, dtype=x.dtype)
        np.maximum.at(out, comp, x)
        return out

    ecc, upper = _eccentricity_bounds(rows)
    lower = ecc.max()
    # a tree has one edge fewer than nodes: twice that many adjacency entries
    links = np.bincount(comp, weights=np.diff(adj.indptr), minlength=count)
    tree = links == 2 * (np.bincount(comp, minlength=count) - 1)
    unbounded = np.ones(count, dtype=bool)
    unbounded[comp[landmarks]] = False
    swept = (links > 0) & (tree | unbounded)
    if swept.any():
        on = swept[comp]
        d0 = _sweep(adj, comp_max(np.where(on, ids, -1), -1)[swept])
        ecc0 = comp_max(np.where(on, d0, 0.0), 0.0)
        far = comp_max(np.where(on & (d0 == ecc0[comp]), ids, -1), -1)
        d1 = _sweep(adj, far[swept])
        ecc1 = comp_max(np.where(on, d1, 0.0), 0.0)
        lower = max(lower, ecc1.max())
        upper = np.minimum(upper, np.minimum(d0 + ecc0[comp], d1 + ecc1[comp]))
    # a source's own bound is its eccentricity, so each block closes its rows
    sources = np.flatnonzero((upper > lower) & ~tree[comp])
    height = max(1, LANDMARK_BLOCK_CELLS // n)
    while len(sources):
        block = shortest_path(adj, method="D", unweighted=True, indices=sources[:height])
        ecc, bound = _eccentricity_bounds(block, out=block)
        del block  # so that two blocks never coexist
        lower = max(lower, ecc.max())
        np.minimum(upper, bound, out=upper)
        sources = sources[upper[sources] > lower]
    return lower


def _landmark_features(adj: sp.csr_matrix) -> np.ndarray:
    """Smoothed BFS profiles against FEATURE_LANDMARKS spread-out landmark
    nodes (or every node, if fewer), from the symmetric adjacency `adj`
    that the caller built.

    The landmark rows come from _bfs_rows.  The graph is connected iff the
    row of landmark 0 (node 0) is finite everywhere.  If it is not, an
    unreachable pair sits one step beyond the largest finite distance,
    which _largest_finite_distance finds.  Memory is O(16 n +
    LANDMARK_BLOCK_CELLS).  Time is 16 BFS on a connected graph; a
    disconnected one adds O(n + m) for its components and sweeps, plus
    one Dijkstra row per node that the bounds leave open: none on a
    forest, nearly every node of a long cycle.  On a 2-vCPU Xeon,
    tree:3,9's training graph (29,524 nodes, a forest) took 24 ms
    against 5.2 s with one row per node with an edge; erdos_graph(4000,
    0.001) 304 rows in 0.16 s against 3,929 in 2.1 s; two 2,000-node
    cycles 3,984 rows in 0.17 s, as before.

    Node features must carry positional signal for link prediction to be
    learnable on held-out edges (removing any tree edge disconnects its
    endpoints, so the structure alone says nothing about them).
    """
    n = adj.shape[0]
    landmarks = np.unique(np.linspace(0, n - 1, min(FEATURE_LANDMARKS, n)).astype(np.int64))
    rows = _bfs_rows(adj, landmarks)
    unreached = np.isinf(rows)
    if unreached[0].any():
        rows[unreached] = _largest_finite_distance(adj, landmarks, rows) + 1.0
    return np.exp(-rows.T / FEATURE_TEMPERATURE)


def tree_graph(branching: int, depth: int) -> Graph:
    """Complete rooted tree; node ids in breadth-first order, labels are
    node depths."""
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    # 1 + b + ... + b^depth nodes; with b >= 2, 64 levels are past the limit
    n = depth + 1 if branching == 1 else (branching ** min(depth + 1, 64) - 1) // (branching - 1)
    _check_size(n)
    child = np.arange(1, n, dtype=np.int64)
    edges = np.column_stack([(child - 1) // branching, child])
    labels = np.repeat(np.arange(depth + 1), branching ** np.arange(depth + 1, dtype=np.int64))
    return Graph(n, edges, _landmark_features(_adjacency(n, edges)), labels)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    _check_size(n)
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    labels = np.arange(n) % 2
    return Graph(n, edges, _landmark_features(_adjacency(n, edges)), labels)


def _pair_rows(k: np.ndarray, n: int) -> np.ndarray:
    """The pairs (i, j), i < j < n, at flat indices k of the row-major
    order (0, 1), (0, 2), ..., (n - 2, n - 1), in closed form.

    Row i starts at s(i) = i (b - i) / 2, b = 2n - 1, so i is the smaller
    root of s(i) = k, (b - sqrt(b^2 - 8k)) / 2, rounded down.  For n below
    4.7e7, b^2 - 8k is an integer below 2^53 and its sqrt is rounded once;
    at a row start it is the square (b - 2i)^2 and the root is exact, and
    inside a row the root is at least 2 / b from an integer, far beyond
    the rounding error, so the floor is exact."""
    b = 2 * n - 1
    i = ((b - np.sqrt(b * b - 8.0 * k)) // 2).astype(np.int64)
    return np.column_stack([i, k - i * (b - i) // 2 + i + 1])


def erdos_graph(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each pair i < j is an edge when its uniform, drawn in
    row-major pair order, is below p.  The uniforms come ERDOS_CHUNK at a
    time, the same stream as one draw of all n (n - 1) / 2, and
    _pair_rows maps the kept flat indices to edges."""
    if n < 1 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 1 and p in [0, 1]")
    _check_size(n)
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    edges = _pair_rows(np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.flatnonzero(rng.random(min(ERDOS_CHUNK, pairs - start)) < p) + start
        for start in range(0, pairs, ERDOS_CHUNK)]), n)
    if len(edges):
        degrees = np.bincount(edges.ravel(), minlength=n)
        labels = (degrees > np.median(degrees)).astype(np.int64)
        feats = _landmark_features(_adjacency(n, edges))
    else:
        labels = np.zeros(n, dtype=np.int64)
        feats = np.zeros((n, min(FEATURE_LANDMARKS, n)))
    return Graph(n, edges, feats, labels)


def regression_family(spec: str, count: int, seed: int) -> list[Graph]:
    """A family of random graphs around an erdos template: member i draws
    its edge probability from [p/2, 3p/2], capped at 1.  Every draw follows
    the run seed; the template's seed must be an integer but is not read.
    The regression target is ten times the realized edge density."""
    kind, _, rest = spec.partition(":")
    if kind != "erdos":
        raise ValueError("graph regression expects an erdos:<n>,<p>,<seed> template")
    try:
        n, p, template_seed = rest.split(",")
        n, p, _ = int(n), float(p), int(template_seed)
        if n < 2 or not 0.0 <= p <= 1.0:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad erdos template {spec!r}: need n >= 2 and p in [0, 1], "
                         "and an integer seed") from None
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        pi = min(float(rng.uniform(0.5 * p, 1.5 * p)), 1.0)
        g = erdos_graph(n, pi, seed=seed + 1000 + i)
        density = 2.0 * g.num_edges / (g.n * (g.n - 1))
        graphs.append(Graph(g.n, g.edges, g.features, g.labels, 10.0 * density))
    return graphs


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random labelled tree via a Pruefer sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    _check_size(n)
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
