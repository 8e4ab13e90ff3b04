"""Time exact Gromov delta on a battery of graph families, one line each:
the graph, its nodes, its 2-core size, its far-apart pairs, the sweep that
delta_hyperbolicity picks for it, delta, and the median seconds of the
call over three runs.

Run it against two checkouts' src to compare them:

    PYTHONPATH=src python tools/delta_battery.py [--tiny] [NAME ...]

NAME picks rows by name (all by default).  `--tiny` runs small members of
the same families in about a second.  A graph whose 2-core has fewer
than four nodes prints `-` for the far-apart pairs and the sweep.  Every
call lifts the node cap to the graph's size, so the 2,000-node row runs
too.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np
from scipy.sparse.csgraph import shortest_path

from shgcn import graphs

REPEATS = 3


def _bare(n: int, edges) -> graphs.Graph:
    return graphs.Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))


def _ring(n: int) -> list:
    return [(i, (i + 1) % n) for i in range(n)]


def erdos_ring(n: int, p: float, seed: int = 0) -> graphs.Graph:
    """An erdos graph plus the ring 0-1-...-(n-1): connected, all 2-core."""
    return _bare(n, np.concatenate([graphs.erdos_graph(n, p, seed).edges, _ring(n)]))


def ladder(rungs: int) -> graphs.Graph:
    rails = [(i, i + 1) for i in range(rungs - 1)] + [(rungs + i, rungs + i + 1)
                                                      for i in range(rungs - 1)]
    return _bare(2 * rungs, rails + [(i, rungs + i) for i in range(rungs)])


def grid(rows: int, cols: int) -> graphs.Graph:
    ids = np.arange(rows * cols).reshape(rows, cols)
    edges = [(a, b) for r in ids for a, b in zip(r[:-1], r[1:])]
    edges += [(a, b) for c in ids.T for a, b in zip(c[:-1], c[1:])]
    return _bare(rows * cols, edges)


def wheel(rim: int) -> graphs.Graph:
    """Hub 0 joined to every node of the cycle 1..rim."""
    return _bare(rim + 1, [(1 + i, 1 + j) for i, j in _ring(rim)]
                 + [(0, i) for i in range(1, rim + 1)])


def friendship(triangles: int) -> graphs.Graph:
    """Triangles that share the one hub 0."""
    return _bare(2 * triangles + 1, [e for t in range(triangles) for e in
                                     ((0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2))])


def battery(tiny: bool) -> list:
    """(name, graph builder) rows."""
    if tiny:
        return [
            ("erdos+ring 30", lambda: erdos_ring(30, 0.1)),
            ("erdos+ring 30 p=0.4", lambda: erdos_ring(30, 0.4)),
            ("ladder 8", lambda: ladder(8)),
            ("grid 4x5", lambda: grid(4, 5)),
            ("cycle 12", lambda: graphs.cycle_graph(12)),
            ("tree:2,3", lambda: graphs.parse_synthetic("tree:2,3")),
            ("friendship 13", lambda: friendship(6)),
            ("wheel 13", lambda: wheel(12)),
        ]
    return [
        *((f"erdos+ring {n}", lambda n=n: erdos_ring(n, 3 / n)) for n in (150, 400, 599)),
        ("ladder 100", lambda: ladder(100)),
        ("grid 10x10", lambda: grid(10, 10)),
        ("cycle 64", lambda: graphs.cycle_graph(64)),
        ("tree:3,5", lambda: graphs.parse_synthetic("tree:3,5")),
        ("erdos+ring 150 p=0.4", lambda: erdos_ring(150, 0.4)),
        ("friendship 301", lambda: friendship(150)),
        ("friendship 599", lambda: friendship(299)),
        ("wheel 301", lambda: wheel(300)),
        ("wheel 600", lambda: wheel(599)),
        ("erdos+ring 2000", lambda: erdos_ring(2000, 3 / 2000)),
    ]


def plan(g: graphs.Graph) -> tuple:
    """2-core size, far-apart pairs and sweep; the last two are '-' when the
    core is too small to search."""
    core = graphs._two_core(g)
    if len(core) < 4:
        return len(core), "-", "-"
    dist = shortest_path(g.adjacency()[core][:, core], method="D", unweighted=True)
    pairs = len(graphs._far_apart_pairs(dist.astype(np.int16))[0])
    sweep = "pairs" if graphs._pair_sweep_pays(len(core), pairs) else "4-sets"
    return len(core), pairs, sweep


def row(name: str, g: graphs.Graph) -> str:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        delta = graphs.delta_hyperbolicity(g, node_cap=g.n)
        times.append(time.perf_counter() - t0)
    core, pairs, sweep = plan(g)
    return (f"{name:<22} {g.n:>5} {core:>5} {pairs!s:>7} {sweep:>6} {delta:>5} "
            f"{statistics.median(times):>9.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("names", nargs="*")
    args = parser.parse_args(argv)
    rows = [(name, build) for name, build in battery(args.tiny)
            if not args.names or name in args.names]
    print(f"{'graph':<22} {'nodes':>5} {'core':>5} {'far':>7} {'sweep':>6} {'delta':>5} "
          f"{'seconds':>9}")
    for name, build in rows:
        print(row(name, build()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
