#!/usr/bin/env python3
"""Gromov delta: how tree-like is a graph?

delta = 0 means exactly tree-like (the regime where hyperbolic embeddings
shine); larger values mean the graph has fat cycles.  Computed exactly via
the four-point condition over the node quadruples of the graph's 2-core:
pendant trees never change delta, so leaves are stripped first and a tree
is answered without searching any quadruple.
"""

from shgcn import cycle_graph, delta_hyperbolicity, erdos_graph, random_tree, tree_graph

rows = [
    ("star K_1,8", tree_graph(8, 1)),
    ("balanced binary tree, depth 5", tree_graph(2, 5)),
    ("ternary tree, depth 4", tree_graph(3, 4)),
    ("random tree on 40 nodes", random_tree(40, seed=1)),
    ("cycle C4", cycle_graph(4)),
    ("cycle C8", cycle_graph(8)),
    ("cycle C16", cycle_graph(16)),
    ("sparse random graph (60, p=0.08)", erdos_graph(60, 0.08, seed=7)),
    ("denser random graph (60, p=0.2)", erdos_graph(60, 0.2, seed=7)),
]

print(f"{'graph':<36} {'nodes':>6} {'edges':>6} {'delta':>6}")
for name, g in rows:
    try:
        delta = delta_hyperbolicity(g)
    except ValueError as exc:  # disconnected draws
        print(f"{name:<36} {g.n:>6} {g.num_edges:>6}   n/a ({exc})")
        continue
    print(f"{name:<36} {g.n:>6} {g.num_edges:>6} {delta:>6}")

print()
print("trees sit at 0, even cycles at n/4, and random graphs drift upward")
print("as edges accumulate; the statistic is what the training demos use to")
print("pick graphs where curvature should matter.")
