#!/usr/bin/env python3
"""Link prediction on a tree: curvature pays for itself.

Trains the simplified hyperbolic layer against a plain GCN under the exact
same protocol (same splits, same decoder, same optimizer) on a ternary
tree, the delta = 0 regime.  Expect the hyperbolic model to rank held-out
edges better.
"""

import time

import numpy as np

from shgcn import ModelConfig, split_edges, train_model, tree_graph

graph = tree_graph(3, 5)
print(f"graph: complete ternary tree, {graph.n} nodes / {graph.num_edges} edges")
print("task : rank held-out tree edges above random non-edges (test AUC)")
print()

seeds = range(5)
results = {}
for kind in ("shgcn", "gcn"):
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=16)
    aucs = []
    start = time.perf_counter()
    for seed in seeds:
        split = split_edges(graph, (0.85, 0.05, 0.10), seed=seed)
        res = train_model(config, graph, split, task="lp", seed=seed,
                          epochs=200, patience=100)
        aucs.append(res.test_metrics["auc"])
        print(f"  {kind:<6} seed {seed}: AUC {aucs[-1]:.4f} "
              f"({len(res.records)} epochs)")
    results[kind] = np.array(aucs)
    print(f"  {kind:<6} mean {results[kind].mean():.4f} "
          f"+/- {results[kind].std(ddof=1):.4f} "
          f"[{time.perf_counter() - start:.0f}s]")
    print()

margin = results["shgcn"].mean() - results["gcn"].mean()
print(f"hyperbolic margin over the Euclidean baseline: {margin:+.4f}")
