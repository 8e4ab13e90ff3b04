"""Print one SHA-256 digest per training trajectory.  Run it at two commits
and diff the outputs to check that a change keeps training bit-identical.

Each line names one cell of {lp, nc, gr} x {shgcn, hgcn-agg0, gcn} x
{single, double} x dropout {0, 0.3}, 36 in all, and digests the trained
parameters, every epoch record's (epoch, loss, validation metric) and the
test metrics.  LP and NC train on tree:2,6 and GR on 16 graphs of
erdos:40,0.1, built as `shgcn run --task gr` builds them.  Every run uses
seed 0 and the default model and training settings.

    PYTHONPATH=src python tools/trajectory_digests.py [--epochs 12] > digests.txt

With `--against FILE` it compares its lines with an earlier output instead
of printing them: each line that moved (or appears on one side only) is
printed with the old and new digest, then a count, and the exit status is
1 if any line moved, 0 if none did.

    PYTHONPATH=src python tools/trajectory_digests.py --against digests.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools

import numpy as np

from shgcn.cli import _regression_family
from shgcn.graphs import parse_synthetic, split_edges, split_nodes
from shgcn.layers import LAYER_KINDS, ModelConfig
from shgcn.precision import Precision
from shgcn.training import TrainResult, train_graph_regression, train_model

TASKS = ("lp", "nc", "gr")
MODES = (Precision.SINGLE, Precision.DOUBLE)
DROPOUTS = (0.0, 0.3)
SEED = 0
RATIOS = (0.85, 0.05, 0.10)  # the CLI's default split


def digest(result: TrainResult) -> str:
    h = hashlib.sha256()
    for name in sorted(result.params):
        h.update(name.encode())
        h.update(result.params[name].tobytes())
    for r in result.records:
        h.update(np.array([r.epoch, r.train_loss, r.val_metric], dtype=np.float64).tobytes())
    for name in sorted(result.test_metrics):
        h.update(name.encode())
        h.update(np.float64(result.test_metrics[name]).tobytes())
    return h.hexdigest()


def trajectory_digests(epochs: int) -> list[str]:
    tree = parse_synthetic("tree:2,6")
    family = _regression_family("erdos:40,0.1,0", 16, SEED)
    lines = []
    for task, kind, mode, dropout in itertools.product(TASKS, LAYER_KINDS, MODES, DROPOUTS):
        config = ModelConfig(layer_kind=kind, dropout=dropout)
        if task == "gr":
            result = train_graph_regression(config, family, seed=SEED, epochs=epochs, mode=mode)
        else:
            split = (split_edges(tree, RATIOS, SEED) if task == "lp"
                     else split_nodes(tree.n, RATIOS, SEED))
            result = train_model(config, tree, split, task=task, seed=SEED, epochs=epochs,
                                 mode=mode)
        lines.append(f"{task} {kind} {mode.value} dropout={dropout} {digest(result)}")
    return lines


def moved_lines(old: list[str], new: list[str]) -> list[str]:
    """One line per cell whose digest differs between two outputs, or that
    only one of them has: `<cell> <old digest> -> <new digest>`, with `-`
    for a missing side."""
    before, after = (dict(line.rsplit(" ", 1) for line in lines if line.strip())
                     for lines in (old, new))
    cells = list(before) + [cell for cell in after if cell not in before]
    return [f"{cell} {before.get(cell, '-')} -> {after.get(cell, '-')}"
            for cell in cells if before.get(cell) != after.get(cell)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=12)
    parser.add_argument("--against", metavar="FILE",
                        help="compare with an earlier output; exit 1 if any line moved")
    args = parser.parse_args(argv)
    lines = trajectory_digests(args.epochs)
    if args.against is None:
        print("\n".join(lines))
        return 0
    with open(args.against) as f:
        old = f.read().splitlines()
    moved = moved_lines(old, lines)
    for line in moved:
        print(line)
    print(f"{len(moved)} of {len(lines)} lines moved")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
