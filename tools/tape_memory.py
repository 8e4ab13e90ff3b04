"""Measure the memory that training calls use, one line per call: the
cell (task, layer kind, precision), the call, its seconds, the minor page
faults it took, the process's max RSS after it, and the tracemalloc peak.

Each cell runs `--calls` plain calls in one process, then one call under
tracemalloc.  The plain calls give the seconds and the faults, counted with
`getrusage` on this process: the first call also grows the heap from
nothing, later ones show the steady state that a long-lived process sees.
The traced call gives the peak of the bytes that numpy and Python hold at
once (the tape, mostly); tracing slows every allocation, so that call's
seconds and faults are left out.  Max RSS is the process's high-water mark
(Linux units), so it never falls from one line to the next: run one cell
per process to read a cell's own peak.

LP and NC train on `--graph`, NC with the graph's labels (depth for
trees); GR trains on `--family`, `--graphs` members built as
`shgcn run --task gr` builds them.  Every call uses seed 0, 50 epochs by
default and patience above the epoch count, like the benchmark.

    PYTHONPATH=src python tools/tape_memory.py [--graph tree:3,7] [--mode double] \\
        [--family erdos:60,0.1,0] [--graphs 64] [--epochs 50] [--calls 2] [CELL ...]

CELL is task:kind, for example `lp:shgcn nc:gcn gr:hgcn-agg0`; the default
is `lp:shgcn`.  To read what the benchmark's two big workloads do:

    PYTHONPATH=src python tools/tape_memory.py --graph tree:3,7 lp:shgcn
    PYTHONPATH=src python tools/tape_memory.py --graph tree:3,6 --mode single nc:shgcn gr:shgcn
"""

from __future__ import annotations

import argparse
import gc
import resource
import time
import tracemalloc

from shgcn.graphs import parse_synthetic, regression_family, split_edges, split_nodes
from shgcn.layers import LAYER_KINDS, ModelConfig
from shgcn.precision import Precision
from shgcn.training import train_graph_regression, train_model

TASKS = ("lp", "nc", "gr")
SEED = 0
RATIOS = (0.85, 0.05, 0.10)  # the CLI's default split


def cell(text: str) -> tuple[str, str]:
    task, _, kind = text.partition(":")
    if task not in TASKS or kind not in LAYER_KINDS:
        raise argparse.ArgumentTypeError(
            f"bad cell {text!r}: need task:kind with task in {TASKS} and kind in {LAYER_KINDS}")
    return task, kind


def trainer(args, task: str, kind: str):
    """A function that runs one training call of the cell."""
    config = ModelConfig(layer_kind=kind)
    kw = dict(seed=SEED, epochs=args.epochs, patience=args.epochs + 1, mode=args.mode)
    if task == "gr":
        family = regression_family(args.family, args.graphs, SEED)
        return lambda: train_graph_regression(config, family, **kw)
    graph = parse_synthetic(args.graph)
    if task == "lp":
        split = split_edges(graph, RATIOS, SEED)
    else:
        split = split_nodes(graph.n, RATIOS, SEED)
    return lambda: train_model(config, graph, split, task=task, **kw)


def measure(train) -> tuple[float, int, float]:
    """Seconds, minor faults and max RSS (MB) of one call."""
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    train()
    seconds = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return seconds, usage.ru_minflt - faults, usage.ru_maxrss / 1024


def traced_peak(train) -> float:
    """The tracemalloc peak of one call, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        train()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def tape_memory(args) -> list[str]:
    lines = ["task kind mode call seconds minor_faults max_rss_mb traced_peak_mb"]
    for task, kind in args.cells or [("lp", "shgcn")]:
        name = f"{task} {kind} {args.mode.value}"
        train = trainer(args, task, kind)
        for call in range(1, args.calls + 1):
            seconds, faults, rss = measure(train)
            lines.append(f"{name} {call} {seconds:.3f} {faults} {rss:.1f} -")
        lines.append(f"{name} traced - - - {traced_peak(train):.1f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cells", nargs="*", type=cell, metavar="CELL")
    parser.add_argument("--graph", default="tree:3,7")
    parser.add_argument("--mode", type=Precision, default=Precision.DOUBLE,
                        choices=list(Precision), metavar="{half,single,double}")
    parser.add_argument("--family", default="erdos:60,0.1,0")
    parser.add_argument("--graphs", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--calls", type=int, default=2)
    args = parser.parse_args(argv)
    print("\n".join(tape_memory(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
