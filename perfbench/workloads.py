"""The four benchmark workloads: inputs made from a seed, one pass of
library calls, and the checks on their outputs.

Every call goes through the public library API that ``shgcn run``,
``shgcn stability`` and ``shgcn hyperbolicity`` use, looked up on its module
at call time so that a traced run sees it.  Training calls disable early
stopping (patience above the epoch count), so every call runs the same
number of epochs whatever the numbers do.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback
import warnings

import numpy as np

from shgcn import graphs, stability, training
from shgcn.graphs import Graph
from shgcn.layers import ModelConfig
from shgcn.precision import Precision

LP_RATIOS = (0.85, 0.05, 0.10)
NC_RATIOS = (0.85, 0.05, 0.10)
LAYER_KINDS = ("shgcn", "hgcn-agg0", "gcn")
# canonical-axis collapse thresholds of the paper's stability table
PAPER_THRESHOLDS = {Precision.HALF: 4.506, Precision.SINGLE: 9.011,
                    Precision.DOUBLE: 19.062}


class Pass:
    """One pass of a workload: wall time per library call, the step times,
    the outcome of every operation and the operations that failed."""

    def __init__(self):
        self.setups: list[float] = []
        self.times: dict[str, float] = {}
        self.steps: list[float] = []
        self.outcomes: dict[str, object] = {}
        self.failed: dict[str, str] = {}
        self.info: dict[str, float] = {}
        self.attempted = 0
        self.epochs = 0
        self.wall = 0.0  # set-ups and calls with the benchmark's own checks

    @property
    def seconds(self) -> float:
        return sum(self.times.values())

    def call(self, op: str, metric: str, fn):
        """Run fn as operation op, add its wall time to metric, and return
        its result, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            self.fail(op, f"raised {exc!r}")
            result = None
        elapsed = time.perf_counter() - t0
        self.times[metric] = self.times.get(metric, 0.0) + elapsed
        return result

    def check(self, op: str, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(op, reason)

    def fail(self, op: str, reason: str) -> None:
        self.failed.setdefault(op, reason)
        print(f"FAILED {op}: {reason}", file=sys.stderr)


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _check_training(p: Pass, op: str, result, metric_names) -> None:
    losses = [r.train_loss for r in result.records]
    vals = [r.val_metric for r in result.records]
    metrics = [result.test_metrics[m] for m in metric_names]
    p.check(op, _finite(*losses, *vals, *metrics),
            f"non-finite loss or metric: test {result.test_metrics}")
    p.epochs += len(result.records)


@dataclasses.dataclass(frozen=True)
class LinkPrediction:
    """Link prediction with each layer kind in turn on one graph and split."""

    graph: str
    kinds: tuple
    epochs: int
    auc_floor: float | None

    def setup(self, seed: int):
        graph = graphs.parse_synthetic(self.graph)
        with warnings.catch_warnings():
            # trees cannot keep a spanning forest in 85% of their edges
            warnings.simplefilter("ignore", UserWarning)
            split = graphs.split_edges(graph, LP_RATIOS, seed)
        return graph, split, seed

    def run_pass(self, inputs, p: Pass) -> None:
        graph, split, seed = inputs
        for kind in self.kinds:
            op = f"lp.{kind}"
            result = p.call(op, f"lp_s.{kind}", lambda: training.train_model(
                ModelConfig(layer_kind=kind), graph, split, task="lp", seed=seed,
                epochs=self.epochs, patience=self.epochs + 1))
            if result is None:
                continue
            _check_training(p, op, result, ["auc"])
            auc = result.test_metrics["auc"]
            p.outcomes[op] = (auc, result.records[-1].train_loss)
            if kind == "shgcn":  # the layer whose epochs `shgcn bench` reports
                p.steps.extend(result.epoch_times)
                p.info["lp_auc"] = auc
                if self.auc_floor is not None:
                    p.check(op, auc >= self.auc_floor,
                            f"test AUC {auc:.4f} below the floor {self.auc_floor}")


def regression_family(n: int, p: float, count: int, seed: int) -> list[Graph]:
    """Random graphs around erdos:<n>,<p> with target ten times the realised
    edge density, built the way ``shgcn run --task gr`` builds its family.
    The benchmark keeps its own copy so that its inputs stay fixed when the
    command line changes."""
    rng = np.random.default_rng(seed)
    family = []
    for i in range(count):
        pi = float(rng.uniform(0.5 * p, 1.5 * p))
        g = graphs.erdos_graph(n, pi, seed=seed + 1000 + i)
        density = 2.0 * g.num_edges / (g.n * (g.n - 1))
        family.append(Graph(g.n, g.edges, g.features, g.labels, 10.0 * density))
    return family


@dataclasses.dataclass(frozen=True)
class ClassifyAndRegress:
    """Node classification with depth labels, then graph regression over a
    family of random graphs, both in single precision."""

    graph: str
    family: tuple  # (n, p) of the erdos template
    family_size: int
    epochs: int

    def setup(self, seed: int):
        graph = graphs.parse_synthetic(self.graph)
        node_split = graphs.split_nodes(graph.n, NC_RATIOS, seed)
        family = regression_family(*self.family, self.family_size, seed)
        return graph, node_split, family, seed

    def run_pass(self, inputs, p: Pass) -> None:
        graph, node_split, family, seed = inputs
        config = ModelConfig(layer_kind="shgcn")
        result = p.call("nc", "nc_s", lambda: training.train_model(
            config, graph, node_split, task="nc", seed=seed, epochs=self.epochs,
            patience=self.epochs + 1, mode=Precision.SINGLE))
        if result is not None:
            _check_training(p, "nc", result, ["accuracy", "f1"])
            acc = result.test_metrics["accuracy"]
            p.check("nc", 0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]")
            p.outcomes["nc"] = (acc, result.records[-1].train_loss)
            p.info["nc_accuracy"] = acc
        result = p.call("gr", "gr_s", lambda: training.train_graph_regression(
            config, family, seed=seed, epochs=self.epochs,
            patience=self.epochs + 1, mode=Precision.SINGLE))
        if result is not None:
            _check_training(p, "gr", result, ["mae"])
            p.outcomes["gr"] = (result.test_metrics["mae"], result.records[-1].train_loss)
            p.info["gr_mae"] = result.test_metrics["mae"]
            p.steps.extend(result.epoch_times)


@dataclasses.dataclass(frozen=True)
class Probe:
    """Collapse-threshold searches in each precision along the canonical
    axis and along a seeded set of directions, and exact delta on a tree and
    on a connected non-tree graph whose delta is recorded here."""

    directions: int
    dim: int
    tree: str
    other: str
    other_delta: float

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(self.directions, self.dim))
        return dirs, graphs.parse_synthetic(self.tree), graphs.parse_synthetic(self.other)

    def run_pass(self, inputs, p: Pass) -> None:
        dirs, tree, other = inputs
        # the searches come in thirds around the two delta calls, so that
        # the step times sample the machine at three points of the pass
        third = -(-len(dirs) // 3)
        self._axis(p)
        self._directions(p, dirs, range(0, third))
        self._delta(p, "delta.tree", tree, 0.0)
        self._directions(p, dirs, range(third, 2 * third))
        self._delta(p, "delta.other", other, self.other_delta)
        self._directions(p, dirs, range(2 * third, len(dirs)))

    # one step is one direction searched in all three precisions, which
    # keeps the step times unimodal
    def _axis(self, p: Pass) -> None:
        t0 = time.perf_counter()
        for mode in Precision:
            op = f"threshold.{mode.value}.axis"
            report = p.call(op, "stability_s", lambda: stability.threshold_report(mode))
            if report is not None:
                got = report.collapse_threshold
                p.check(op, abs(got - PAPER_THRESHOLDS[mode]) <= stability.SEARCH_RESOLUTION,
                        f"threshold {got} differs from the paper's {PAPER_THRESHOLDS[mode]}")
                p.check(op, report.epsilon == mode.epsilon,
                        f"epsilon {report.epsilon} != {mode.epsilon}")
                p.outcomes[op] = got
        p.steps.append(time.perf_counter() - t0)

    def _directions(self, p: Pass, dirs, indices) -> None:
        for i in indices:
            t0 = time.perf_counter()
            for mode in Precision:
                op = f"threshold.{mode.value}.{i}"
                got = p.call(op, "stability_s",
                             lambda: stability.collapse_threshold(mode, dirs[i]))
                if got is not None:
                    p.check(op, _finite(got) and got > stability.SEARCH_LO,
                            f"threshold {got} is not a finite collapse point")
                    p.outcomes[op] = got
            p.steps.append(time.perf_counter() - t0)

    def _delta(self, p: Pass, op: str, graph, expected: float) -> None:
        got = p.call(op, "delta_s", lambda: graphs.delta_hyperbolicity(graph))
        if got is not None:
            p.check(op, got == expected, f"delta {got} != recorded {expected}")
            p.outcomes[op] = got


WORKLOADS = {
    "lp-tree6": LinkPrediction("tree:3,6", LAYER_KINDS, epochs=50, auc_floor=0.8),
    "lp-tree7": LinkPrediction("tree:3,7", ("shgcn",), epochs=50, auc_floor=0.8),
    "nc-gr-single": ClassifyAndRegress("tree:3,6", (60, 0.1), 64, epochs=50),
    "probe": Probe(50, 16, "tree:3,5", "erdos:300,0.02,0", 2.5),
}

# the same code paths at a size that runs in well under a second: the
# warm-up before timing, and the benchmark's smoke tests
TINY = {
    "lp-tree6": LinkPrediction("tree:2,3", LAYER_KINDS, epochs=3, auc_floor=None),
    "lp-tree7": LinkPrediction("tree:2,3", ("shgcn",), epochs=3, auc_floor=None),
    "nc-gr-single": ClassifyAndRegress("tree:2,3", (12, 0.3), 4, epochs=3),
    "probe": Probe(2, 16, "tree:2,3", "cycle:8", 2.0),
}
