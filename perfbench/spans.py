"""Span tracing of the shgcn library from outside.

A traced run replaces public functions and methods of the library with
wrappers that record one span per call: name, start, end, parent span and
run id (the number of the pass, which includes its set-up).  Each name is patched where its
caller looks it up, so ``shgcn.training.sample_negative_edges`` is wrapped
rather than ``shgcn.graphs.sample_negative_edges``, and the node operators of
``autodiff.Node`` reach the wrapped ``shgcn.autodiff.mul`` through the module
globals.  Garbage-collector pauses are recorded as spans too, through
``gc.callbacks``, so they come out of the self time of whatever they
interrupted.

Spans stay in memory in flat typed arrays and are analysed when the run
ends.  Self time is a span's duration minus the durations of its direct
children (spans of one thread nest, so children never overlap).  The time
of a group of names counts only the outermost spans of the group, so a
nested call is not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import time
import weakref
from array import array

import numpy as np

# public tape primitives of shgcn.autodiff, each timed forward only
PRIMITIVES = (
    "add", "sub", "mul", "div", "matmul", "sparse_matmul", "transpose",
    "gather_rows", "sum_all", "mean_all", "row_sum", "row_norm", "tanh",
    "arctanh", "relu", "softplus", "sigmoid", "exp", "log", "sqrt", "tanhc",
    "artanhc", "clamp", "minimum", "cross_entropy", "median_pool", "dropout",
)
LAYER_KINDS = ("shgcn", "hgcn-agg0", "gcn")
GC_SPAN = "runtime.gc"


class Tracer:
    """In-memory span recorder.  Not thread-safe: the benchmark drives the
    library from one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.run = array("i")
        self.payload = array("d")  # per-span number: bytes, pairs, quadruples
        self.run_id = 0
        self._stack = [-1]
        self._gc_open: list[tuple[int, float]] = []
        self._gc_spans: list[tuple[int, float, float, int]] = []
        self._forward_of = weakref.WeakKeyDictionary()  # tape -> forward span
        self.trained: set[int] = set()  # forward spans whose tape ran backward
        self.kind_of: dict[int, str] = {}  # forward span -> layer kind
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """A function that records a span around each call of fn.  hook, if
        given, is called as hook(span, args, result) after fn returns."""
        nid = self.name_index(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.payload.append(0.0)
            self.end.append(math.nan)
            stack.append(i)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf()
                stack.pop()
            if hook is not None:
                hook(i, args, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.perfbench_span = name
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_open.append((self._stack[-1], time.perf_counter()))
        elif self._gc_open:
            parent, t0 = self._gc_open.pop()
            self._gc_spans.append((parent, t0, time.perf_counter(), self.run_id))

    # -- patching -----------------------------------------------------------
    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, lib):
        """Wrap the library for the duration of the block; every original
        is put back on exit, also when the block raises."""
        try:
            install(self, lib)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            self.unpatch()

    # -- hooks ----------------------------------------------------------------
    def _forward_hook(self, i, args, result):
        model, tape = args[0], args[1]
        self._forward_of[tape] = i
        self.kind_of[i] = model.config.layer_kind

    def _backward_hook(self, i, args, result):
        forward = self._forward_of.get(args[0])
        if forward is not None:
            self.trained.add(forward)

    def _payload_hook(self, measure):
        def hook(i, args, result):
            self.payload[i] = measure(args, result)
        return hook

    # -- analysis ---------------------------------------------------------------
    def spans(self) -> "Spans":
        gc_id = self.name_index(GC_SPAN)
        extra = self._gc_spans
        return Spans(
            names=list(self.names),
            name_id=np.concatenate([np.frombuffer(self.name_id, dtype=np.int32),
                                    np.full(len(extra), gc_id, dtype=np.int32)]),
            parent=np.concatenate([np.frombuffer(self.parent, dtype=np.int64),
                                   np.array([s[0] for s in extra], dtype=np.int64)]),
            start=np.concatenate([np.frombuffer(self.start),
                                  np.array([s[1] for s in extra])]),
            end=np.concatenate([np.frombuffer(self.end),
                                np.array([s[2] for s in extra])]),
            run=np.concatenate([np.frombuffer(self.run, dtype=np.int32),
                                np.array([s[3] for s in extra], dtype=np.int32)]),
            payload=np.concatenate([np.frombuffer(self.payload), np.zeros(len(extra))]),
            trained=set(self.trained),
            kind_of=dict(self.kind_of),
        )


def _matrix_bytes(args, result):
    data = args[1]
    size = data.size if isinstance(data, np.ndarray) else np.size(data)
    return 8.0 * size


def install(tracer: Tracer, lib) -> None:
    """Patch every traced name.  lib maps module names (``graphs``,
    ``training`` ...) to the imported shgcn modules."""
    graphs, layers, autodiff = lib["graphs"], lib["layers"], lib["autodiff"]
    training, stability = lib["training"], lib["stability"]
    geometry, precision = lib["geometry"], lib["precision"]
    p = tracer.patch

    p(graphs, "parse_synthetic", "graphs.parse_synthetic")
    p(graphs, "erdos_graph", "graphs.erdos_graph")
    p(graphs, "split_edges", "graphs.split_edges")
    p(graphs, "split_nodes", "graphs.split_nodes")
    p(training, "sample_negative_edges", "graphs.sample_negative_edges",
      tracer._payload_hook(lambda args, result: len(result)))
    p(training, "normalized_adjacency", "graphs.normalized_adjacency")
    p(graphs, "delta_hyperbolicity", "graphs.delta_hyperbolicity",
      tracer._payload_hook(lambda args, result: math.comb(args[0].n, 4)))

    p(layers.GraphModel, "forward", "layers.GraphModel.forward", tracer._forward_hook)
    p(layers, "shgcn_layer_forward", "layers.shgcn_layer_forward")
    p(layers, "hgcn_agg0_layer_forward", "layers.hgcn_agg0_layer_forward")
    p(layers, "gcn_layer_forward", "layers.gcn_layer_forward")
    p(training, "fermi_dirac_edge_scores", "layers.fermi_dirac_edge_scores")
    p(layers.ClassificationHead, "forward", "layers.ClassificationHead.forward")
    p(layers.RegressionHead, "forward", "layers.RegressionHead.forward")

    p(autodiff.Tape, "backward", "autodiff.Tape.backward", tracer._backward_hook)
    p(autodiff.Matrix, "__init__", "autodiff.Matrix", tracer._payload_hook(_matrix_bytes))
    p(autodiff.Node, "__init__", "autodiff.Node")
    for prim in PRIMITIVES:
        p(autodiff, prim, f"autodiff.op.{prim}")

    for module in (autodiff, geometry, precision):
        p(module, "round_array", "precision.round_array")

    p(training, "adam_step", "training.adam_step")
    for loss in ("lp_loss", "nc_loss", "gr_loss"):
        p(training, loss, f"training.{loss}")
    for trainer in ("train_model", "train_link_prediction",
                    "train_node_classification", "train_graph_regression"):
        p(training, trainer, f"training.{trainer}")

    p(training, "roc_auc", "metrics.roc_auc")
    p(training, "classification_metrics", "metrics.classification_metrics")

    p(stability, "exp0_array", "geometry.exp0_array")
    p(stability, "log0_array", "geometry.log0_array")
    p(stability, "collapse_threshold", "stability.collapse_threshold")
    p(stability, "threshold_report", "stability.threshold_report")
    p(stability, "roundtrip_residual", "stability.roundtrip_residual")


def leftover_wrappers(lib) -> list[str]:
    """Names in the library's modules, and in the classes they define, that
    are still bound to a span wrapper."""
    left = []
    for mod_name, module in lib.items():
        for attr, value in vars(module).items():
            owners = [(attr, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                owners += [(f"{attr}.{a}", v) for a, v in vars(value).items()]
            left += [f"{mod_name}.{a}" for a, v in owners if hasattr(v, "perfbench_span")]
    return left


class Spans:
    """Flat span arrays plus the arithmetic the per-layer metrics need."""

    def __init__(self, names, name_id, parent, start, end, run, payload,
                 trained=(), kind_of=None):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.run = np.asarray(run, dtype=np.int64)
        self.payload = np.asarray(payload, dtype=np.float64)
        self.trained = set(trained)
        self.kind_of = dict(kind_of or {})
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def mask(self, names, run=None) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        m = np.isin(self.name_id, ids)
        if run is not None:
            m &= self.run == run
        return m

    def count(self, names, run) -> int:
        return int(self.mask(names, run).sum())

    def self_sum(self, names, run) -> float:
        return float(self.self_time[self.mask(names, run)].sum())

    def payload_sum(self, names, run) -> float:
        return float(self.payload[self.mask(names, run)].sum())

    def inclusive(self, names, run=None, where=None) -> float:
        m = self.mask(names, run)
        if where is not None:
            m &= where
        return outermost_time(self.start[m], self.end[m])

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end,
                 run=self.run, payload=self.payload)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed duration of its direct
    children; parent is -1 for a root span."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def outermost_time(start: np.ndarray, end: np.ndarray) -> float:
    """Summed duration of the spans not nested inside another span of the
    same set: the time the set covers, each nested call counted once."""
    if len(start) == 0:
        return 0.0
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    outer = np.ones(len(start), dtype=bool)
    outer[1:] = start[1:] >= reach[:-1]
    return float((end[outer] - start[outer]).sum())


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

GENERATE = ("graphs.parse_synthetic", "graphs.erdos_graph")
SPLIT = ("graphs.split_edges", "graphs.split_nodes")
NEG = ("graphs.sample_negative_edges",)
DELTA = ("graphs.delta_hyperbolicity",)
FORWARD = ("layers.GraphModel.forward",)
LAYER_SPANS = {
    "shgcn": "layers.shgcn_layer_forward",
    "hgcn-agg0": "layers.hgcn_agg0_layer_forward",
    "gcn": "layers.gcn_layer_forward",
}
HEADS = ("layers.ClassificationHead.forward", "layers.RegressionHead.forward")
LOSSES = ("training.lp_loss", "training.nc_loss", "training.gr_loss")
TRAINERS = ("training.train_model", "training.train_link_prediction",
            "training.train_node_classification", "training.train_graph_regression")
KERNELS = ("geometry.exp0_array", "geometry.log0_array")
THRESHOLDS = ("stability.collapse_threshold", "stability.threshold_report")

# counts that must repeat exactly from pass to pass of one run (the
# collector's own count depends on the heap, so it is left out)
EXACT_COUNTS = frozenset(
    ["graphs.neg_sample_calls", "graphs.neg_pairs", "graphs.delta_quadruples",
     "autodiff.matrix_count", "autodiff.matrix_mb", "precision.round_calls",
     "training.epochs", "metrics.auc_calls", "geometry.exp0_calls",
     "geometry.log0_calls", "stability.roundtrip_calls"]
    + [f"layers.nodes_per_forward.{k}" for k in LAYER_KINDS]
    + [f"autodiff.op.{p}.calls" for p in PRIMITIVES]
)


def run_metrics(spans: Spans, run: int, epochs: int) -> dict:
    """Per-layer metrics of one run id as {name: (value, unit)}."""
    inc = lambda names, **kw: spans.inclusive(names, run, **kw)
    out = {}
    out["graphs.generate_s"] = (inc(GENERATE), "s")
    out["graphs.split_s"] = (inc(SPLIT), "s")
    out["graphs.neg_sample_s"] = (inc(NEG), "s")
    out["graphs.neg_sample_calls"] = (spans.count(NEG, run), "count")
    out["graphs.neg_pairs"] = (spans.payload_sum(NEG, run), "count")
    out["graphs.adjacency_s"] = (inc(("graphs.normalized_adjacency",)), "s")
    quads = spans.payload_sum(DELTA, run)
    delta_s = inc(DELTA)
    out["graphs.delta_quadruples"] = (quads, "count")
    out["graphs.delta_mquads_per_s"] = (quads / delta_s / 1e6 if delta_s > 0 else 0.0,
                                        "Mquad/s")

    fwd = spans.mask(FORWARD, run)
    trained = np.zeros(len(fwd), dtype=bool)
    trained[list(spans.trained)] = True
    out["layers.forward_s"] = (inc(FORWARD, where=trained), "s")
    out["layers.eval_forward_s"] = (inc(FORWARD, where=~trained), "s")
    for kind, name in LAYER_SPANS.items():
        out[f"layers.{kind.replace('-', '_')}_layer_s"] = (inc((name,)), "s")
    node_starts = np.sort(spans.start[spans.mask(("autodiff.Node",), run)])
    for kind in LAYER_KINDS:
        idx = [i for i in np.flatnonzero(fwd) if spans.kind_of.get(int(i)) == kind]
        nodes = [
            np.searchsorted(node_starts, spans.end[i]) - np.searchsorted(node_starts, spans.start[i])
            for i in idx
        ]
        per = float(np.mean(nodes)) if nodes else 0.0
        out[f"layers.nodes_per_forward.{kind}"] = (per, "count")
    out["layers.decoder_s"] = (inc(("layers.fermi_dirac_edge_scores",)), "s")
    out["layers.head_s"] = (inc(HEADS), "s")

    out["autodiff.backward_s"] = (inc(("autodiff.Tape.backward",)), "s")
    out["autodiff.matrix_count"] = (spans.count(("autodiff.Matrix",), run), "count")
    out["autodiff.matrix_s"] = (spans.self_sum(("autodiff.Matrix",), run), "s")
    out["autodiff.matrix_mb"] = (spans.payload_sum(("autodiff.Matrix",), run) / 1e6, "MB")
    for prim in PRIMITIVES:
        name = (f"autodiff.op.{prim}",)
        out[f"autodiff.op.{prim}.s"] = (spans.self_sum(name, run), "s")
        out[f"autodiff.op.{prim}.calls"] = (spans.count(name, run), "count")

    out["runtime.gc_s"] = (spans.self_sum((GC_SPAN,), run), "s")
    out["runtime.gc_collections"] = (spans.count((GC_SPAN,), run), "count")
    out["precision.round_calls"] = (spans.count(("precision.round_array",), run), "count")
    out["precision.round_s"] = (spans.self_sum(("precision.round_array",), run), "s")

    out["training.adam_s"] = (inc(("training.adam_step",)), "s")
    out["training.loss_s"] = (inc(LOSSES), "s")
    out["training.epochs"] = (epochs, "count")
    out["training.other_s"] = (spans.self_sum(TRAINERS, run), "s")

    out["metrics.auc_s"] = (inc(("metrics.roc_auc",)), "s")
    out["metrics.auc_calls"] = (spans.count(("metrics.roc_auc",), run), "count")
    out["metrics.classification_s"] = (inc(("metrics.classification_metrics",)), "s")

    out["geometry.exp0_calls"] = (spans.count(("geometry.exp0_array",), run), "count")
    out["geometry.log0_calls"] = (spans.count(("geometry.log0_array",), run), "count")
    out["geometry.kernel_s"] = (inc(KERNELS), "s")
    out["stability.threshold_s"] = (inc(THRESHOLDS), "s")
    out["stability.roundtrip_calls"] = (
        spans.count(("stability.roundtrip_residual",), run), "count")
    return out


def layer_metrics(spans: Spans, passes: list[int], epochs: list[int]):
    """Per-layer metrics over a traced run: times as the median over the
    passes, counts from the first pass.  Returns (metrics, names of counts
    that differed between passes)."""
    per_pass = [run_metrics(spans, run, ep) for run, ep in zip(passes, epochs)]
    out, unsteady = {}, []
    for name, (value, unit) in per_pass[0].items():
        if unit == "s" or unit == "Mquad/s":
            out[name] = (float(np.median([p[name][0] for p in per_pass])), unit)
        else:
            if name in EXACT_COUNTS and any(p[name][0] != value for p in per_pass):
                unsteady.append(name)
            out[name] = (value, unit)
    return out, unsteady
