"""Losses, Adam, and the train/validate/test loop with per-epoch timing.

The three trainers share one epoch loop (`_fit`).  When the model draws no
dropout, epoch e's validation metric is read from the forward that epoch
e+1 runs for training, on the same parameters, so a call runs epochs + 2
forwards rather than 2 * epochs + 1.  The per-epoch timing window covers
forward, negatives, backward and step; validation stays outside it."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import time

import numpy as np

from . import autodiff as ad
from .autodiff import Matrix, Node, Tape, lp_loss
from .errors import NonFiniteError
from .graphs import (
    EdgeSplit,
    Graph,
    graph_from_train_edges,
    normalized_adjacency,
    sample_negative_edges,
    split_nodes,
)
from .layers import (
    ClassificationHead,
    DecoderConfig,
    GraphModel,
    ModelConfig,
    RegressionHead,
    fermi_dirac_edge_scores,
)
from .metrics import classification_metrics, mean_absolute_error, roc_auc
from .precision import Precision

# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def nc_loss(logits: Node, labels) -> Node:
    """Mean softmax cross-entropy."""
    return ad.cross_entropy(logits, labels)


def gr_loss(pred: Node, target) -> Node:
    """Mean absolute error against scalar graph targets."""
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    diff = pred - pred.tape.constant(target, mode=pred.mode)
    return ad.mean_all(ad.relu(diff) + ad.relu(-diff))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclasses.dataclass
class OptimizerState:
    lr: float = 0.01
    step_count: int = 0
    m: dict = dataclasses.field(default_factory=dict)
    v: dict = dataclasses.field(default_factory=dict)


def adam_init(params: dict, lr: float = 0.01) -> OptimizerState:
    state = OptimizerState(lr=lr)
    for name, value in params.items():
        state.m[name] = np.zeros_like(np.asarray(value, dtype=np.float64))
        state.v[name] = np.zeros_like(state.m[name])
    return state


def adam_step(state: OptimizerState, params: dict, grads: dict) -> dict:
    """One bias-corrected update, computed in double.  Returns new params."""
    state.step_count += 1
    t = state.step_count
    out = {}
    for name, value in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != np.asarray(value).shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1 - ADAM_BETA2**t)
        out[name] = np.asarray(value, dtype=np.float64) - state.lr * m_hat / (
            np.sqrt(v_hat) + ADAM_EPS
        )
    return out


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metric: float


@dataclasses.dataclass
class TrainResult:
    params: dict
    records: list
    test_metrics: dict
    # seconds, one per epoch: forward, negatives, backward and step only.
    # Validation is never timed, also when it reads the next epoch's forward.
    epoch_times: np.ndarray


def _grads_of(nodes: dict) -> dict:
    return {name: node.grad for name, node in nodes.items()}


def _check_finite(epoch: int, loss: float, stepped: dict) -> None:
    """Stop training before a non-finite value reaches a record or the best
    parameters."""
    if not np.isfinite(loss):
        raise NonFiniteError(f"epoch {epoch}: training loss is {loss}")
    for name, value in stepped.items():
        if not np.isfinite(value).all():
            raise NonFiniteError(
                f"epoch {epoch}: parameter {name!r} is not finite after the Adam step")


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _kept_heap():
    """Set glibc's malloc, once per process, to keep a freed tape's pages
    for the next tape, and return its `malloc_trim`.  Where the C library
    has no `mallopt` or `malloc_trim` (macOS, Windows) nothing is set
    and the result is None.

    By default glibc adjusts two thresholds as it goes: freeing an mmapped
    array raises the mmap threshold to its size and the trim threshold to
    twice that.  A tape's arrays then come from the heap, and the freed tape
    at the heap top is handed back to the kernel after every epoch, so the
    next forward faults it all back in.  Setting either threshold stops the
    adjustment and freezes the other where it stands (128 KiB in a fresh
    process), which traps alone: tape arrays mmapped, or every epoch
    trimmed.  So both are set: arrays below 32 MiB (glibc's cap) come from
    the heap, and up to 256 MiB of free heap top is kept."""
    try:
        libc = ctypes.CDLL(None)
        mallopt, malloc_trim = libc.mallopt, libc.malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    return malloc_trim


def _fit(model: GraphModel, head, forward, loss_of, val_of, test_of, *, higher_is_better: bool,
         seed: int, epochs: int, patience: int, lr: float) -> TrainResult:
    """The epoch loop of every trainer: Adam, early stopping on a validation
    metric, per-epoch records and the test evaluation.  `forward(dropout_rng)`
    runs the model (and head) on a new tape and returns the output and
    parameter nodes, `loss_of(out)` builds the loss on that tape, and
    `val_of(matrix)` and `test_of(matrix)` score an evaluation output.
    Backward runs with `release=True`: each intermediate gradient buffer is
    freed once its rule has run, and only the parameter nodes keep theirs.
    The best params are set before one dropout-free forward goes to
    `test_of`.  Raises NonFiniteError when the loss or a stepped parameter
    is not finite.

    One tape is alive at a time: an epoch drops its tape once the step is
    taken, and with dropout the previous epoch's validation forward runs
    before the training forward.  The freed tape's pages stay in the heap
    for the next forward (`_kept_heap`), and go back to the kernel with
    `malloc_trim` when the call returns."""
    modules = [model] if head is None else [model, head]

    def params() -> dict:
        return {name: value for m in modules for name, value in m.parameters().items()}

    def set_params(values: dict) -> None:
        for m in modules:
            m.set_parameters(values)

    opt = adam_init(params(), lr=lr)
    drop_rng = np.random.default_rng(seed + 211)
    reuse = model.config.dropout == 0  # no dropout drawn: train forward == eval forward
    records: list[EpochRecord] = []
    times = []
    best_val = -np.inf if higher_is_better else np.inf
    best_params, stale = params(), 0

    def validate(loss: float, stepped: dict, out: Matrix) -> bool:
        """Record the oldest unvalidated epoch; True once patience runs out."""
        nonlocal best_val, best_params, stale
        val = val_of(out)
        records.append(EpochRecord(len(records), loss, val))
        if not np.isfinite(val):
            best_params = stepped
        elif val > best_val if higher_is_better else val < best_val:
            best_val, best_params, stale = val, stepped, 0
        else:
            stale += 1
            return stale >= patience
        return False

    malloc_trim = _kept_heap()
    try:
        pending = None  # (loss, params) of the stepped epoch awaiting validation
        for _ in range(epochs):
            if pending is not None and not reuse and validate(*pending, forward(None)[0].value):
                break
            start = time.perf_counter()
            out, nodes = forward(drop_rng)
            if pending is not None and reuse:
                paused = time.perf_counter()
                if validate(*pending, out.value):
                    del out, nodes  # the test forward runs with no tape alive
                    break
                start += time.perf_counter() - paused
            loss = loss_of(out)
            out.tape.backward(loss, release=True)
            stepped = adam_step(opt, params(), _grads_of(nodes))
            pending = (loss.item(), stepped)
            del out, nodes, loss  # the next forward runs with no tape alive
            _check_finite(len(times), *pending)
            set_params(stepped)
            times.append(time.perf_counter() - start)
        else:
            if pending is not None:
                validate(*pending, forward(None)[0].value)

        set_params(best_params)
        test = test_of(forward(None)[0].value)
        return TrainResult(best_params, records, test, np.asarray(times))
    finally:
        if malloc_trim is not None:
            malloc_trim(0)


def _lp_auc(z: Matrix, pos, neg, decoder: DecoderConfig) -> float:
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    z = Tape().constant(z)  # adopts the Matrix: no copy, no node on the training tape
    pos_s = fermi_dirac_edge_scores(z, pos, decoder.r, decoder.t).data.reshape(-1)
    neg_s = fermi_dirac_edge_scores(z, neg, decoder.r, decoder.t).data.reshape(-1)
    scores = np.concatenate([pos_s, neg_s])
    labels = np.concatenate([np.ones(len(pos_s)), np.zeros(len(neg_s))])
    return roc_auc(scores, labels)


def train_link_prediction(config: ModelConfig, graph: Graph, split: EdgeSplit,
                          seed: int = 0, epochs: int = 200, patience: int = 100,
                          lr: float = 0.01, decoder: DecoderConfig = DecoderConfig(),
                          mode: Precision = Precision.DOUBLE) -> TrainResult:
    """Fermi-Dirac link prediction.  Messages pass over the training edges
    only; training negatives are resampled each epoch while the validation
    and test negatives stay frozen in the split."""
    train_graph = graph_from_train_edges(graph, split)
    adj = normalized_adjacency(train_graph)
    model = GraphModel(config, graph.features.shape[1], seed=seed)
    neg_rng = np.random.default_rng(seed + 101)

    def forward(drop_rng):
        return model.forward(Tape(), adj, graph.features, mode, drop_rng)

    def loss_of(z):
        train_neg = sample_negative_edges(graph, len(split.train_pos), neg_rng)
        pos = fermi_dirac_edge_scores(z, split.train_pos, decoder.r, decoder.t)
        neg = fermi_dirac_edge_scores(z, train_neg, decoder.r, decoder.t)
        return lp_loss(pos, neg)

    return _fit(
        model, None, forward, loss_of,
        lambda z: _lp_auc(z, split.val_pos, split.val_neg, decoder),
        lambda z: {"auc": _lp_auc(z, split.test_pos, split.test_neg, decoder)},
        higher_is_better=True, seed=seed, epochs=epochs, patience=patience, lr=lr,
    )


def train_node_classification(config: ModelConfig, graph: Graph, node_split,
                              seed: int = 0, epochs: int = 200,
                              patience: int = 100, lr: float = 0.01,
                              mode: Precision = Precision.DOUBLE) -> TrainResult:
    """Cross-entropy node classification over the full-graph adjacency with
    a Euclidean logistic-regression head, on split_nodes' (train, val, test)."""
    if graph.labels is None:
        raise ValueError("node classification needs labels")
    train_idx, val_idx, test_idx = node_split
    num_classes = int(graph.labels.max()) + 1
    adj = normalized_adjacency(graph)
    model = GraphModel(config, graph.features.shape[1], seed=seed)
    head = ClassificationHead(config.hidden_dim, num_classes, seed=seed + 1)

    def forward(drop_rng):
        tape = Tape()
        z, nodes = model.forward(tape, adj, graph.features, mode, drop_rng)
        logits, head_nodes = head.forward(tape, z, mode)
        nodes.update(head_nodes)
        return logits, nodes

    def loss_of(logits):
        return nc_loss(ad.gather_rows(logits, train_idx), graph.labels[train_idx])

    def accuracy(logits: Matrix) -> float:
        if not len(val_idx):
            return float("nan")
        preds = logits.data.argmax(axis=1)
        return float(np.mean(preds[val_idx] == graph.labels[val_idx]))

    def test_metrics(logits: Matrix) -> dict:
        preds = logits.data.argmax(axis=1)
        average = "binary" if num_classes == 2 else "macro"
        return classification_metrics(preds[test_idx], graph.labels[test_idx], average)

    return _fit(
        model, head, forward, loss_of, accuracy, test_metrics,
        higher_is_better=True, seed=seed, epochs=epochs, patience=patience, lr=lr,
    )


def _disjoint_union(graphs: list[Graph]):
    offsets = np.cumsum([0] + [g.n for g in graphs[:-1]])
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)])
    feats = np.concatenate([g.features for g in graphs])
    membership = np.repeat(np.arange(len(graphs)), [g.n for g in graphs])
    total = sum(g.n for g in graphs)
    return Graph(total, edges, feats), membership


def train_graph_regression(config: ModelConfig, graphs: list[Graph],
                           seed: int = 0, epochs: int = 200, patience: int = 100,
                           lr: float = 0.01, ratios=(0.7, 0.15, 0.15),
                           mode: Precision = Precision.DOUBLE) -> TrainResult:
    """Graph-level regression: encoder, median pooling over each graph's
    nodes, MLP readout, mean-absolute-error loss.  Graphs are batched as a
    disjoint union, so messages never cross graph boundaries."""
    targets = np.array([g.graph_target for g in graphs], dtype=np.float64)
    if np.any(~np.isfinite(targets)):
        raise ValueError("every graph needs a finite graph_target")
    if len(widths := {g.features.shape[1] for g in graphs}) > 1:
        raise ValueError(f"every graph needs the same feature width, got {sorted(widths)}")
    union, membership = _disjoint_union(graphs)
    adj = normalized_adjacency(union)
    train_g, val_g, test_g = split_nodes(len(graphs), ratios, seed)
    model = GraphModel(config, union.features.shape[1], seed=seed)
    head = RegressionHead(config.hidden_dim, config.hidden_dim, seed=seed + 1)

    def forward(drop_rng):
        tape = Tape()
        z, nodes = model.forward(tape, adj, union.features, mode, drop_rng)
        pred, head_nodes = head.forward(tape, z, membership, mode)
        nodes.update(head_nodes)
        return pred, nodes

    def loss_of(pred):
        return gr_loss(ad.gather_rows(pred, train_g), targets[train_g])

    def val_mae(pred: Matrix) -> float:
        if not len(val_g):
            return float("nan")
        return mean_absolute_error(pred.data.reshape(-1)[val_g], targets[val_g])

    return _fit(
        model, head, forward, loss_of, val_mae,
        lambda pred: {"mae": mean_absolute_error(pred.data.reshape(-1)[test_g],
                                                 targets[test_g])},
        higher_is_better=False, seed=seed, epochs=epochs, patience=patience, lr=lr,
    )


def train_model(config: ModelConfig, graph: Graph, split, task: str = "lp",
                seed: int = 0, epochs: int = 200, patience: int = 100,
                lr: float = 0.01, decoder: DecoderConfig = DecoderConfig(),
                mode: Precision = Precision.DOUBLE) -> TrainResult:
    """Dispatch on task.  Deterministic under (config, seed): identical
    arguments give identical parameter trajectories."""
    if task == "lp":
        return train_link_prediction(config, graph, split, seed, epochs,
                                     patience, lr, decoder, mode)
    if task == "nc":
        return train_node_classification(config, graph, split, seed, epochs,
                                         patience, lr, mode)
    raise ValueError(f"unknown task {task!r} (use train_graph_regression for gr)")


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------

WARMUP_EPOCHS = 5
_CI_Z = 1.96  # two-sided 95% normal quantile


@dataclasses.dataclass
class BenchResult:
    kind: str
    times: np.ndarray  # post-warmup per-epoch seconds, all runs concatenated
    mean: float
    se: float


def check_bench_size(epochs: int, runs: int) -> None:
    """A standard error needs two timed epochs, and each run drops its
    first WARMUP_EPOCHS."""
    if epochs <= WARMUP_EPOCHS or runs < 1 or (epochs - WARMUP_EPOCHS) * runs < 2:
        raise ValueError(f"benchmarking times the epochs after the first {WARMUP_EPOCHS} of "
                         f"each run and needs at least two; got epochs {epochs}, runs {runs}")


def benchmark_models(kinds, graph: Graph, split: EdgeSplit, seed: int = 0,
                     epochs: int = 50, runs: int = 3,
                     config_base: ModelConfig | None = None,
                     decoder: DecoderConfig = DecoderConfig(),
                     lr: float = 0.01) -> list[BenchResult]:
    """Identical graph/split/seed across model kinds; per-epoch wall time is
    measured around forward+backward+step only and the first WARMUP_EPOCHS
    epochs of each run are discarded.  Runs go one at a time, interleaved
    across kinds in the order A B, B A, A B, ... so that a drift in the
    machine's speed falls on every kind alike rather than on whichever
    kind ran last."""
    check_bench_size(epochs, runs)
    base = config_base or ModelConfig()
    configs = [dataclasses.replace(base, layer_kind=kind) for kind in kinds]
    chunks = [[] for _ in kinds]
    for run in range(runs):
        order = range(len(kinds)) if run % 2 == 0 else reversed(range(len(kinds)))
        for i in order:
            res = train_link_prediction(
                configs[i], graph, split, seed=seed + run, epochs=epochs,
                patience=epochs + 1, lr=lr, decoder=decoder,
            )
            chunks[i].append(res.epoch_times[WARMUP_EPOCHS:])
    results = []
    for kind, kind_chunks in zip(kinds, chunks):
        times = np.concatenate(kind_chunks)
        mean = float(times.mean())
        se = float(times.std(ddof=1) / np.sqrt(len(times)))
        results.append(BenchResult(kind, times, mean, se))
    return results


def speedup_with_ci(baseline: BenchResult, subject: BenchResult):
    """Ratio of mean epoch times with a delta-method 95% confidence
    interval, built on the log ratio so that both bounds stay positive."""
    ratio = baseline.mean / subject.mean
    rel = np.sqrt((baseline.se / baseline.mean) ** 2 + (subject.se / subject.mean) ** 2)
    spread = float(np.exp(_CI_Z * rel))
    return ratio, ratio / spread, ratio * spread
