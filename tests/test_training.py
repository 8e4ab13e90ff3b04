import copy
import ctypes
import dataclasses
import math
import time
import warnings
import weakref

import numpy as np
import pytest

from shgcn import autodiff as ad
from shgcn import training
from shgcn.autodiff import Tape, finite_diff_grad
from shgcn.errors import NonFiniteError
from shgcn.graphs import (
    Graph,
    cycle_graph,
    erdos_graph,
    graph_from_train_edges,
    normalized_adjacency,
    random_tree,
    sample_negative_edges,
    split_edges,
    split_nodes,
    tree_graph,
)
from shgcn.layers import (
    ClassificationHead,
    DecoderConfig,
    GraphModel,
    ModelConfig,
    RegressionHead,
    fermi_dirac_edge_scores,
)
from shgcn.metrics import classification_metrics, mean_absolute_error, roc_auc
from shgcn.precision import Precision
from shgcn.training import (
    BenchResult,
    EpochRecord,
    WARMUP_EPOCHS,
    TrainResult,
    _disjoint_union,
    _grads_of,
    adam_init,
    adam_step,
    benchmark_models,
    gr_loss,
    lp_loss,
    nc_loss,
    speedup_with_ci,
    train_graph_regression,
    train_link_prediction,
    train_model,
    train_node_classification,
)

# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_lp_loss_perfect_scores_near_zero():
    tape = Tape()
    pos = tape.variable([[1.0 - 1e-9], [1.0 - 1e-9]])
    neg = tape.variable([[1e-9], [1e-9]])
    assert lp_loss(pos, neg).item() < 1e-6


def test_lp_loss_at_half():
    tape = Tape()
    pos = tape.variable([[0.5]])
    neg = tape.variable([[0.5]])
    assert abs(lp_loss(pos, neg).item() - 2 * math.log(2)) < 1e-12


def test_lp_loss_single_pos_value():
    tape = Tape()
    pos = tape.variable([[1.0 / (math.e + 1.0)]])
    neg = tape.variable([[1e-12]])
    expected = -math.log(1.0 / (math.e + 1.0))
    assert abs(lp_loss(pos, neg).item() - expected) < 1e-9
    assert abs(expected - 1.3132616875) < 1e-9


def test_lp_loss_rejects_out_of_range():
    tape = Tape()
    with pytest.raises(ValueError):
        lp_loss(tape.variable([[1.5]]), tape.variable([[0.5]]))


def test_nc_loss_values():
    tape = Tape()
    peaked = tape.variable([[50.0, 0.0, 0.0]])
    assert nc_loss(peaked, [0]).item() < 1e-12
    uniform = tape.variable(np.zeros((4, 6)))
    assert abs(nc_loss(uniform, [1, 2, 3, 0]).item() - math.log(6)) < 1e-12


def test_gr_loss_zero_at_target():
    tape = Tape()
    pred = tape.variable([[1.5], [2.5]])
    assert gr_loss(pred, [1.5, 2.5]).item() == 0.0


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.uniform(0.2, 0.8, (4, 1))

    def lp(arr):
        tape = Tape()
        return lp_loss(tape.variable(arr), tape.variable(1.0 - arr)).item()

    tape = Tape()
    pos = tape.variable(z)
    neg = tape.variable(1.0 - z)
    tape.backward(lp_loss(pos, neg))
    manual = finite_diff_grad(lp, z)
    combined = pos.grad - neg.grad  # d/dz of lp(z, 1-z)
    assert np.max(np.abs(combined - manual) / np.maximum(1, np.abs(manual))) < 1e-5


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_fixed_point():
    params = {"w": np.array([[1.0, -2.0]])}
    state = adam_init(params, lr=0.05)
    out = adam_step(state, params, {"w": np.zeros((1, 2))})
    assert np.array_equal(out["w"], params["w"])


def test_adam_first_step_magnitude():
    params = {"w": np.array([[0.0]])}
    state = adam_init(params, lr=0.01)
    out = adam_step(state, params, {"w": np.array([[2.0]])})
    assert abs(out["w"][0, 0] + 0.01) < 1e-8  # -lr * sign(g) within ADAM_EPS


def test_adam_constant_gradient_updates_shrink():
    params = {"w": np.array([[0.0]])}
    state = adam_init(params, lr=0.01)
    prev = params["w"][0, 0]
    deltas = []
    for _ in range(6):
        params = adam_step(state, params, {"w": np.array([[2.0]])})
        deltas.append(abs(params["w"][0, 0] - prev))
        prev = params["w"][0, 0]
    assert all(a >= b - 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_adam_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    state = adam_init(params)
    with pytest.raises(ValueError):
        adam_step(state, params, {"w": np.zeros((1, 2))})


def test_adam_step_count_increments():
    params = {"w": np.zeros((1, 1))}
    state = adam_init(params)
    adam_step(state, params, {"w": np.ones((1, 1))})
    adam_step(state, params, {"w": np.ones((1, 1))})
    assert state.step_count == 2


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_tree_setup():
    graph = tree_graph(2, 4)  # 31 nodes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = split_edges(graph, (0.85, 0.05, 0.10), seed=0)
    return graph, split


def test_zero_epochs_returns_initial_params(small_tree_setup):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="gcn", num_layers=2, hidden_dim=8)
    result = train_model(config, graph, split, task="lp", seed=0, epochs=0)
    assert result.records == []
    assert "auc" in result.test_metrics


def test_training_deterministic(small_tree_setup):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8)
    a = train_model(config, graph, split, task="lp", seed=3, epochs=5)
    b = train_model(config, graph, split, task="lp", seed=3, epochs=5)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])
    assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]


@pytest.mark.parametrize("kind", ["gcn", "shgcn", "hgcn-agg0"])
def test_loss_decreases_over_first_epochs(small_tree_setup, kind):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=8)
    first, last = [], []
    for seed in range(3):
        result = train_model(config, graph, split, task="lp", seed=seed, epochs=10,
                             lr=0.01)
        losses = [r.train_loss for r in result.records]
        first.append(losses[0])
        last.append(np.mean(losses[-3:]))
    assert np.mean(last) < np.mean(first)


def test_epoch_records_have_positive_time(small_tree_setup):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="gcn", num_layers=1, hidden_dim=4)
    result = train_model(config, graph, split, task="lp", seed=0, epochs=3)
    assert all(isinstance(r, EpochRecord) for r in result.records)
    assert len(result.epoch_times) == 3 and np.all(result.epoch_times > 0)


def test_node_classification_runs(small_tree_setup):
    graph, _ = small_tree_setup
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8)
    result = train_model(config, graph, split_nodes(graph.n, (0.85, 0.05, 0.10), 0),
                         task="nc", seed=0, epochs=30)
    assert 0.0 <= result.test_metrics["accuracy"] <= 1.0
    assert "f1" in result.test_metrics


def regression_family():
    graphs = []
    for i in range(12):
        g = erdos_graph(12, 0.15 + 0.02 * (i % 5), seed=i)
        density = 2.0 * g.num_edges / (g.n * (g.n - 1))
        graphs.append(Graph(g.n, g.edges, g.features, g.labels, 10 * density))
    return graphs


def test_graph_regression_runs():
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=6)
    result = train_graph_regression(config, regression_family(), seed=0, epochs=30)
    assert np.isfinite(result.test_metrics["mae"])


@pytest.mark.parametrize("ratios", [(0.5, 0.5), (1.2, -0.1, -0.1), (0.1, 0.7, 0.7)],
                         ids=["two", "negative", "sum-above-1"])
def test_graph_regression_rejects_bad_ratios(ratios):
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=6)
    with pytest.raises(ValueError, match="three nonnegatives summing to 1"):
        train_graph_regression(config, regression_family(), seed=0, epochs=1, ratios=ratios)


def test_graph_regression_refuses_mixed_feature_widths():
    # generated graphs under 16 nodes carry one landmark column per node
    graphs = [Graph(g.n, g.edges, g.features, None, 1.0)
              for g in (random_tree(1), cycle_graph(3), cycle_graph(3))]
    config = ModelConfig(layer_kind="shgcn", num_layers=1, hidden_dim=4)
    with pytest.raises(ValueError, match=r"same feature width, got \[1, 3\]"):
        train_graph_regression(config, graphs, seed=0, epochs=1, ratios=(1 / 3, 1 / 3, 1 / 3))


def test_graph_regression_draws_dropout_deterministically():
    graphs = regression_family()
    base = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=6)
    dropped = dataclasses.replace(base, dropout=0.5)
    a = train_graph_regression(base, graphs, seed=0, epochs=5)
    b = train_graph_regression(dropped, graphs, seed=0, epochs=5)
    c = train_graph_regression(dropped, graphs, seed=0, epochs=5)
    assert not np.array_equal(a.params["w0"], b.params["w0"])
    for k in b.params:
        assert np.array_equal(b.params[k], c.params[k])


def test_dropout_changes_training_but_stays_deterministic(small_tree_setup):
    graph, split = small_tree_setup
    base = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8)
    dropped = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8, dropout=0.5)
    a = train_model(base, graph, split, task="lp", seed=0, epochs=5)
    b = train_model(dropped, graph, split, task="lp", seed=0, epochs=5)
    c = train_model(dropped, graph, split, task="lp", seed=0, epochs=5)
    assert not np.array_equal(a.params["w0"], b.params["w0"])
    assert np.array_equal(b.params["w0"], c.params["w0"])


def test_early_stopping_respects_patience(small_tree_setup):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="gcn", num_layers=1, hidden_dim=4)
    result = train_model(config, graph, split, task="lp", seed=0, epochs=500,
                         patience=5)
    assert len(result.records) < 500


# ---------------------------------------------------------------------------
# the shared loop against the three separate loops it replaced
# ---------------------------------------------------------------------------
# The reference trainers below are the per-task loops as they stood before
# the trainers shared one loop: each epoch validates with a separate
# evaluation forward after its step, and graph regression draws no dropout.


def _ref_lp_eval(model, adj, features, pos, neg, decoder, mode):
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    tape = Tape()
    z, _ = model.forward(tape, adj, features, mode)
    pos_s = fermi_dirac_edge_scores(z, pos, decoder.r, decoder.t).data.reshape(-1)
    neg_s = fermi_dirac_edge_scores(z, neg, decoder.r, decoder.t).data.reshape(-1)
    scores = np.concatenate([pos_s, neg_s])
    labels = np.concatenate([np.ones(len(pos_s)), np.zeros(len(neg_s))])
    return roc_auc(scores, labels)


def reference_link_prediction(config, graph, split, seed=0, epochs=200, patience=100,
                              lr=0.01, decoder=DecoderConfig(), mode=Precision.DOUBLE):
    train_graph = graph_from_train_edges(graph, split)
    adj = normalized_adjacency(train_graph)
    model = GraphModel(config, graph.features.shape[1], seed=seed)
    opt = adam_init(model.parameters(), lr=lr)
    neg_rng = np.random.default_rng(seed + 101)
    drop_rng = np.random.default_rng(seed + 211)

    records = []
    times = []
    best_val, best_params, stale = -np.inf, copy.deepcopy(model.parameters()), 0
    for epoch in range(epochs):
        start = time.perf_counter()
        tape = Tape()
        z, nodes = model.forward(tape, adj, graph.features, mode, drop_rng)
        train_neg = sample_negative_edges(graph, len(split.train_pos), neg_rng)
        pos = fermi_dirac_edge_scores(z, split.train_pos, decoder.r, decoder.t)
        neg = fermi_dirac_edge_scores(z, train_neg, decoder.r, decoder.t)
        loss = lp_loss(pos, neg)
        tape.backward(loss)
        new_params = adam_step(opt, model.parameters(), _grads_of(nodes))
        model.set_parameters(new_params)
        times.append(time.perf_counter() - start)

        val = _ref_lp_eval(model, adj, graph.features, split.val_pos, split.val_neg,
                           decoder, mode)
        records.append(EpochRecord(epoch, loss.item(), val))
        if np.isfinite(val):
            if val > best_val:
                best_val, best_params, stale = val, copy.deepcopy(new_params), 0
            else:
                stale += 1
                if stale >= patience:
                    break
        else:
            best_params = copy.deepcopy(new_params)

    model.set_parameters(best_params)
    test_auc = _ref_lp_eval(model, adj, graph.features, split.test_pos, split.test_neg,
                            decoder, mode)
    return TrainResult(best_params, records, {"auc": test_auc}, np.asarray(times))


def reference_node_classification(config, graph, node_split, seed=0, epochs=200,
                                  patience=100, lr=0.01, mode=Precision.DOUBLE):
    train_idx, val_idx, test_idx = node_split
    num_classes = int(graph.labels.max()) + 1
    adj = normalized_adjacency(graph)
    model = GraphModel(config, graph.features.shape[1], seed=seed)
    head = ClassificationHead(config.hidden_dim, num_classes, seed=seed + 1)
    all_params = {**model.parameters(), **head.parameters()}
    opt = adam_init(all_params, lr=lr)
    drop_rng = np.random.default_rng(seed + 211)

    def set_all(params):
        model.set_parameters(params)
        head.set_parameters(params)

    def predict():
        tape = Tape()
        z, _ = model.forward(tape, adj, graph.features, mode)
        logits, _ = head.forward(tape, z, mode)
        return logits.data.argmax(axis=1)

    records = []
    times = []
    best_val, best_params, stale = -np.inf, copy.deepcopy(all_params), 0
    for epoch in range(epochs):
        start = time.perf_counter()
        tape = Tape()
        z, nodes = model.forward(tape, adj, graph.features, mode, drop_rng)
        logits, head_nodes = head.forward(tape, z, mode)
        train_logits = ad.gather_rows(logits, train_idx)
        loss = nc_loss(train_logits, graph.labels[train_idx])
        tape.backward(loss)
        nodes.update(head_nodes)
        params = {**model.parameters(), **head.parameters()}
        new_params = adam_step(opt, params, _grads_of(nodes))
        set_all(new_params)
        times.append(time.perf_counter() - start)

        preds = predict()
        val = (
            float(np.mean(preds[val_idx] == graph.labels[val_idx]))
            if len(val_idx)
            else float("nan")
        )
        records.append(EpochRecord(epoch, loss.item(), val))
        if np.isfinite(val):
            if val > best_val:
                best_val, best_params, stale = val, copy.deepcopy(new_params), 0
            else:
                stale += 1
                if stale >= patience:
                    break
        else:
            best_params = copy.deepcopy(new_params)

    set_all(best_params)
    preds = predict()
    average = "binary" if num_classes == 2 else "macro"
    metrics = classification_metrics(preds[test_idx], graph.labels[test_idx], average)
    return TrainResult(best_params, records, metrics, np.asarray(times))


def reference_graph_regression(config, graphs, seed=0, epochs=200, patience=100,
                               lr=0.01, ratios=(0.7, 0.15, 0.15), mode=Precision.DOUBLE):
    targets = np.array([g.graph_target for g in graphs], dtype=np.float64)
    union, membership = _disjoint_union(graphs)
    adj = normalized_adjacency(union)
    train_g, val_g, test_g = split_nodes(len(graphs), ratios, seed)
    model = GraphModel(config, union.features.shape[1], seed=seed)
    head = RegressionHead(config.hidden_dim, config.hidden_dim, seed=seed + 1)
    all_params = {**model.parameters(), **head.parameters()}
    opt = adam_init(all_params, lr=lr)

    def set_all(params):
        model.set_parameters(params)
        head.set_parameters(params)

    def predictions():
        tape = Tape()
        z, _ = model.forward(tape, adj, union.features, mode)
        pred, _ = head.forward(tape, z, membership, mode)
        return pred.data.reshape(-1)

    records = []
    times = []
    best_val, best_params, stale = np.inf, copy.deepcopy(all_params), 0
    for epoch in range(epochs):
        start = time.perf_counter()
        tape = Tape()
        z, nodes = model.forward(tape, adj, union.features, mode)
        pred, head_nodes = head.forward(tape, z, membership, mode)
        train_pred = ad.gather_rows(pred, train_g)
        loss = gr_loss(train_pred, targets[train_g])
        tape.backward(loss)
        nodes.update(head_nodes)
        params = {**model.parameters(), **head.parameters()}
        new_params = adam_step(opt, params, _grads_of(nodes))
        set_all(new_params)
        times.append(time.perf_counter() - start)

        preds = predictions()
        val = (
            mean_absolute_error(preds[val_g], targets[val_g])
            if len(val_g)
            else float("nan")
        )
        records.append(EpochRecord(epoch, loss.item(), val))
        if np.isfinite(val):
            if val < best_val:
                best_val, best_params, stale = val, copy.deepcopy(new_params), 0
            else:
                stale += 1
                if stale >= patience:
                    break
        else:
            best_params = copy.deepcopy(new_params)

    set_all(best_params)
    preds = predictions()
    metrics = {"mae": mean_absolute_error(preds[test_g], targets[test_g])}
    return TrainResult(best_params, records, metrics, np.asarray(times))


def assert_same_trajectory(got, want):
    assert list(got.params) == list(want.params)
    for k in want.params:
        assert np.array_equal(got.params[k], want.params[k]), k
    assert [r.epoch for r in got.records] == [r.epoch for r in want.records]
    assert [r.train_loss for r in got.records] == [r.train_loss for r in want.records]
    np.testing.assert_array_equal([r.val_metric for r in got.records],
                                  [r.val_metric for r in want.records])
    assert len(got.epoch_times) == len(got.records)
    assert list(got.test_metrics) == list(want.test_metrics)
    np.testing.assert_array_equal(list(got.test_metrics.values()),
                                  list(want.test_metrics.values()))


@pytest.fixture(scope="module")
def disconnected_setup():
    graph = erdos_graph(60, 0.04, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        split = split_edges(graph, (0.85, 0.05, 0.10), seed=1)
    return graph, split


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["shgcn", "hgcn-agg0", "gcn"])
def test_link_prediction_matches_reference(small_tree_setup, disconnected_setup,
                                           kind, dropout):
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=8, dropout=dropout)
    stopped = 0
    for graph, split in (small_tree_setup, disconnected_setup):
        for patience in (2, 100):
            kw = dict(seed=1, epochs=15, patience=patience, lr=0.02)
            got = train_link_prediction(config, graph, split, **kw)
            assert_same_trajectory(got, reference_link_prediction(config, graph, split, **kw))
            stopped += len(got.records) < 15
    assert stopped  # the early-stopping exit is among the compared runs


def test_link_prediction_matches_reference_without_validation_pairs(small_tree_setup):
    graph, split = small_tree_setup
    empty = np.zeros((0, 2), dtype=np.int64)
    split = dataclasses.replace(split, val_pos=empty, val_neg=empty)
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8)
    got = train_link_prediction(config, graph, split, seed=0, epochs=6, patience=1)
    assert len(got.records) == 6 and all(np.isnan(r.val_metric) for r in got.records)
    assert_same_trajectory(got, reference_link_prediction(config, graph, split, seed=0,
                                                          epochs=6, patience=1))


def test_link_prediction_matches_reference_in_half_precision(small_tree_setup):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=8)
    kw = dict(seed=2, epochs=8, mode=Precision.HALF)
    assert_same_trajectory(train_link_prediction(config, graph, split, **kw),
                           reference_link_prediction(config, graph, split, **kw))


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("kind", ["shgcn", "gcn"])
def test_node_classification_matches_reference(small_tree_setup, kind, dropout):
    graph, _ = small_tree_setup
    node_split = split_nodes(graph.n, (0.85, 0.05, 0.10), 0)
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=8, dropout=dropout)
    for patience in (0, 2, 100):
        kw = dict(seed=0, epochs=15, patience=patience, lr=0.02, mode=Precision.SINGLE)
        assert_same_trajectory(train_node_classification(config, graph, node_split, **kw),
                               reference_node_classification(config, graph, node_split, **kw))


@pytest.mark.parametrize("kind", ["shgcn", "hgcn-agg0"])
def test_graph_regression_matches_reference_without_dropout(kind):
    graphs = regression_family()
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=6)
    for patience in (2, 100):
        kw = dict(seed=0, epochs=15, patience=patience, lr=0.02, mode=Precision.SINGLE)
        assert_same_trajectory(train_graph_regression(config, graphs, **kw),
                               reference_graph_regression(config, graphs, **kw))


@pytest.mark.parametrize("dropout, forwards", [(0.0, 12), (0.2, 21)])
def test_forwards_per_call(small_tree_setup, monkeypatch, dropout, forwards):
    """Without dropout each epoch's training forward doubles as the previous
    epoch's validation forward: epochs + 2 forwards instead of 2 * epochs + 1."""
    graph, split = small_tree_setup
    calls = []
    original = GraphModel.forward

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GraphModel, "forward", counting)
    config = ModelConfig(layer_kind="gcn", num_layers=2, hidden_dim=8, dropout=dropout)
    result = train_link_prediction(config, graph, split, seed=0, epochs=10)
    assert len(result.records) == 10
    assert len(calls) == forwards


def train_task(task, config, setup, **kw):
    """Train `task` on the small tree (LP, NC) or the regression family (GR)."""
    graph, split = setup
    if task == "gr":
        return train_graph_regression(config, regression_family(), **kw)
    if task == "nc":
        return train_node_classification(
            config, graph, split_nodes(graph.n, (0.85, 0.05, 0.10), 1), **kw)
    return train_link_prediction(config, graph, split, **kw)


@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("task", ["lp", "nc", "gr"])
@pytest.mark.parametrize("kind", ["shgcn", "hgcn-agg0", "gcn"])
def test_released_backward_keeps_trajectories_bit_identical(small_tree_setup, monkeypatch,
                                                            kind, task, dropout):
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=6, dropout=dropout)
    kw = dict(seed=1, epochs=6, patience=3, lr=0.02)

    def train():
        return train_task(task, config, small_tree_setup, **kw)

    original, releases = Tape.backward, []

    def recording(self, root, release=False):
        releases.append(release)
        return original(self, root, release)

    monkeypatch.setattr(Tape, "backward", recording)
    shipped = train()
    assert releases and all(releases)
    monkeypatch.setattr(Tape, "backward", lambda self, root, release=False: original(self, root))
    assert_same_trajectory(shipped, train())


@pytest.mark.parametrize("patience", [1, 7])
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("task", ["lp", "nc", "gr"])
def test_one_tape_alive_at_each_forward(small_tree_setup, monkeypatch, task, dropout, patience):
    """Every forward, for training, validation or the test, starts with each
    earlier tape freed by reference counting alone, also when early
    stopping ends the loop."""
    tapes = []
    forward = GraphModel.forward

    def checking(self, tape, *args, **kwargs):
        alive = [i for i, ref in enumerate(tapes) if ref() is not None]
        assert not alive, f"forwards {alive} still hold their tapes"
        tapes.append(weakref.ref(tape))
        return forward(self, tape, *args, **kwargs)

    monkeypatch.setattr(GraphModel, "forward", checking)
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=6, dropout=dropout)
    result = train_task(task, config, small_tree_setup, seed=1, epochs=6, patience=patience,
                        lr=0.02)
    assert len(tapes) > len(result.records) > 0


@pytest.fixture
def fresh_heap_setting():
    """Let `_kept_heap` run again in this test, and again after it."""
    training._kept_heap.cache_clear()
    yield
    training._kept_heap.cache_clear()


class FakeLibc:
    """A C library whose `mallopt` and `malloc_trim` only record calls."""

    def __init__(self, calls: list, *missing: str):
        def mallopt(param, value):
            calls.append(("mallopt", param, value))
            return 1

        def malloc_trim(pad):
            calls.append(("malloc_trim", pad))
            return 1

        for name, fn in (("mallopt", mallopt), ("malloc_trim", malloc_trim)):
            if name not in missing:
                setattr(self, name, fn)


def test_mallopt_is_set_once_per_process_and_the_heap_trimmed_per_call(
        small_tree_setup, monkeypatch, fresh_heap_setting):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(calls))
    config = ModelConfig(layer_kind="gcn", num_layers=1, hidden_dim=4)
    for task in ("lp", "nc"):
        train_task(task, config, small_tree_setup, seed=0, epochs=3)
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20),
                     ("malloc_trim", 0), ("malloc_trim", 0)]


def test_heap_is_trimmed_when_training_raises(small_tree_setup, monkeypatch,
                                              fresh_heap_setting):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(calls))
    poison_step(monkeypatch, 2, "b1")
    with pytest.raises(NonFiniteError):
        train_task("lp", ModelConfig(num_layers=2, hidden_dim=4), small_tree_setup, seed=0,
                   epochs=3)
    assert calls[-1] == ("malloc_trim", 0)


def _refuse(error):
    def load(name):
        raise error("no C library")
    return load


@pytest.mark.parametrize("task", ["lp", "gr"])
@pytest.mark.parametrize("loader", [
    _refuse(OSError),  # no such shared object
    _refuse(TypeError),  # Windows: CDLL(None) takes no null name
    lambda name: FakeLibc([], "mallopt"),  # macOS: no mallopt
    lambda name: FakeLibc([], "malloc_trim"),  # a mallopt without glibc's malloc_trim
], ids=["oserror", "typeerror", "no-mallopt", "no-malloc-trim"])
def test_training_runs_alike_without_glibc(small_tree_setup, monkeypatch, fresh_heap_setting,
                                           task, loader):
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=6, dropout=0.2)
    kw = dict(seed=1, epochs=6, patience=3, lr=0.02)
    shipped = train_task(task, config, small_tree_setup, **kw)
    training._kept_heap.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", loader)
    assert training._kept_heap() is None
    assert_same_trajectory(train_task(task, config, small_tree_setup, **kw), shipped)


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


def test_benchmark_self_comparison_near_unity(small_tree_setup):
    # 32 interleaved 12-epoch runs a side, 224 timed epochs each, about 1 s.
    graph, split = small_tree_setup
    results = benchmark_models(["gcn", "gcn"], graph, split, seed=0, epochs=12,
                               runs=32, config_base=ModelConfig(num_layers=1, hidden_dim=4))
    ratio, lo, hi = speedup_with_ci(results[0], results[1])
    assert abs(ratio - 1.0) < 0.10


def test_speedup_interval_stays_positive_under_a_noisy_baseline():
    # 10.29 +- 5.44 ms against 2.32 +- 0.045 ms: an interval on the ratio
    # itself would reach below zero
    noisy = BenchResult("hgcn-agg0", np.zeros(0), 10.29e-3, 5.44e-3)
    steady = BenchResult("shgcn", np.zeros(0), 2.32e-3, 0.045e-3)
    ratio, lo, hi = speedup_with_ci(noisy, steady)
    assert ratio == pytest.approx(4.4353, abs=1e-4)
    assert (lo, hi) == (pytest.approx(1.573, abs=1e-3), pytest.approx(12.51, abs=1e-2))
    assert math.log(ratio / lo) == pytest.approx(math.log(hi / ratio))


def test_benchmark_interleaves_runs_across_kinds(small_tree_setup, monkeypatch):
    graph, split = small_tree_setup
    calls = []

    def fake(config, graph, split, *, seed, epochs, **kw):
        calls.append((config.layer_kind, seed))
        return TrainResult({}, [], {}, np.full(epochs, float(len(calls))))

    monkeypatch.setattr(training, "train_link_prediction", fake)
    results = benchmark_models(["gcn", "shgcn"], graph, split, seed=7, epochs=6, runs=3)
    assert calls == [("gcn", 7), ("shgcn", 7), ("shgcn", 8), ("gcn", 8),
                     ("gcn", 9), ("shgcn", 9)]
    assert [r.kind for r in results] == ["gcn", "shgcn"]
    assert np.array_equal(results[0].times, np.repeat([1.0, 4.0, 5.0], 6 - WARMUP_EPOCHS))
    assert np.array_equal(results[1].times, np.repeat([2.0, 3.0, 6.0], 6 - WARMUP_EPOCHS))


def test_benchmark_needs_enough_epochs(small_tree_setup):
    graph, split = small_tree_setup
    with pytest.raises(ValueError):
        benchmark_models(["gcn", "shgcn"], graph, split, epochs=3)


@pytest.mark.parametrize("epochs, runs", [(5, 3), (6, 1), (20, 0)])
def test_benchmark_needs_two_timed_epochs(small_tree_setup, epochs, runs):
    graph, split = small_tree_setup
    with pytest.raises(ValueError, match="needs at least two"):
        benchmark_models(["gcn", "shgcn"], graph, split, epochs=epochs, runs=runs)


# ---------------------------------------------------------------------------
# non-finite values stop training
# ---------------------------------------------------------------------------


def poison_step(monkeypatch, at_step: int, name: str):
    """Make the Adam step number `at_step` (1-based) return NaN in `name`."""
    real = training.adam_step

    def step(state, params, grads):
        out = real(state, params, grads)
        if state.step_count == at_step:
            out[name] = np.full_like(out[name], np.nan)
        return out

    monkeypatch.setattr(training, "adam_step", step)


@pytest.mark.parametrize("task", ["lp", "nc", "gr"])
def test_non_finite_parameter_stops_training(small_tree_setup, monkeypatch, task):
    graph, split = small_tree_setup
    config = ModelConfig(layer_kind="shgcn", num_layers=2, hidden_dim=4)
    poison_step(monkeypatch, 3, "b1")
    with pytest.raises(NonFiniteError, match=r"epoch 2: parameter 'b1'"):
        if task == "gr":
            train_graph_regression(config, regression_family(), seed=0, epochs=6)
        else:
            train_model(config, graph, split if task == "lp" else
                        split_nodes(graph.n, (0.85, 0.05, 0.10), 0), task=task,
                        seed=0, epochs=6)


def test_non_finite_loss_stops_training(small_tree_setup, monkeypatch):
    graph, split = small_tree_setup
    real = training.lp_loss
    monkeypatch.setattr(training, "lp_loss",
                        lambda pos, neg: real(pos, neg) * float("nan"))
    with pytest.raises(NonFiniteError, match="epoch 0: training loss is nan"):
        train_model(ModelConfig(num_layers=1, hidden_dim=4), graph, split, task="lp",
                    seed=0, epochs=3)
