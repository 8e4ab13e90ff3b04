import math

import numpy as np
import pytest

from shgcn import autodiff as ad
from shgcn.autodiff import Matrix, Tape, finite_diff_grad
from shgcn.geometry import exp0_array, log0_array, mobius_add_array, project_array
from shgcn.graphs import Graph, normalized_adjacency
from shgcn.layers import (
    ClassificationHead,
    DecoderConfig,
    GraphModel,
    ModelConfig,
    RegressionHead,
    ballify_rows,
    fermi_dirac_edge_scores,
    fermi_dirac_score,
    gcn_layer_forward,
    hgcn_agg0_layer_forward,
    inverse_softplus,
    log0_rows,
    mobius_add_rows,
    nc_head_forward,
    project_rows,
    shgcn_layer_forward,
)
from shgcn.precision import Precision

DOUBLE, HALF = Precision.DOUBLE, Precision.HALF
THETA_C1 = inverse_softplus(1.0)  # raw parameter giving curvature 1


def make_adj(n, edges):
    return normalized_adjacency(Graph(n, edges, np.zeros((n, 1))))


def layer_nodes(tape, w, b, theta, mode=DOUBLE):
    return (
        tape.variable(Matrix(w, mode)),
        tape.variable(Matrix(np.atleast_2d(b), mode)),
        tape.variable(Matrix([[theta]], mode)),
    )


# ---------------------------------------------------------------------------
# curvature parameterization
# ---------------------------------------------------------------------------


def softplus(theta: float) -> float:
    """The curvature the layers read from a raw parameter theta."""
    return float(ad.softplus(Tape().constant(theta)).data[0, 0])


def test_softplus_inverse_roundtrip():
    for c in (1e-8, 0.5, 1.0, 3.0):
        assert abs(softplus(inverse_softplus(c)) - c) < 1e-12 * max(1, c)


def test_curvature_always_positive():
    for theta in (-50.0, -1.0, 0.0, 10.0):
        assert softplus(theta) > 0.0


# ---------------------------------------------------------------------------
# row-level ops agree with the vector-level geometry
# ---------------------------------------------------------------------------


def test_rows_ops_match_geometry_rowwise():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, (5, 3))
    tape = Tape()
    c = tape.constant(1.0)
    x = tape.variable(X)
    from shgcn.layers import exp0_rows

    rows = exp0_rows(x, c).data
    for i in range(5):
        assert np.allclose(rows[i], exp0_array(X[i], 1.0), atol=1e-12)
    y = tape.variable(rows * 0.5)
    back = log0_rows(y, c).data
    for i in range(5):
        assert np.allclose(back[i], log0_array(rows[i] * 0.5, 1.0), atol=1e-12)


def test_mobius_rows_matches_vector_op():
    rng = np.random.default_rng(1)
    X = rng.uniform(-0.4, 0.4, (4, 3))
    Y = rng.uniform(-0.4, 0.4, (1, 3))
    tape = Tape()
    c = tape.constant(1.0)
    out = mobius_add_rows(tape.variable(X), tape.variable(Y), c).data
    for i in range(4):
        assert np.allclose(out[i], mobius_add_array(X[i], Y[0], 1.0), atol=1e-12)


def test_project_rows_matches_vector_op():
    X = np.array([[0.5, 0.0], [2.0, 0.0], [0.0, 0.0]])
    tape = Tape()
    out = project_rows(tape.variable(X), tape.constant(1.0), 1e-5).data
    for i in range(3):
        assert np.allclose(out[i], project_array(X[i], 1.0, 1e-5), atol=1e-12)


# ---------------------------------------------------------------------------
# GCN layer
# ---------------------------------------------------------------------------


def test_gcn_identity_params_is_aggregation():
    adj = make_adj(3, [[0, 1], [1, 2]])
    H = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tape = Tape()
    w, b, _ = layer_nodes(tape, np.eye(2), np.zeros(2), 0.0)
    out = gcn_layer_forward(tape.variable(H), adj, w, b, activation="identity")
    assert np.allclose(out.data, adj @ H, atol=1e-15)


def test_gcn_single_node():
    adj = make_adj(1, np.zeros((0, 2), dtype=int))
    tape = Tape()
    w, b, _ = layer_nodes(tape, np.array([[2.0]]), np.array([0.5]), 0.0)
    out = gcn_layer_forward(tape.variable([[3.0]]), adj, w, b, activation="identity")
    assert np.allclose(out.data, [[6.5]])


def test_gcn_path_row_average():
    adj = make_adj(2, [[0, 1]])
    tape = Tape()
    w, b, _ = layer_nodes(tape, np.array([[1.0]]), np.zeros(1), 0.0)
    out = gcn_layer_forward(tape.variable([[1.0], [3.0]]), adj, w, b, "identity")
    assert np.allclose(out.data, [[2.0], [2.0]])


# ---------------------------------------------------------------------------
# simplified hyperbolic layer
# ---------------------------------------------------------------------------


def test_shgcn_zero_bias_identity_activation_equals_gcn():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n, d, dout = 6, 4, 3
        edges = [[i, (i + 1) % n] for i in range(n)]
        adj = make_adj(n, edges)
        H = rng.uniform(-1.5, 1.5, (n, d))
        W = rng.uniform(-0.5, 0.5, (dout, d))
        theta = rng.uniform(-1.0, 1.5)
        tape = Tape()
        w, b, th = layer_nodes(tape, W, np.zeros(dout), theta)
        hyp = shgcn_layer_forward(tape.variable(H), adj, w, b, th, "identity")
        gcn = gcn_layer_forward(tape.variable(H), adj, w, b, "identity")
        assert np.max(np.abs(hyp.data - gcn.data)) < 1e-9


def test_shgcn_curvature_limit_with_bias():
    rng = np.random.default_rng(4)
    n, d = 5, 3
    adj = make_adj(n, [[i, (i + 1) % n] for i in range(n)])
    for trial in range(10):
        H = rng.uniform(-1.0, 1.0, (n, d))
        W = rng.uniform(-0.5, 0.5, (d, d))
        bias = rng.uniform(-1.0, 1.0, d)
        tape = Tape()
        w, b, th = layer_nodes(tape, W, bias, inverse_softplus(1e-8))
        hyp = shgcn_layer_forward(tape.variable(H), adj, w, b, th, "relu")
        gcn = gcn_layer_forward(tape.variable(H), adj, w, b, "relu")
        assert np.max(np.abs(hyp.data - gcn.data)) < 1e-4


def test_shgcn_single_node_relu():
    adj = make_adj(1, np.zeros((0, 2), dtype=int))
    tape = Tape()
    w, b, th = layer_nodes(tape, np.eye(2), np.zeros(2), THETA_C1)
    out = shgcn_layer_forward(tape.variable([[-1.0, 2.0]]), adj, w, b, th, "relu")
    assert out.data[0, 0] == 0.0
    assert abs(out.data[0, 1] - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# baseline layer with redundant maps
# ---------------------------------------------------------------------------


def agg0_vs_shgcn(H, mode):
    """Run both layer kinds on the same params; return (shgcn_out, log0 of
    agg0 out)."""
    n, d = H.shape
    adj = make_adj(n, [[i, (i + 1) % n] for i in range(n)])
    W = 0.1 * np.eye(d)
    tape = Tape()
    w, b, th = layer_nodes(tape, W, np.zeros(d), THETA_C1, mode)
    h_euc = tape.variable(Matrix(H, mode))
    s_out = shgcn_layer_forward(h_euc, adj, w, b, th, "identity")
    h_ball = ballify_rows(tape.variable(Matrix(H, mode)), th)
    a_out = hgcn_agg0_layer_forward(h_ball, adj, w, b, th, th, "identity")
    a_log = log0_rows(a_out, ad.softplus(th))
    return s_out.data, a_log.data


def test_agg0_equals_shgcn_in_double_interior():
    rng = np.random.default_rng(5)
    H = rng.uniform(-1.0, 1.0, (6, 3))
    s, a = agg0_vs_shgcn(H, DOUBLE)
    assert np.max(np.abs(s - a)) < 1e-6


def test_agg0_breaks_in_half_past_threshold():
    rng = np.random.default_rng(6)
    direction = rng.standard_normal((6, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    H = direction * 6.0  # input norms above the binary16 collapse threshold
    s_half, a_half = agg0_vs_shgcn(H, HALF)
    assert np.max(np.abs(s_half - a_half)) > 0.05
    s_dbl, a_dbl = agg0_vs_shgcn(H, DOUBLE)
    assert np.max(np.abs(s_dbl - a_dbl)) < 1e-6


def test_agg0_zero_features_stay_at_origin():
    n, d = 4, 3
    adj = make_adj(n, [[0, 1], [1, 2], [2, 3]])
    tape = Tape()
    w, b, th = layer_nodes(tape, np.eye(d), np.zeros(d), THETA_C1)
    h_ball = ballify_rows(tape.variable(np.zeros((n, d))), th)
    out = hgcn_agg0_layer_forward(h_ball, adj, w, b, th, th, "identity")
    assert np.allclose(out.data, 0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


def test_fermi_dirac_half_at_r():
    z = np.zeros(3)
    z2 = np.array([math.sqrt(2.0), 0.0, 0.0])  # squared distance exactly r
    assert abs(fermi_dirac_score(z, z2, r=2.0, t=1.0) - 0.5) < 1e-12


def test_fermi_dirac_worked_values():
    zi = np.array([2.0, 0.0])
    zj = np.array([0.0, 0.0])  # squared distance 4
    assert abs(fermi_dirac_score(zi, zj, 2.0, 1.0) - 1.0 / (math.e**2 + 1)) < 1e-12
    assert abs(fermi_dirac_score(zj, zj, 2.0, 1.0) - 1.0 / (math.exp(-2.0) + 1)) < 1e-12


def test_fermi_dirac_strictly_decreasing_in_distance():
    rng = np.random.default_rng(7)
    base = rng.standard_normal(4)
    dists = np.linspace(0, 5, 30)
    scores = [
        fermi_dirac_score(base, base + np.array([d, 0, 0, 0]), 2.0, 1.0) for d in dists
    ]
    assert all(0.0 < s < 1.0 for s in scores)
    assert all(a > b for a, b in zip(scores, scores[1:]))


def test_fermi_dirac_edge_scores_match_scalar():
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((5, 3))
    pairs = np.array([[0, 1], [2, 4], [3, 3]])
    tape = Tape()
    out = fermi_dirac_edge_scores(tape.variable(Z), pairs, r=1.5, t=0.7).data
    for row, (i, j) in zip(out, pairs):
        assert abs(row[0] - fermi_dirac_score(Z[i], Z[j], 1.5, 0.7)) < 1e-12


def test_nc_head_identity():
    tape = Tape()
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    logits = nc_head_forward(
        tape.variable(H), tape.variable(np.eye(2)), tape.variable(np.zeros((1, 2)))
    )
    assert np.allclose(logits.data, H)


def test_nc_head_argmax_and_softmax_symmetry():
    tape = Tape()
    logits = nc_head_forward(
        tape.variable([[5.0, 1.0, 1.0]]),
        tape.variable(np.eye(3)),
        tape.variable(np.zeros((1, 3))),
    )
    assert logits.data.argmax() == 0
    # symmetric two-class logits give probability one half each
    two = np.array([[0.3, 0.3]])
    p = np.exp(two) / np.exp(two).sum()
    assert np.allclose(p, 0.5)


def test_median_pool_layer():
    tape = Tape()
    h = tape.variable([[1.0], [2.0], [100.0], [1.0], [3.0]])
    out = ad.median_pool(h, [0, 0, 0, 1, 1])
    assert out.data[0, 0] == 2.0
    assert out.data[1, 0] == 2.0


# ---------------------------------------------------------------------------
# permutation equivariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["gcn", "shgcn", "hgcn-agg0"])
def test_permutation_equivariance(kind):
    rng = np.random.default_rng(10)
    n, d = 7, 4
    edges = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 0], [1, 4]]
    g = Graph(n, np.array(edges), rng.uniform(-1, 1, (n, d)))
    config = ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=3)
    model = GraphModel(config, d, seed=3)

    def run(graph):
        tape = Tape()
        out, _ = model.forward(tape, normalized_adjacency(graph), graph.features)
        return out.data

    base = run(g)
    perm = rng.permutation(n)
    remapped = np.vectorize(lambda v: perm[v])(g.edges)
    g2 = Graph(n, remapped, g.features[np.argsort(perm)])
    permuted = run(g2)
    assert np.allclose(permuted[perm], base, atol=1e-9)


# ---------------------------------------------------------------------------
# layer gradients (spot check; the acceptance suite sweeps all kinds)
# ---------------------------------------------------------------------------


def test_shgcn_layer_gradient_wrt_all_params():
    rng = np.random.default_rng(11)
    n, d, dout = 5, 3, 2
    adj = make_adj(n, [[i, (i + 1) % n] for i in range(n)])
    H = rng.uniform(-1, 1, (n, d))
    W = rng.uniform(-0.5, 0.5, (dout, d))
    bias = rng.uniform(-0.5, 0.5, (1, dout))
    theta = 0.3

    def loss_given(wv, bv, tv):
        tape = Tape()
        w = tape.variable(wv)
        b = tape.variable(bv)
        th = tape.variable(np.atleast_2d(tv))
        out = shgcn_layer_forward(tape.variable(H), adj, w, b, th, "identity")
        return tape, [w, b, th], ad.mean_all(out * out)

    tape, nodes, loss = loss_given(W, bias, theta)
    tape.backward(loss)
    fd_w = finite_diff_grad(lambda x: loss_given(x, bias, theta)[2].item(), W)
    fd_b = finite_diff_grad(lambda x: loss_given(W, x, theta)[2].item(), bias)
    fd_t = finite_diff_grad(lambda x: loss_given(W, bias, float(x[0, 0]))[2].item(),
                            np.array([[theta]]))
    for node, fd in zip(nodes, (fd_w, fd_b, fd_t)):
        assert np.max(np.abs(node.grad - fd) / np.maximum(1, np.abs(fd))) < 1e-5


# ---------------------------------------------------------------------------
# the input as a constant leaf
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", [DOUBLE, Precision.SINGLE])
@pytest.mark.parametrize("kind", ["shgcn", "hgcn-agg0", "gcn"])
@pytest.mark.parametrize("as_variable", ["features", "every constant"])
def test_constant_features_leave_parameter_gradients_bit_identical(
        kind, mode, as_variable, monkeypatch):
    from shgcn.graphs import sample_negative_edges, tree_graph
    from shgcn.training import lp_loss

    graph = tree_graph(2, 4)
    adj = normalized_adjacency(graph)
    model = GraphModel(ModelConfig(layer_kind=kind, num_layers=2, hidden_dim=6),
                       graph.features.shape[1], seed=5)
    neg = sample_negative_edges(graph, len(graph.edges), np.random.default_rng(5))

    def grads():
        tape = Tape()
        z, nodes = model.forward(tape, adj, graph.features, mode)
        tape.backward(lp_loss(fermi_dirac_edge_scores(z, graph.edges),
                              fermi_dirac_edge_scores(z, neg)))
        return {name: node.grad for name, node in nodes.items()}

    as_constant = grads()
    constant, made = Tape.constant, []

    def variable_instead(self, data, mode=DOUBLE):
        is_features = np.shape(getattr(data, "data", data)) == graph.features.shape
        if as_variable == "features" and not is_features:
            return constant(self, data, mode)
        made.append(self.variable(data, mode))
        return made[-1]

    monkeypatch.setattr(Tape, "constant", variable_instead)
    as_variables = grads()
    assert made and made[0].grad is not None  # the input did take a gradient
    assert as_constant.keys() == as_variables.keys()
    for name in as_constant:
        assert np.array_equal(as_constant[name], as_variables[name]), name


# ---------------------------------------------------------------------------
# the parameter store
# ---------------------------------------------------------------------------


def _draws(seed, *shapes):
    """Seeded U(-1/sqrt(d_in), 1/sqrt(d_in)) draws, one per (d_out, d_in)
    shape, in order."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1 / math.sqrt(d_in), 1 / math.sqrt(d_in), size=(d_out, d_in))
            for d_out, d_in in shapes]


@pytest.mark.parametrize("kind", ["shgcn", "hgcn-agg0", "gcn"])
def test_graph_model_parameter_layout_and_init(kind):
    config = ModelConfig(layer_kind=kind, num_layers=3, hidden_dim=4, init_curvature=0.7)
    params = GraphModel(config, 5, seed=9).parameters()
    names = ["w0", "b0", "c0", "w1", "b1", "c1", "w2", "b2", "c2"]
    names += ["c_out"] if kind == "hgcn-agg0" else []
    assert list(params) == names
    weights = _draws(9, (4, 5), (4, 4), (4, 4))
    for i in range(3):
        assert np.array_equal(params[f"w{i}"], weights[i])
        assert np.array_equal(params[f"b{i}"], np.zeros((1, 4)))
    for name in names:
        assert params[name].ndim == 2 and params[name].dtype == np.float64
        if name.startswith("c"):
            assert params[name].shape == (1, 1)
            assert params[name][0, 0] == inverse_softplus(0.7)


def test_head_parameter_layout_and_init():
    wc, = _draws(4, (3, 6))
    head = ClassificationHead(6, 3, seed=4)
    assert list(head.parameters()) == ["wc", "bc"]
    assert np.array_equal(head.parameters()["wc"], wc)
    assert np.array_equal(head.parameters()["bc"], np.zeros((1, 3)))

    w1, w2 = _draws(4, (5, 6), (1, 5))
    head = RegressionHead(6, 5, seed=4)
    params = head.parameters()
    assert list(params) == ["r_w1", "r_b1", "r_w2", "r_b2"]
    assert np.array_equal(params["r_w1"], w1) and np.array_equal(params["r_w2"], w2)
    assert np.array_equal(params["r_b1"], np.zeros((1, 5)))
    assert np.array_equal(params["r_b2"], np.zeros((1, 1)))


@pytest.mark.parametrize("make", [
    lambda: GraphModel(ModelConfig(layer_kind="hgcn-agg0", num_layers=2, hidden_dim=3), 2),
    lambda: ClassificationHead(3, 4),
    lambda: RegressionHead(3, 2),
], ids=["graph-model", "classification-head", "regression-head"])
def test_set_parameters_reads_flat_biases_and_scalar_curvatures(make):
    module = make()
    shapes = {name: value.shape for name, value in module.parameters().items()}
    rng = np.random.default_rng(2)
    new = {name: rng.standard_normal(shape) for name, shape in shapes.items()}

    def loose(value):  # a one-row array as 1-D, a 1 x 1 one as 0-D
        return value.reshape(()) if value.size == 1 else value[0] if len(value) == 1 else value

    flat = {name: loose(value) for name, value in new.items()}
    assert any(v.ndim == 1 for v in flat.values())
    module.set_parameters({**flat, "unrelated": np.zeros(7)})
    got = module.parameters()
    assert list(got) == list(shapes)
    for name in shapes:
        assert got[name].shape == shapes[name] and np.array_equal(got[name], new[name])
    module.set_parameters(got)  # its own output round-trips unchanged
    for name, value in module.parameters().items():
        assert np.array_equal(value, new[name])
    wrong = dict(got)
    first = next(iter(got))
    wrong[first] = np.zeros((7, 7))
    with pytest.raises(ValueError, match=f"parameter '{first}' has shape"):
        module.set_parameters(wrong)


def test_config_rejects_non_positive_curvature():
    for c in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="init_curvature"):
            ModelConfig(init_curvature=c)
    assert softplus(inverse_softplus(1000.0)) == 1000.0  # no overflow
