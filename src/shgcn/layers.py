"""Model zoo: simplified hyperbolic GCN layer, the redundant-map hyperbolic
baseline it streamlines, a vanilla GCN layer, decoder heads, and graph-level
pooling.

The simplified layer keeps one exponential/Möbius/logarithm round per layer
and aggregates in the tangent space at the origin:

    H_out = act( A_tilde . log0( exp0(H W^T) (+)_c exp0(b) ) )

The baseline layer implements the message-passing rule literally, including
the exp/log pairs that cancel in exact arithmetic (ball-valued hidden state,
re-exponentiation after aggregation and around the activation).  Keeping
both makes the cost and the low-precision accuracy gap measurable.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad
from .autodiff import Node, Tape, fermi_dirac_edge_scores  # the decoder, re-exported
from .errors import ShapeError
from .geometry import default_projection_eps
from .precision import Precision

LAYER_KINDS = ("shgcn", "hgcn-agg0", "gcn")
ACTIVATIONS = ("relu", "identity")


def inverse_softplus(c: float) -> float:
    if c <= 0:
        raise ValueError("curvature must be positive")
    # log(expm1(c)) has rounded to c long before expm1 overflows near c = 709.8
    return math.log(math.expm1(c)) if c < 700.0 else float(c)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    layer_kind: str = "shgcn"
    num_layers: int = 2
    hidden_dim: int = 16
    activation: str = "relu"
    init_curvature: float = 1.0
    dropout: float = 0.0

    def __post_init__(self):
        if self.layer_kind not in LAYER_KINDS:
            raise ValueError(f"layer_kind must be one of {LAYER_KINDS}")
        if self.num_layers < 1 or self.hidden_dim < 1:
            raise ValueError("need num_layers >= 1 and hidden_dim >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.init_curvature < math.inf:
            raise ValueError("init_curvature must be positive and finite")


@dataclasses.dataclass(frozen=True)
class DecoderConfig:
    r: float = 2.0
    t: float = 1.0

    def __post_init__(self):
        ad.check_fermi_dirac(self.r, self.t)


# ---------------------------------------------------------------------------
# row-wise hyperbolic tape ops
# ---------------------------------------------------------------------------


def exp0_rows(u: Node, c: Node) -> Node:
    """Origin exponential map applied to every row; c is a (1,1) node."""
    arg = ad.row_norm(u) * ad.sqrt(c)
    return u * ad.tanhc(arg)


def log0_rows(y: Node, c: Node) -> Node:
    """Origin logarithm applied to every row; rows must be inside the ball."""
    arg = ad.row_norm(y) * ad.sqrt(c)
    return y * ad.artanhc(arg)


def project_rows(x: Node, c: Node, eps: float) -> Node:
    """Clip rows with sqrt(c)||x|| >= 1 - eps back to norm (1-eps)/sqrt(c)."""
    norms = ad.row_norm(x)
    cap = x.tape.constant(1.0 - eps, mode=x.mode) / ad.sqrt(c)
    scale = ad.minimum(x.tape.constant(1.0, mode=x.mode), cap / norms)
    return x * scale


def mobius_add_rows(x: Node, y: Node, c: Node) -> Node:
    """Row-wise gyrovector addition; y may be a single broadcast row."""
    xy = ad.row_sum(x * y)
    x2 = ad.row_sum(x * x)
    y2 = ad.row_sum(y * y)
    one = x.tape.constant(1.0, mode=x.mode)
    two_c_xy = 2.0 * (c * xy)
    ax = one + two_c_xy + c * y2
    ay = one - c * x2
    num = ax * x + ay * y
    den = one + two_c_xy + (c * c) * (x2 * y2)
    return num / den


# ---------------------------------------------------------------------------
# layer forwards
# ---------------------------------------------------------------------------


def _activate(x: Node, activation: str) -> Node:
    if activation == "relu":
        return ad.relu(x)
    if activation == "identity":
        return x
    raise ValueError(f"unknown activation {activation!r}")


def _hyperbolic_transform(h: Node, w: Node, b: Node, c: Node, eps: float) -> Node:
    """exp0(h W^T) (+)_c exp0(b), projected after every map."""
    u = h @ w.T
    p = project_rows(exp0_rows(u, c), c, eps)
    bp = project_rows(exp0_rows(b, c), c, eps)
    return project_rows(mobius_add_rows(p, bp, c), c, eps)


def shgcn_layer_forward(h: Node, adj, w: Node, b: Node, theta_c: Node,
                        activation: str = "relu") -> Node:
    """Simplified hyperbolic layer: Euclidean rows in, Euclidean rows out,
    one hyperbolic transform sandwiched between them."""
    c = ad.softplus(theta_c)
    m = _hyperbolic_transform(h, w, b, c, default_projection_eps(h.mode))
    t = log0_rows(m, c)
    s = ad.sparse_matmul(adj, t)
    return _activate(s, activation)


def hgcn_agg0_layer_forward(h_ball: Node, adj, w: Node, b: Node, theta_c: Node,
                            theta_c_out: Node, activation: str = "relu") -> Node:
    """Baseline hyperbolic layer, evaluated literally: ball rows in, ball
    rows out, with the redundant exp/log pairs and projections retained.
    In exact arithmetic those pairs are identities; in low precision they
    are where the collapse happens."""
    eps = default_projection_eps(h_ball.mode)
    c_in = ad.softplus(theta_c)
    c_out = ad.softplus(theta_c_out)
    t0 = log0_rows(h_ball, c_in)
    m = _hyperbolic_transform(t0, w, b, c_in, eps)
    t_agg = log0_rows(m, c_in)
    s = ad.sparse_matmul(adj, t_agg)
    y = project_rows(exp0_rows(s, c_in), c_in, eps)
    z = log0_rows(y, c_in)
    a = _activate(z, activation)
    return project_rows(exp0_rows(a, c_out), c_out, eps)


def gcn_layer_forward(h: Node, adj, w: Node, b: Node,
                      activation: str = "relu") -> Node:
    """sigma( A_tilde (H W^T + 1 b^T) )."""
    s = ad.sparse_matmul(adj, h @ w.T + b)
    return _activate(s, activation)


def ballify_rows(x: Node, theta_c: Node) -> Node:
    """Map Euclidean feature rows onto the ball (layer-0 input of the
    baseline model)."""
    c = ad.softplus(theta_c)
    return project_rows(exp0_rows(x, c), c, default_projection_eps(x.mode))


# ---------------------------------------------------------------------------
# decoder heads
# ---------------------------------------------------------------------------


def fermi_dirac_score(zi, zj, r: float = 2.0, t: float = 1.0) -> float:
    """Edge probability 1 / (exp((||zi - zj||^2 - r)/t) + 1) of one pair, in
    plain floats: the reference for the tape's `fermi_dirac_edge_scores`.

    The distance is the plain squared Euclidean one: embeddings live in
    Euclidean space by the time they reach the decoder.
    """
    ad.check_fermi_dirac(r, t)
    zi = np.asarray(zi, dtype=np.float64).reshape(-1)
    zj = np.asarray(zj, dtype=np.float64).reshape(-1)
    if zi.shape != zj.shape:
        raise ShapeError(f"shape mismatch: {zi.shape} vs {zj.shape}")
    d2 = float(np.sum((zi - zj) ** 2))
    return float(1.0 / (1.0 + math.exp(min((d2 - r) / t, 700.0))))


def nc_head_forward(h: Node, wc: Node, bc: Node) -> Node:
    """Class logits H Wc^T + bc (softmax lives inside the loss)."""
    return h @ wc.T + bc


def mlp_readout(pooled: Node, w1: Node, b1: Node, w2: Node, b2: Node) -> Node:
    """Two-layer readout mapping pooled graph vectors to scalar predictions."""
    hidden = ad.relu(pooled @ w1.T + b1)
    return hidden @ w2.T + b2


# ---------------------------------------------------------------------------
# trainable modules
# ---------------------------------------------------------------------------


class ParameterStore:
    """Trainable state as one ordered name -> 2-D float64 array dict, every
    array already in the shape the tape uses: weights (d_out, d_in), biases
    (1, d_out) and raw curvatures theta_c (1, 1), with c = softplus(theta_c).
    Each forward registers every entry on its tape as one variable."""

    def __init__(self, params: dict[str, np.ndarray]):
        self._params = params

    def parameters(self) -> dict[str, np.ndarray]:
        return dict(self._params)

    def set_parameters(self, values: dict) -> None:
        """Take this module's entries from `values`; other names are ignored.
        A 1-D bias or a 0-D curvature is read as one row."""
        for name, old in self._params.items():
            value = np.asarray(values[name], dtype=np.float64)
            if value.ndim < 2:
                value = value.reshape(1, -1)
            if value.shape != old.shape:
                raise ShapeError(
                    f"parameter {name!r} has shape {value.shape}, expected {old.shape}")
            self._params[name] = value

    def register(self, tape: Tape, mode: Precision) -> dict[str, Node]:
        return {name: tape.variable(v, mode) for name, v in self._params.items()}


def _uniform(rng: np.random.Generator, d_out: int, d_in: int) -> np.ndarray:
    """A (d_out, d_in) weight drawn from U(-1/sqrt(d_in), 1/sqrt(d_in))."""
    bound = 1.0 / math.sqrt(d_in)
    return rng.uniform(-bound, bound, size=(d_out, d_in))


class GraphModel(ParameterStore):
    """A stack of layers of one kind: `w{i}`, `b{i}` and `c{i}` per layer.
    The baseline also maps the input onto the ball with `c0` and closes
    its last activation map with its own curvature `c_out`."""

    def __init__(self, config: ModelConfig, in_dim: int, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        theta_c = inverse_softplus(config.init_curvature)
        dims = [in_dim] + [config.hidden_dim] * config.num_layers
        params = {}
        for i in range(config.num_layers):
            params[f"w{i}"] = _uniform(rng, dims[i + 1], dims[i])
            params[f"b{i}"] = np.zeros((1, dims[i + 1]))
            params[f"c{i}"] = np.full((1, 1), theta_c)
        if config.layer_kind == "hgcn-agg0":
            params["c_out"] = np.full((1, 1), theta_c)
        super().__init__(params)

    def forward(self, tape: Tape, adj, features, mode: Precision = Precision.DOUBLE,
                dropout_rng: np.random.Generator | None = None):
        """Euclidean embeddings (n, hidden_dim) plus the parameter node map
        (for reading gradients after backward)."""
        nodes = self.register(tape, mode)
        h = tape.constant(features, mode)  # no gradient flows to the input
        kind = self.config.layer_kind
        n_layers = self.config.num_layers

        def act(i):
            return self.config.activation if i < n_layers - 1 else "identity"

        def drop(x):
            if dropout_rng is not None and self.config.dropout > 0:
                return ad.dropout(x, self.config.dropout, dropout_rng)
            return x

        if kind == "gcn":
            for i in range(n_layers):
                h = gcn_layer_forward(drop(h), adj, nodes[f"w{i}"], nodes[f"b{i}"], act(i))
        elif kind == "shgcn":
            for i in range(n_layers):
                h = shgcn_layer_forward(
                    drop(h), adj, nodes[f"w{i}"], nodes[f"b{i}"], nodes[f"c{i}"], act(i)
                )
        else:  # hgcn-agg0
            h = ballify_rows(drop(h), nodes["c0"])
            for i in range(n_layers):
                theta_next = nodes[f"c{i + 1}"] if i + 1 < n_layers else nodes["c_out"]
                h = hgcn_agg0_layer_forward(
                    h, adj, nodes[f"w{i}"], nodes[f"b{i}"], nodes[f"c{i}"],
                    theta_next, act(i),
                )
            # decoders consume Euclidean rows: map the ball output back
            h = log0_rows(h, ad.softplus(nodes["c_out"]))
        return h, nodes


class ClassificationHead(ParameterStore):
    """Euclidean multinomial logistic regression on the embeddings:
    `wc` (num_classes, in_dim) and `bc` (1, num_classes)."""

    def __init__(self, in_dim: int, num_classes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__({"wc": _uniform(rng, num_classes, in_dim),
                          "bc": np.zeros((1, num_classes))})

    def forward(self, tape: Tape, h: Node, mode: Precision = Precision.DOUBLE):
        nodes = self.register(tape, mode)
        return nc_head_forward(h, nodes["wc"], nodes["bc"]), nodes


class RegressionHead(ParameterStore):
    """Median pooling followed by a small MLP readout: `r_w1`, `r_b1` for
    the hidden layer and `r_w2`, `r_b2` for the scalar output."""

    def __init__(self, in_dim: int, hidden: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        super().__init__({"r_w1": _uniform(rng, hidden, in_dim),
                          "r_b1": np.zeros((1, hidden)),
                          "r_w2": _uniform(rng, 1, hidden),
                          "r_b2": np.zeros((1, 1))})

    def forward(self, tape: Tape, h: Node, membership, mode: Precision = Precision.DOUBLE):
        pooled = ad.median_pool(h, membership)
        nodes = self.register(tape, mode)
        pred = mlp_readout(pooled, nodes["r_w1"], nodes["r_b1"], nodes["r_w2"], nodes["r_b2"])
        return pred, nodes
