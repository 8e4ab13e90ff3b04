"""Simplified hyperbolic graph convolutional networks on numpy.

Poincaré-ball and Lorentz geometry kernels, a floating-point stability
prober, hyperbolic/Euclidean GCN layers with built-in reverse-mode
differentiation, and a desk-scale training and benchmarking harness.
"""

from .autodiff import Matrix, Node, Tape, finite_diff_grad, median_pool
from .errors import BoundaryCollapseError, PrecisionOverflowError, ShapeError
from .geometry import (
    LorentzPoint,
    PoincarePoint,
    TangentVector,
    exp0,
    log0,
    lorentz_dist0,
    lorentz_exp0,
    mobius_add,
    mobius_matvec,
    mobius_scalar_mul,
    poincare_dist,
    project,
)
from .graphs import (
    EdgeSplit,
    Graph,
    cycle_graph,
    delta_hyperbolicity,
    erdos_graph,
    load_graph,
    normalized_adjacency,
    parse_synthetic,
    random_tree,
    split_edges,
    tree_graph,
)
from .layers import (
    DecoderConfig,
    GraphModel,
    ModelConfig,
    fermi_dirac_score,
    gcn_layer_forward,
    hgcn_agg0_layer_forward,
    nc_head_forward,
    shgcn_layer_forward,
)
from .metrics import classification_metrics, mean_absolute_error, roc_auc
from .precision import Precision, round_to_precision
from .stability import (
    ThresholdReport,
    collapse_threshold,
    max_boundary_k,
    measure_epsilon,
    representable_radius,
    roundtrip_residual,
    threshold_report,
)
from .training import (
    EpochRecord,
    OptimizerState,
    TrainResult,
    adam_init,
    adam_step,
    benchmark_models,
    gr_loss,
    lp_loss,
    nc_loss,
    speedup_with_ci,
    train_graph_regression,
    train_model,
)

__version__ = "0.1.0"
