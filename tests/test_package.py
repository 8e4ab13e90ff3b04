import types

import shgcn
from shgcn import autodiff

# Every public name `import shgcn` offers, submodules aside.  Adding or
# removing an export is an interface change: update this set in the same
# change and name the difference in CHANGES.md.
PUBLIC_NAMES = {
    "BoundaryCollapseError", "DecoderConfig", "EdgeSplit", "EpochRecord", "Graph",
    "GraphModel", "LorentzPoint", "Matrix", "ModelConfig", "Node", "OptimizerState",
    "PoincarePoint", "Precision", "PrecisionOverflowError", "ShapeError",
    "TangentVector", "Tape", "ThresholdReport", "TrainResult",
    "adam_init", "adam_step", "benchmark_models", "classification_metrics",
    "collapse_threshold", "cycle_graph", "delta_hyperbolicity", "erdos_graph", "exp0",
    "fermi_dirac_score", "finite_diff_grad", "gcn_layer_forward", "gr_loss",
    "hgcn_agg0_layer_forward", "load_graph", "log0", "lorentz_dist0", "lorentz_exp0",
    "lp_loss", "max_boundary_k", "mean_absolute_error", "measure_epsilon",
    "median_pool", "mobius_add", "mobius_matvec", "mobius_scalar_mul",
    "nc_head_forward", "nc_loss", "normalized_adjacency", "parse_synthetic",
    "poincare_dist", "project", "random_tree", "representable_radius", "roc_auc",
    "round_to_precision", "roundtrip_residual", "shgcn_layer_forward",
    "speedup_with_ci", "split_edges", "threshold_report", "train_graph_regression",
    "train_model", "tree_graph",
}


def test_public_names_are_pinned():
    public = {name for name in dir(shgcn) if not name.startswith("_")
              and not isinstance(getattr(shgcn, name), types.ModuleType)}
    assert public == PUBLIC_NAMES


def test_median_pool_is_the_tape_primitive():
    assert shgcn.median_pool is autodiff.median_pool
