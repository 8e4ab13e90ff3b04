"""Command-line interface.

Subcommands:
    run            train/evaluate one model on one task (lp, nc, gr)
    bench          per-epoch timing comparison across model kinds
    stability      emit the per-precision collapse-threshold table
    hyperbolicity  exact Gromov delta of a graph

Exit codes: 0 success, 2 usage/validation error, 1 runtime failure.
The default output directory comes from $SHGCN_OUT_DIR (falling back to
./reports); reports are written as report.json plus report.txt.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .graphs import (
    Graph,
    check_ratios,
    delta_hyperbolicity,
    erdos_graph,
    load_graph,
    parse_synthetic,
    split_edges,
    split_nodes,
    split_sizes,
)
from .layers import DecoderConfig, ModelConfig
from .precision import Precision
from .stability import all_threshold_reports, reports_to_csv, reports_to_text
from .training import (
    benchmark_models,
    check_bench_size,
    speedup_with_ci,
    train_graph_regression,
    train_model,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1

RUN_DEFAULTS = {
    "task": "lp",
    "model": "shgcn",
    "layers": 2,
    "dim": 16,
    "activation": "relu",
    "lr": 0.01,
    "epochs": 1000,
    "patience": 100,
    "seeds": "0",
    "ratios": "0.85,0.05,0.10",
    "decoder_r": 2.0,
    "decoder_t": 1.0,
    "dropout": 0.0,
    "curvature": 1.0,
    "precision": "double",
    "count": 24,
}
BENCH_DEFAULTS = {k: RUN_DEFAULTS[k] for k in (
    "layers", "dim", "activation", "lr", "ratios", "curvature", "decoder_r", "decoder_t",
)} | {"epochs": 50}


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> str:
    return args.out or os.environ.get("SHGCN_OUT_DIR", "reports")


def _write_report(out_dir: str, payload: dict, text: str) -> None:
    # a non-finite value raises here instead of reaching the file as NaN
    blob = json.dumps(payload, indent=2, default=_jsonable, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(blob)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _load_config_file(path: str | None, keys) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"config file is not valid JSON: {exc}") from None
    unknown = set(data) - set(keys)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return data


def _resolve(args, defaults: dict) -> dict:
    """Precedence: built-in defaults < config file < explicit flags.  A
    config key outside `defaults` is a usage error."""
    resolved = dict(defaults)
    resolved.update(_load_config_file(args.config, defaults))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _parse_seeds(raw) -> list[int]:
    try:
        if isinstance(raw, (list, tuple)):
            seeds = [int(s) for s in raw]
        else:
            seeds = [int(s) for s in str(raw).split(",") if s != ""]
    except (TypeError, ValueError):
        raise CliError(f"seeds must be integers, got {raw!r}") from None
    if not seeds:
        raise CliError("need at least one seed")
    return seeds


def _parse_ratios(raw) -> tuple[float, float, float]:
    try:
        return check_ratios(raw if isinstance(raw, (list, tuple)) else str(raw).split(","))
    except (TypeError, ValueError):  # TypeError: a JSON null among the ratios
        raise CliError(f"ratios must be three nonnegatives summing to 1, got {raw}") from None


def _configs(cfg: dict, layer_kind: str = "shgcn") -> tuple[ModelConfig, DecoderConfig]:
    """The model and decoder of a resolved config; a value out of range is
    a usage error."""
    try:
        model = ModelConfig(layer_kind=layer_kind, num_layers=int(cfg["layers"]),
                            hidden_dim=int(cfg["dim"]), activation=cfg["activation"],
                            init_curvature=float(cfg["curvature"]),
                            dropout=float(cfg.get("dropout", 0.0)))
        return model, DecoderConfig(r=float(cfg["decoder_r"]), t=float(cfg["decoder_t"]))
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _check_split(count: int, ratios, items: str, need_test: bool = True) -> None:
    """Refuse ratios that leave no training items, or no test items when
    the report reads a test metric."""
    n_train, _, n_test = split_sizes(count, ratios)
    if n_train < 1 or (need_test and n_test < 1):
        raise CliError(f"ratios {list(ratios)} split {count} {items} into {n_train} "
                       f"for training and {n_test} for testing; each needs at least one")


def _load_dataset(args) -> Graph:
    if args.synthetic and args.edges:
        raise CliError("give either --synthetic or --edges, not both")
    if args.synthetic:
        try:
            return parse_synthetic(args.synthetic)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    if args.edges:
        for path in (args.edges, args.features, args.labels):
            if path is not None and not os.path.exists(path):
                raise CliError(f"input file not found: {path}")
        try:
            return load_graph(args.edges, args.features, args.labels)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError("no dataset: pass --synthetic <spec> or --edges <file>")


def _regression_family(spec: str, count: int, seed: int) -> list[Graph]:
    """A family of random graphs around an erdos template; the regression
    target is ten times the realized edge density."""
    kind, _, rest = spec.partition(":")
    if kind != "erdos":
        raise CliError("graph regression expects an erdos:<n>,<p>,<seed> template")
    try:
        n, p, _ = rest.split(",")
        n, p = int(n), float(p)
    except ValueError:
        raise CliError(f"bad erdos template {spec!r}") from None
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        pi = float(rng.uniform(0.5 * p, 1.5 * p))
        g = erdos_graph(n, pi, seed=seed + 1000 + i)
        density = 2.0 * g.num_edges / (g.n * (g.n - 1))
        graphs.append(Graph(g.n, g.edges, g.features, g.labels, 10.0 * density))
    return graphs


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _resolve(args, RUN_DEFAULTS)
    if cfg["task"] not in ("lp", "nc", "gr"):
        raise CliError(f"unknown task {cfg['task']!r} (use lp, nc or gr)")
    if getattr(args, "seed", None) is not None:
        if args.seeds is not None:
            raise CliError("give either --seed or --seeds, not both")
        cfg["seeds"] = str(args.seed)
    seeds = _parse_seeds(cfg["seeds"])
    ratios = _parse_ratios(cfg["ratios"])
    try:
        mode = Precision.parse(cfg["precision"])
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if mode is Precision.HALF:
        raise CliError("training runs support single/double only; half is a forward probe mode")
    model_config, decoder = _configs(cfg, cfg["model"])
    if int(cfg["epochs"]) < 1:
        raise CliError(f"epochs must be at least 1, got {cfg['epochs']}")
    resolved = {**cfg, "seeds": seeds, "ratios": list(ratios),
                "dataset": args.synthetic or args.edges, "version": __version__}

    graph = None if cfg["task"] == "gr" else _load_dataset(args)
    count, items = ((int(cfg["count"]), "graphs") if cfg["task"] == "gr" else
                    (graph.num_edges, "edges") if cfg["task"] == "lp" else (graph.n, "nodes"))
    _check_split(count, ratios, items)
    per_seed = []
    for seed in seeds:
        if cfg["task"] == "gr":
            family = _regression_family(args.synthetic or "", int(cfg["count"]), seed)
            result = train_graph_regression(
                model_config, family, seed=seed, epochs=int(cfg["epochs"]),
                patience=int(cfg["patience"]), lr=float(cfg["lr"]),
                ratios=ratios, mode=mode,
            )
        else:
            if cfg["task"] == "lp":
                split = split_edges(graph, ratios, seed)
            else:
                split = split_nodes(graph.n, ratios, seed)
            result = train_model(
                model_config, graph, split, task=cfg["task"], seed=seed,
                epochs=int(cfg["epochs"]), patience=int(cfg["patience"]),
                lr=float(cfg["lr"]), decoder=decoder, mode=mode,
            )
        entry = {"seed": seed, "metrics": result.test_metrics,
                 "epochs_run": len(result.records)}
        if len(result.epoch_times):
            entry["epoch_time_mean"] = float(result.epoch_times.mean())
        per_seed.append(entry)

    metric_names = sorted(per_seed[0]["metrics"]) if per_seed else []
    summary = {}
    for name in metric_names:
        vals = np.array([e["metrics"][name] for e in per_seed], dtype=np.float64)
        summary[name] = {"mean": float(vals.mean()),
                         "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0}
    times = np.array([e.get("epoch_time_mean", np.nan) for e in per_seed])
    timing = {"epoch_time_mean": float(np.nanmean(times)),
              "epoch_time_std": float(np.nanstd(times))}
    payload = {"config": resolved, "per_seed": per_seed, "summary": summary,
               "timing": timing}

    lines = [f"shgcn {__version__} :: task={cfg['task']} model={cfg['model']}"]
    lines.append(f"dataset: {resolved['dataset']}")
    for entry in per_seed:
        metr = " ".join(f"{k}={v:.4f}" for k, v in entry["metrics"].items())
        lines.append(f"  seed {entry['seed']}: {metr} ({entry['epochs_run']} epochs)")
    for name, s in summary.items():
        lines.append(f"{name}: {s['mean']:.4f} +/- {s['std']:.4f}")
    lines.append(f"epoch time: {timing['epoch_time_mean']:.6f} s")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_report(_out_dir(args), payload, text)
    return 0


def cmd_bench(args) -> int:
    cfg = _resolve(args, BENCH_DEFAULTS)
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    if len(kinds) < 2:
        raise CliError("bench needs at least two model kinds (--models a,b)")
    epochs = int(cfg["epochs"])
    try:
        check_bench_size(epochs, args.runs)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    base, decoder = _configs(cfg)
    ratios = _parse_ratios(cfg["ratios"])
    graph = _load_dataset(args)
    _check_split(graph.num_edges, ratios, "edges", need_test=False)
    seed = args.seed if args.seed is not None else 0
    split = split_edges(graph, ratios, seed)
    results = benchmark_models(
        kinds, graph, split, seed=seed, epochs=epochs, runs=args.runs,
        config_base=base, decoder=decoder, lr=float(cfg["lr"]),
    )
    by_kind = {r.kind: r for r in results}

    speedups = {}
    subject = results[-1]
    for r in results:
        ratio, lo, hi = speedup_with_ci(r, subject)
        speedups[f"{r.kind}_vs_{subject.kind}"] = {
            "speedup": ratio, "ci95_low": lo, "ci95_high": hi,
        }
    payload = {
        "config": {**cfg, "models": kinds, "epochs": epochs, "runs": args.runs,
                   "seed": seed, "dataset": args.synthetic or args.edges,
                   "version": __version__},
        "per_seed": [
            {"model": r.kind, "epoch_time_mean": r.mean, "epoch_time_se": r.se,
             "epochs_timed": len(r.times)}
            for r in results
        ],
        "summary": speedups,
        "timing": {r.kind: {"mean": r.mean, "se": r.se} for r in results},
    }
    lines = [f"shgcn {__version__} :: bench on {args.synthetic or args.edges}"]
    for r in results:
        lines.append(f"  {r.kind:<10} {r.mean * 1e3:9.4f} ms/epoch  (se {r.se * 1e3:.4f})")
    for name, s in speedups.items():
        lines.append(
            f"speedup {name}: {s['speedup']:.3f}x "
            f"[{s['ci95_low']:.3f}, {s['ci95_high']:.3f}]"
        )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_report(_out_dir(args), payload, text)
    return 0


def cmd_stability(args) -> int:
    reports = all_threshold_reports()
    csv = reports_to_csv(reports)
    text = reports_to_text(reports)
    print(text, end="")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "stability.csv"), "w") as fh:
        fh.write(csv)
    payload = {"config": {"command": "stability", "version": __version__},
               "per_seed": [dataclasses.asdict(r) | {"mode": r.mode.value} for r in reports],
               "summary": {r.mode.value: r.collapse_threshold for r in reports},
               "timing": {}}
    _write_report(out, payload, text)
    return 0


def cmd_hyperbolicity(args) -> int:
    graph = _load_dataset(args)
    try:
        delta = delta_hyperbolicity(graph, node_cap=args.cap)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(f"delta = {delta}")
    if args.out:
        payload = {"config": {"dataset": args.synthetic or args.edges,
                              "version": __version__},
                   "per_seed": [], "summary": {"delta": delta}, "timing": {}}
        _write_report(args.out, payload, f"delta = {delta}\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_dataset_flags(p):
    p.add_argument("--synthetic", help="tree:<b>,<d> | cycle:<n> | erdos:<n>,<p>,<seed>")
    p.add_argument("--edges", help="edge list file (two columns, 0-based ids)")
    p.add_argument("--features", help="feature CSV, row i = node i")
    p.add_argument("--labels", help="label CSV, one class id per node")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shgcn",
        description="hyperbolic graph networks: training, benchmarks, stability probes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train and evaluate a model")
    _add_dataset_flags(run)
    run.add_argument("--task", choices=["lp", "nc", "gr"])
    run.add_argument("--model", choices=["shgcn", "hgcn-agg0", "gcn"])
    run.add_argument("--layers", type=int)
    run.add_argument("--dim", type=int)
    run.add_argument("--activation", choices=["relu", "identity"])
    run.add_argument("--lr", type=float)
    run.add_argument("--epochs", type=int)
    run.add_argument("--patience", type=int)
    run.add_argument("--seeds", help="comma-separated list, e.g. 0,1,2")
    run.add_argument("--seed", type=int, help="shorthand for a single-entry --seeds")
    run.add_argument("--ratios", help="train,val,test fractions")
    run.add_argument("--decoder-r", dest="decoder_r", type=float)
    run.add_argument("--decoder-t", dest="decoder_t", type=float)
    run.add_argument("--dropout", type=float)
    run.add_argument("--curvature", type=float)
    run.add_argument("--precision", choices=["half", "single", "double"])
    run.add_argument("--count", type=int, help="family size for graph regression")
    run.add_argument("--config", help="JSON config file; flags override it")
    run.add_argument("--out", help="output directory (default $SHGCN_OUT_DIR or ./reports)")
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="compare per-epoch training time across models")
    _add_dataset_flags(bench)
    bench.add_argument("--models", required=True, help="comma-separated kinds")
    bench.add_argument("--epochs", type=int, help="default 50")
    bench.add_argument("--runs", type=int, default=3)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--layers", type=int)
    bench.add_argument("--dim", type=int)
    bench.add_argument("--activation", choices=["relu", "identity"])
    bench.add_argument("--lr", type=float)
    bench.add_argument("--ratios")
    bench.add_argument("--curvature", type=float)
    bench.add_argument("--decoder-r", dest="decoder_r", type=float)
    bench.add_argument("--decoder-t", dest="decoder_t", type=float)
    bench.add_argument("--config", help="JSON config file; flags override it")
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)

    stab = sub.add_parser("stability", help="emit per-precision collapse thresholds")
    stab.add_argument("--out")
    stab.set_defaults(func=cmd_stability)

    hyp = sub.add_parser("hyperbolicity", help="exact Gromov delta of a graph")
    _add_dataset_flags(hyp)
    hyp.add_argument("--cap", type=int, default=600,
                     help="refuse graphs larger than this (the algorithm is n^4)")
    hyp.add_argument("--out")
    hyp.set_defaults(func=cmd_hyperbolicity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
