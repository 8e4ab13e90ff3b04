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
import contextlib
import dataclasses
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .graphs import (
    DELTA_NODE_CAP,
    Graph,
    check_ratios,
    delta_hyperbolicity,
    load_graph,
    parse_synthetic,
    regression_family,
    split_edges,
    split_nodes,
    split_sizes,
)
from .layers import ACTIVATIONS, LAYER_KINDS, DecoderConfig, ModelConfig
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


class CliError(Exception):
    """A usage or validation error: main prints it and exits USAGE_ERROR."""


@contextlib.contextmanager
def _usage_errors():
    """Turn a ValueError from validating user input into a usage error."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _integer(raw) -> int:
    """A whole number such as 5, "5", 5.0 or "5.0"; booleans, fractions and null are refused."""
    if isinstance(raw, (int, str)) and not isinstance(raw, bool):
        with contextlib.suppress(ValueError):
            return int(raw)  # exact for any size
    with contextlib.suppress(ValueError):
        if (value := _number(raw)).is_integer():
            return int(value)
    raise ValueError("an integer")


def _number(raw) -> float:
    if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
        with contextlib.suppress(ValueError):
            return float(raw)
    raise ValueError("a number")


def _at_least_1(raw) -> int:
    if (value := _integer(raw)) < 1:
        raise ValueError("at least 1")
    return value


def _positive(raw) -> float:
    if not 0.0 < (value := _number(raw)) < math.inf:
        raise ValueError("positive and finite")
    return value


def _seeds(raw) -> list[int]:
    seeds = [_integer(s) for s in (raw if isinstance(raw, list) else str(raw).split(","))
             if s != ""]
    if not seeds:
        raise CliError("need at least one seed")
    if min(seeds) < 0:
        raise CliError(f"seeds must be non-negative, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise CliError(f"seeds must be distinct, got {','.join(map(str, seeds))}")
    return seeds


def _ratios(raw) -> tuple[float, float, float]:
    return check_ratios([_number(x) for x in
                         (raw if isinstance(raw, list) else str(raw).split(","))])


class Option(NamedTuple):
    # the choices, or a function of a flag's string or a config file's JSON
    # value that raises ValueError naming what it needs
    parse: tuple | Callable
    default: object  # parsed like a given value
    refused: str = ""  # a refused value's usage error if not "<key> must be <need>, got <value>"
    help: str = ""


# every option that `run` reads from a flag or a config file, in report order;
# the range checks of the model and the decoder stay in their configs
OPTIONS = {
    "task": Option(("lp", "nc", "gr"), "lp"),
    "model": Option(LAYER_KINDS, "shgcn"),
    "layers": Option(_integer, 2),
    "dim": Option(_integer, 16),
    "activation": Option(ACTIVATIONS, "relu"),
    "lr": Option(_positive, 0.01),
    "epochs": Option(_at_least_1, 1000),
    "patience": Option(_at_least_1, 100),
    "seeds": Option(_seeds, "0", "seeds must be integers, got {!r}", "comma-separated list"),
    "ratios": Option(_ratios, "0.85,0.05,0.10",
                     "ratios must be three nonnegatives summing to 1, got {}",
                     "train,val,test fractions"),
    "decoder_r": Option(_number, 2.0),
    "decoder_t": Option(_number, 1.0),
    "dropout": Option(_number, 0.0),
    "curvature": Option(_number, 1.0),
    "precision": Option(("half", "single", "double"), "double"),
    "count": Option(_at_least_1, 24, help="family size for graph regression"),
}
BENCH_KEYS = ("layers", "dim", "activation", "lr", "ratios", "curvature", "decoder_r",
              "decoder_t", "epochs")
BENCH_EPOCHS = 50  # bench's default; run's is the table's


def _parse(key: str, raw):
    """One option's value; a refused value is a usage error."""
    option = OPTIONS[key]
    if isinstance(option.parse, tuple):
        if raw in option.parse:
            return raw
        raise CliError(f"unknown {key} {raw!r} (use {', '.join(option.parse)})")
    try:
        return option.parse(raw)
    except ValueError as exc:
        raise CliError(option.refused.format(raw) if option.refused
                       else f"{key} must be {exc}, got {raw}") from None


def _out_dir(args) -> str:
    return args.out or os.environ.get("SHGCN_OUT_DIR", "reports")


def _write_report(out_dir: str, payload: dict, text: str) -> None:
    # a non-finite value raises here instead of reaching the file as NaN
    blob = json.dumps(payload, indent=2, allow_nan=False)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(blob)
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(text)


def _resolve(args, keys, **defaults) -> dict:
    """The parsed value of each option in `keys`.  Precedence: the table's
    default (or `defaults`) < config file < explicit flag; all three go
    through the option's one parser.  A config key outside `keys` is a
    usage error."""
    given = {}
    if args.config is not None:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            try:
                given = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(given, dict):
            raise CliError(f"config file must hold one JSON object, not {type(given).__name__}")
        if unknown := set(given) - set(keys):
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    cfg = {key: defaults.get(key, OPTIONS[key].default) for key in keys} | given
    for key in keys:
        flag = getattr(args, key)
        cfg[key] = _parse(key, cfg[key] if flag is None else flag)
    return cfg


def _configs(cfg: dict, layer_kind: str = "shgcn") -> tuple[ModelConfig, DecoderConfig]:
    """The model and decoder of a resolved config; a value out of range is
    a usage error."""
    with _usage_errors():
        model = ModelConfig(layer_kind=layer_kind, num_layers=cfg["layers"],
                            hidden_dim=cfg["dim"], activation=cfg["activation"],
                            init_curvature=cfg["curvature"], dropout=cfg.get("dropout", 0.0))
        return model, DecoderConfig(r=cfg["decoder_r"], t=cfg["decoder_t"])


def _check_split(count: int, ratios, items: str, need_test: bool = True) -> None:
    """Refuse ratios that leave no training items, or no test items when
    the report reads a test metric."""
    n_train, _, n_test = split_sizes(count, ratios)
    if n_train < 1 or (need_test and n_test < 1):
        raise CliError(f"ratios {list(ratios)} split {count} {items} into {n_train} "
                       f"for training and {n_test} for testing; each needs at least one")


def _check_negatives(graph: Graph, ratios) -> None:
    """Refuse a link-prediction graph with fewer non-edges than the largest
    split part: training draws that many negatives every epoch."""
    free = graph.n * (graph.n - 1) // 2 - graph.num_edges
    if free < (need := max(split_sizes(graph.num_edges, ratios))):
        raise CliError(f"graph too dense for link prediction: {free} non-edges for the "
                       f"{need} negatives that the largest split part draws")


def _load_dataset(args) -> Graph:
    if args.synthetic and args.edges:
        raise CliError("give either --synthetic or --edges, not both")
    if args.synthetic:
        with _usage_errors():
            return parse_synthetic(args.synthetic)
    if args.edges:
        for path in (args.edges, args.features, args.labels):
            if path is not None and not os.path.exists(path):
                raise CliError(f"input file not found: {path}")
        with _usage_errors():
            return load_graph(args.edges, args.features, args.labels)
    raise CliError("no dataset: pass --synthetic <spec> or --edges <file>")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = _resolve(args, OPTIONS)
    if args.seed is not None:
        if args.seeds is not None:
            raise CliError("give either --seed or --seeds, not both")
        cfg["seeds"] = _parse("seeds", [args.seed])
    mode, ratios = Precision(cfg["precision"]), cfg["ratios"]
    if mode is Precision.HALF:
        raise CliError("training runs support single/double only; half is a forward probe mode")
    model_config, decoder = _configs(cfg, cfg["model"])
    resolved = {**cfg, "dataset": args.synthetic or args.edges, "version": __version__}

    graph = None if cfg["task"] == "gr" else _load_dataset(args)
    if cfg["task"] == "nc" and graph.labels is None:
        raise CliError("node classification needs labels: pass --labels <file>")
    count, items = ((cfg["count"], "graphs") if cfg["task"] == "gr" else
                    (graph.num_edges, "edges") if cfg["task"] == "lp" else (graph.n, "nodes"))
    _check_split(count, ratios, items)
    if cfg["task"] == "lp":
        _check_negatives(graph, ratios)
    per_seed = []
    for seed in cfg["seeds"]:
        if cfg["task"] == "gr":
            with _usage_errors():
                family = regression_family(args.synthetic or "", cfg["count"], seed)
            result = train_graph_regression(
                model_config, family, seed=seed, epochs=cfg["epochs"],
                patience=cfg["patience"], lr=cfg["lr"], ratios=ratios, mode=mode,
            )
        else:
            split = (split_edges(graph, ratios, seed) if cfg["task"] == "lp"
                     else split_nodes(graph.n, ratios, seed))
            result = train_model(
                model_config, graph, split, task=cfg["task"], seed=seed,
                epochs=cfg["epochs"], patience=cfg["patience"], lr=cfg["lr"],
                decoder=decoder, mode=mode,
            )
        per_seed.append({"seed": seed, "metrics": result.test_metrics,
                         "epochs_run": len(result.records),
                         "epoch_time_mean": float(result.epoch_times.mean())})

    def mean_std(vals: list) -> dict:  # the sample std (ddof=1); 0.0 for one seed
        return {"mean": float(np.mean(vals)),
                "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0}

    summary = {name: mean_std([e["metrics"][name] for e in per_seed])
               for name in sorted(per_seed[0]["metrics"])}
    times = mean_std([e["epoch_time_mean"] for e in per_seed])
    timing = {"epoch_time_mean": times["mean"], "epoch_time_std": times["std"]}
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
    cfg = _resolve(args, BENCH_KEYS, epochs=BENCH_EPOCHS)
    seed = _parse("seeds", [args.seed])[0]
    kinds = [_parse("model", k.strip()) for k in args.models.split(",") if k.strip()]
    if len(kinds) < 2:
        raise CliError("bench needs at least two model kinds (--models a,b)")
    if len(set(kinds)) < len(kinds):
        raise CliError(f"bench compares distinct model kinds, got {','.join(kinds)}")
    epochs, ratios = cfg["epochs"], cfg["ratios"]
    with _usage_errors():
        check_bench_size(epochs, args.runs)
    base, decoder = _configs(cfg)
    graph = _load_dataset(args)
    _check_split(graph.num_edges, ratios, "edges", need_test=False)
    _check_negatives(graph, ratios)
    split = split_edges(graph, ratios, seed)
    results = benchmark_models(
        kinds, graph, split, seed=seed, epochs=epochs, runs=args.runs,
        config_base=base, decoder=decoder, lr=cfg["lr"],
    )

    speedups = {}
    subject = results[-1]
    for r in results[:-1]:
        ratio, lo, hi = speedup_with_ci(r, subject)
        speedups[f"{r.kind}_vs_{subject.kind}"] = {
            "speedup": ratio, "ci95_low": lo, "ci95_high": hi,
        }
    payload = {
        "config": {**cfg, "models": kinds, "runs": args.runs, "seed": seed,
                   "dataset": args.synthetic or args.edges, "version": __version__},
        "per_seed": [{"model": r.kind, "epoch_time_mean": r.mean, "epoch_time_se": r.se,
                      "epochs_timed": len(r.times)} for r in results],
        "summary": speedups,
        "timing": {r.kind: {"mean": r.mean, "se": r.se} for r in results},
    }
    lines = [f"shgcn {__version__} :: bench on {args.synthetic or args.edges}"]
    for r in results:
        lines.append(f"  {r.kind:<10} {r.mean * 1e3:9.4f} ms/epoch  (se {r.se * 1e3:.4f})")
    for name, s in speedups.items():
        lines.append(f"speedup {name}: {s['speedup']:.3f}x "
                     f"[{s['ci95_low']:.3f}, {s['ci95_high']:.3f}]")
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
    with _usage_errors():
        delta = delta_hyperbolicity(graph, node_cap=args.cap)
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
    run.add_argument("--seed", type=int, help="shorthand for a single-entry --seeds")
    bench = sub.add_parser("bench", help="compare per-epoch training time across models")
    bench.add_argument("--models", required=True, help="comma-separated kinds")
    bench.add_argument("--runs", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    for cmd, keys, defaults in ((run, OPTIONS, {}),
                                (bench, BENCH_KEYS, {"epochs": BENCH_EPOCHS})):
        _add_dataset_flags(cmd)
        for key in keys:
            option = OPTIONS[key]
            default = defaults.get(key, option.default)
            cmd.add_argument("--" + key.replace("_", "-"),
                             choices=option.parse if isinstance(option.parse, tuple) else None,
                             help=f"{option.help} (default {default})".lstrip())
        cmd.add_argument("--config", help="JSON config file; flags override it")
        cmd.add_argument("--out", help="output directory (default $SHGCN_OUT_DIR or ./reports)")
    run.set_defaults(func=cmd_run)
    bench.set_defaults(func=cmd_bench)

    stab = sub.add_parser("stability", help="emit per-precision collapse thresholds")
    stab.add_argument("--out")
    stab.set_defaults(func=cmd_stability)

    hyp = sub.add_parser("hyperbolicity", help="exact Gromov delta of a graph")
    _add_dataset_flags(hyp)
    hyp.add_argument("--cap", type=int, default=DELTA_NODE_CAP,
                     help="refuse graphs larger than this (the worst case is n^4)")
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
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
