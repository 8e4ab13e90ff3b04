"""Benchmark of the shgcn library: end-to-end cost of training and probing,
and a per-layer trace taken from outside the library.

    python3 perfbench/run.py --workload lp-tree6 --seed 0 --seconds 24 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory.  One invocation runs one workload in a fresh process: a tiny
untimed warm-up, then passes until ``--seconds`` are used (at least two
passes), each one a block of timed set-ups followed by the workload's
library calls.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the machine, the per-call times and the checks.  A
copy of the result, and the spans of a traced run, go to ``perfbench/out``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import spans as spans_mod

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 2  # two passes give the p90 step time at least 100 samples
SETUP_BLOCK_S = 0.3  # a cheap set-up repeats before each pass until this is spent
SETUP_MAX_REPS = 10


def import_library() -> dict:
    """Import shgcn from the checkout's src directory, never from elsewhere."""
    if not (SRC / "shgcn" / "__init__.py").is_file():
        raise SystemExit(f"error: no shgcn sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import shgcn
    from shgcn import autodiff, geometry, graphs, layers, precision, stability, training

    if Path(shgcn.__file__).resolve().parent != (SRC / "shgcn").resolve():
        raise SystemExit(f"error: imported shgcn from {shgcn.__file__}, not from {SRC}")
    return {"autodiff": autodiff, "geometry": geometry, "graphs": graphs,
            "layers": layers, "precision": precision, "stability": stability,
            "training": training}


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def one_pass(workload, seed: int, setup_block: float):
    """A pass from a collected heap, like a fresh command: a block of timed
    set-ups, repeated until setup_block seconds are spent, then the
    workload's calls on the inputs of the last set-up."""
    from workloads import Pass

    gc.collect()
    p = Pass()
    while not p.setups or (sum(p.setups) < setup_block and len(p.setups) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        p.setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.run_pass(inputs, p)
    p.wall = time.perf_counter() - t0 + sum(p.setups)
    return p


def run_passes(workload, seed: int, seconds: float, minimum: int) -> list:
    """Passes until the next one would overrun seconds.  Spreading the
    set-ups over the run lets their median see the same machine as the
    passes."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(one_pass(workload, seed, SETUP_BLOCK_S))
        used = time.perf_counter() - t_start
        if len(passes) >= minimum and used + statistics.median(
                p.wall for p in passes) > seconds:
            return passes


def check_repeats(passes) -> None:
    """Every pass runs on the same inputs, so every outcome must repeat."""
    first = {}
    for p in passes:
        for op, outcome in p.outcomes.items():
            first.setdefault(op, outcome)
            if outcome != first[op]:
                p.fail(op, f"outcome {outcome} differs from the first pass's "
                           f"{first[op]} under the same inputs")


def _median_times(passes) -> dict:
    names = sorted({name for p in passes for name in p.times})
    return {n: statistics.median(p.times.get(n, 0.0) for p in passes) for n in names}


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(passes) -> dict:
    steps = np.array([s for p in passes for s in p.steps]) * 1e3
    return {
        "setup_s": _metric(statistics.median(s for p in passes for s in p.setups), "s"),
        "pass_s": _metric(statistics.median(p.seconds for p in passes), "s"),
        "step_ms.p50": _metric(np.percentile(steps, 50), "ms"),
        "step_ms.p90": _metric(np.percentile(steps, 90), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_calls(passes, label: str = "") -> None:
    setups = [s for p in passes for s in p.setups]
    print(f"info {label}setup_s {statistics.median(setups):.6f} s "
          f"(median of {len(setups)} set-ups)")
    for name, value in _median_times(passes).items():
        print(f"info {label}{name} {value:.6f} s (median of {len(passes)} passes)")
    for name, value in passes[0].info.items():
        print(f"info {label}{name} {value:.6f} 1")


def traced_run(args, lib, workload) -> tuple[dict, list]:
    """Untraced and traced passes, one set-up each, alternating so that
    both see the same machine: untraced, traced, traced, then pairs while
    the time lasts.  Returns the per-layer metrics and every pass run."""
    tracer = spans_mod.Tracer()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        if len(traced) != 1:
            untraced.append(one_pass(workload, args.seed, 0.0))
        tracer.run_id = len(traced) + 1
        with tracer.installed(lib):
            traced.append(one_pass(workload, args.seed, 0.0))
        leftover = spans_mod.leftover_wrappers(lib)
        if leftover:
            raise RuntimeError(f"wrappers left in place after a traced pass: {leftover}")
        used = time.perf_counter() - t_start
        per_pair = statistics.median(p.wall for p in untraced + traced) * 2
        if len(traced) >= MIN_PASSES and used + per_pair > args.seconds:
            break

    spans = tracer.spans()
    runs = list(range(1, len(traced) + 1))
    metrics, unsteady = spans_mod.layer_metrics(spans, runs, [p.epochs for p in traced])
    for name in unsteady:
        traced[-1].fail(f"count.{name}", "count differs between traced passes")
    untraced_s = statistics.median(p.seconds for p in untraced)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"info trace.untraced_pass_s {untraced_s:.6f} s (median of {len(untraced)} passes)")
    print(f"info trace.traced_pass_s {traced_s:.6f} s (median of {len(traced)} passes)")
    print(f"info trace.overhead {100.0 * (traced_s / untraced_s - 1.0):.1f} % "
          f"({len(spans.start)} spans)")
    report_calls(traced, "traced.")
    OUT.mkdir(exist_ok=True)
    spans.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    return {k: _metric(v, u) for k, (v, u) in metrics.items()}, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at its smoke-test size")
    args = parser.parse_args(argv)

    lib = import_library()
    import workloads

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    workload = table[args.workload]
    info = machine()
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")

    # warm-up: lazy imports and BLAS start-up are paid before any timing
    warm_passes = [one_pass(workloads.TINY[args.workload], args.seed, 0.0)]

    if args.trace:
        metrics, passes = traced_run(args, lib, workload)
        check_repeats(passes)
    else:
        passes = run_passes(workload, args.seed, args.seconds, MIN_PASSES)
        check_repeats(passes)
        metrics = end_to_end(passes)
        report_calls(passes)
        times = _median_times(passes)
        if "lp_s.shgcn" in times and "lp_s.hgcn-agg0" in times:
            print(f"info hgcn-agg0/shgcn {times['lp_s.hgcn-agg0'] / times['lp_s.shgcn']:.3f} "
                  "(criterion 9 ratio, information only)")
        steps = sum(len(p.steps) for p in passes)
        print(f"info steps {steps} samples over {len(passes)} passes")

    everything = warm_passes + passes
    attempted = sum(p.attempted for p in everything)
    failed = sum(len(p.failed) for p in everything)
    print(f"info error_rate {failed / max(attempted, 1):.6f} fraction "
          f"({failed} of {attempted} operations failed)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"machine": info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "passes": len(passes), **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
