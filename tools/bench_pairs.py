"""Compare the end-to-end benchmark of two checkouts in alternating pairs.

Pair i runs `perfbench/run.py --trace 0` once in each checkout with seed
`--seed-base` + i, one run at a time; even pairs run PARENT first and odd
pairs CHANGE first, so that a drift in the machine's speed falls on both
sides alike.  The workloads, the end-to-end metrics, their bounds and the
default run length come from BENCHMARK.json in the working directory (or
`--benchmark`).

    python tools/bench_pairs.py PARENT CHANGE [--workload lp-tree7 ...] \\
        [--pairs 10] [--seed-base 100] [--seconds 30] [--tiny] [--json FILE]

For each workload and metric it prints both sides' medians, the pairs the
change wins (ties count for neither, and a pair with a side that gave no
value counts as lost), the parent's interquartile range (IQR, the spread
between its quartiles) and the metric's bound, then a verdict:

- `worse`: the change's median is worse than the parent's by more than the
  bound (a fraction of the parent's median);
- `gain`: the change wins at least 9 pairs in 10 and its median is better
  by more than the parent's IQR;
- `unresolved`: the parent's IQR is wider than the bound;
- `within`: none of these.

A run that exits non-zero, prints no result, or reports itself incorrect or
with failed operations is printed as it happens and counted in a
`failed` line per workload and side; the exit status is 1 if any run
failed.  `--json FILE` writes every run and the summary.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
WIN_SHARE = 0.9  # a gain needs this share of pairs won


def run_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One benchmark run -> {"ok", "metrics", "error"}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "metrics": {}, "error": f"exit {proc.returncode}: {tail}"}
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    if not result.get("correct") or result.get("failed"):
        return {"ok": False, "metrics": metrics,
                "error": f"incorrect: {result.get('failed')} of {result.get('attempted')} "
                         "operations failed"}
    return {"ok": True, "metrics": metrics, "error": None}


def summarize(metric: dict, runs: list) -> dict:
    """Medians, wins, the parent's IQR and the verdict of one metric over
    `runs`, a list of {side: run} pairs."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    values = {side: [pair[side]["metrics"].get(name) for pair in runs] for side in SIDES}
    have = {side: np.array([v for v in values[side] if v is not None]) for side in SIDES}
    wins = sum(p is not None and c is not None and sign * (c - p) < 0
               for p, c in zip(values["parent"], values["change"]))
    out = {"name": name, "unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"], "pairs": len(runs), "wins": int(wins)}
    if not all(len(v) for v in have.values()):
        return out | {"verdict": "no values"}
    parent, change = (float(np.median(have[side])) for side in SIDES)
    q1, q3 = np.percentile(have["parent"], [25, 75])
    iqr = float(q3 - q1)
    worse_by = sign * (change - parent) / abs(parent) if parent else 0.0
    if worse_by > metric["bound"]:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(runs) and sign * (parent - change) > iqr:
        verdict = "gain"
    elif parent and iqr / abs(parent) > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "within"
    return out | {"parent": parent, "change": change, "parent_iqr": iqr,
                  "worse_by": worse_by, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: every one")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=float, help="run length; default: run_seconds")
    parser.add_argument("--tiny", action="store_true", help="run the smoke-test sizes")
    parser.add_argument("--json", type=Path, metavar="FILE", help="write every run here")
    args = parser.parse_args(argv)

    bench = json.loads(args.benchmark.read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent, "change": args.change}

    report, failed = {}, 0
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side] = run = run_once(checkouts[side], workload, seed, seconds, args.tiny)
                if not run["ok"]:
                    print(f"FAILED {workload} {side} seed {seed}: {run['error']}", flush=True)
            runs.append(pair)
        summary = [summarize(m, runs) for m in bench["end_to_end"]]
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed_base}.."
              f"{args.seed_base + args.pairs - 1}, {seconds:g} s per run")
        for side in SIDES:
            bad = sum(not pair[side]["ok"] for pair in runs)
            failed += bad
            print(f"  failed {side} {bad} of {args.pairs}")
        for s in summary:
            if "parent" not in s:
                print(f"  {s['name']}: {s['verdict']}")
                continue
            print(f"  {s['name']} ({s['unit']}, {s['better']} is better): parent "
                  f"{s['parent']:.6g} change {s['change']:.6g} "
                  f"({100 * (s['change'] / s['parent'] - 1) if s['parent'] else 0:+.1f}%), "
                  f"wins {s['wins']}/{s['pairs']}, parent IQR {s['parent_iqr']:.6g}, bound "
                  f"{100 * s['bound']:g}%: {s['verdict']}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
