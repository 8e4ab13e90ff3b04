"""Smoke tests that run the narrative demos as a user would."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_delta_hyperbolicity_demo():
    out = run_demo("03_delta_hyperbolicity.py")
    # each table row ends with nodes, edges and delta
    rows = {}
    for line in out.splitlines():
        parts = line.rsplit(None, 3)
        if len(parts) == 4 and parts[1].isdigit() and parts[2].isdigit():
            rows[parts[0]] = parts[3]
    trees = [name for name in rows if "tree" in name or name.startswith("star")]
    assert len(trees) == 4
    assert all(rows[name] == "0.0" for name in trees)
    assert (rows["cycle C4"], rows["cycle C8"], rows["cycle C16"]) == ("1.0", "2.0", "4.0")


def test_link_prediction_tree_demo():
    out = run_demo("04_link_prediction_tree.py")
    aucs = [line for line in out.splitlines() if re.search(r"seed \d+: AUC [01]\.\d{4}", line)]
    assert len(aucs) == 10
    margin = re.search(r"hyperbolic margin over the Euclidean baseline: ([+-]\d\.\d+)", out)
    assert margin is not None and float(margin.group(1)) > 0
