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


def test_poincare_geometry_demo():
    out = run_demo("01_poincare_geometry.py")
    assert re.search(r"x \(\+\) y\s+: \[0\.8 0\. \]", out)
    assert re.search(r"log0\(exp0\(v\)\)\s+: \[1\. 0\.\]", out)
    dists = [float(d) for d in re.findall(r"d\(0, +[\d.]+ e1\) = +([\d.]+)", out)]
    assert len(dists) == 5 and dists == sorted(dists) and dists[-1] > 9.9
    pole = re.search(r"distance to pole\s+: ([\d.]+)\s+\(= \|\|w\|\| = ([\d.]+) \)", out)
    assert pole is not None and abs(float(pole.group(1)) - float(pole.group(2))) < 1e-12


def test_precision_cliffs_demo():
    out = run_demo("02_precision_cliffs.py")
    modes = ("half", "single", "double")
    thresholds = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0] in modes:
            thresholds[parts[0]] = parts[4]
    assert thresholds == {"half": "4.506", "single": "9.011", "double": "19.062"}
    # residual table: a norm then one cell per mode; each column's first
    # collapsed cell lies past that mode's threshold
    rows = [line.split() for line in out.splitlines()
            if re.match(r"\s*\d+\.\d ", line) and len(line.split()) == 4]
    assert len(rows) == 15
    for col, mode in enumerate(modes, start=1):
        first = next(float(r[0]) for r in rows if r[col] == "collapsed")
        assert first > float(thresholds[mode])

