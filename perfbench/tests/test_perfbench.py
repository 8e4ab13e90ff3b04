"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert np.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


def test_traced_tiny_run_counts_the_forward_tape():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lp-tree6", "--seed", "0",
         "--seconds", "0", "--trace", "1", "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    nodes = {k: metrics[f"layers.nodes_per_forward.{k}"]["value"]
             for k in ("shgcn", "hgcn-agg0", "gcn")}
    assert nodes == {"shgcn": 142, "hgcn-agg0": 237, "gcn": 16}


def test_self_time_and_group_time_on_a_hand_built_tree():
    #   A [0, 10]
    #   |- B [1, 4]
    #   |  `- E [2, 3]
    #   `- C [5, 9]
    #      `- D [6, 7]
    names = ["A", "B", "C", "D", "E"]
    s = spans.Spans(
        names=names,
        name_id=[0, 1, 4, 2, 3],
        parent=[-1, 0, 1, 0, 3],
        start=[0.0, 1.0, 2.0, 5.0, 6.0],
        end=[10.0, 4.0, 3.0, 9.0, 7.0],
        run=[1, 1, 1, 1, 1],
        payload=[0.0] * 5,
    )
    assert s.self_time.tolist() == [3.0, 2.0, 1.0, 3.0, 1.0]
    assert s.self_sum(["A"], 1) == 3.0
    assert s.self_sum(["B", "C"], 1) == 5.0
    # nested spans of one group count once; disjoint ones add up
    assert s.inclusive(["A", "D"], 1) == 10.0
    assert s.inclusive(["B", "C"], 1) == 7.0
    assert s.inclusive(["B", "D"], 1) == 4.0
    assert s.inclusive(["B", "E"], 1) == 3.0
    assert s.inclusive(["A"], 2) == 0.0


def _library_bindings(lib):
    bound = {}
    for mod_name, module in lib.items():
        for attr, value in vars(module).items():
            bound[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for a, v in vars(value).items():
                    bound[(mod_name, attr, a)] = v
    return bound


def test_traced_run_puts_the_original_functions_back():
    lib = run.import_library()
    before = _library_bindings(lib)
    callbacks = list(gc.callbacks)
    assert run.main(["--workload", "lp-tree6", "--seed", "0", "--seconds", "0",
                     "--trace", "1", "--tiny"]) == 0
    after = _library_bindings(lib)
    assert all(after[k] is before[k] for k in before)
    assert spans.leftover_wrappers(lib) == []
    assert gc.callbacks == callbacks


def test_wrappers_are_removed_when_the_traced_block_raises():
    lib = run.import_library()
    before = _library_bindings(lib)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(lib):
            assert spans.leftover_wrappers(lib)
            raise RuntimeError("stop")
    after = _library_bindings(lib)
    assert all(after[k] is before[k] for k in before)


def test_run_refuses_a_directory_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "spans.py"):
        (tmp_path / "perfbench" / f).write_text((BENCH / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
