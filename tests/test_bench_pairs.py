"""Smoke test for tools/bench_pairs.py: one tiny pair, and a failed run
that is reported rather than dropped."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def checkout(path: Path) -> Path:
    """The parts of this checkout that the benchmark runs, copied to path,
    so that its outputs stay out of the tree."""
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    return path


def test_one_tiny_pair_prints_every_end_to_end_metric(tmp_path, capsys):
    side = checkout(tmp_path / "side")
    out = tmp_path / "pairs.json"
    code = load_tool().main([str(side), str(side), "--benchmark", str(ROOT / "BENCHMARK.json"),
                             "--workload", "probe", "--pairs", "1", "--seconds", "0.2",
                             "--tiny", "--json", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("probe: 1 pairs, seeds 100..100")
    assert lines[1:3] == ["  failed parent 0 of 1", "  failed change 0 of 1"]
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert [line.split()[0] for line in lines[3:]] == names
    summary = json.loads(out.read_text())["probe"]["summary"]
    assert all(s["pairs"] == 1 and s["verdict"] in ("within", "gain", "worse", "unresolved")
               for s in summary)


def test_a_failed_run_is_reported_and_fails_the_comparison(tmp_path, capsys):
    side = checkout(tmp_path / "side")
    broken = tmp_path / "broken"  # no perfbench/run.py
    broken.mkdir()
    code = load_tool().main([str(broken), str(side), "--benchmark", str(ROOT / "BENCHMARK.json"),
                             "--workload", "probe", "--pairs", "1", "--seconds", "0.2",
                             "--tiny"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED probe parent seed 100: exit 2" in out
    assert "  failed parent 1 of 1" in out and "  failed change 0 of 1" in out
    assert "  step_ms.p50: no values" in out


def test_verdicts_follow_the_bound_the_wins_and_the_parent_spread():
    tool = load_tool()

    def runs(parent, change):
        return [{"parent": {"metrics": {} if p is None else {"m": p}},
                 "change": {"metrics": {} if c is None else {"m": c}}}
                for p, c in zip(parent, change)]

    lower = {"name": "m", "unit": "ms", "better": "lower", "bound": 0.25}
    gain = tool.summarize(lower, runs([10, 11, 10, 11] * 5, [9, 9.5, 9, 9.5] * 5))
    assert (gain["wins"], gain["verdict"]) == (20, "gain")
    # a pair missing a side's value counts as lost: 8 wins in 10 is no gain
    lost = tool.summarize(lower, runs([10] * 10, [9] * 8 + [None] * 2))
    assert (lost["wins"], lost["pairs"], lost["verdict"]) == (8, 10, "within")
    assert tool.summarize(lower, runs([10, 10], [13, 13]))["verdict"] == "worse"
    assert tool.summarize(lower, runs([6, 10, 14, 18], [12] * 4))["verdict"] == "unresolved"
    higher = dict(lower, better="higher")
    assert tool.summarize(higher, runs([10, 11] * 5, [9, 9.5] * 5))["wins"] == 0
    assert tool.summarize(lower, runs([None], [1.0]))["verdict"] == "no values"
