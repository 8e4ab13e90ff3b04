"""Smoke test for tools/trajectory_digests.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_digests_prints_36_distinct_lines_twice_alike(capsys):
    spec = importlib.util.spec_from_file_location(
        "trajectory_digests", ROOT / "tools" / "trajectory_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    outputs = []
    for _ in range(2):
        assert tool.main(["--epochs", "2"]) == 0
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert len(lines) == 36
    assert len({line.split()[-1] for line in lines}) == 36  # distinct digests
    assert outputs[1] == outputs[0]
