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


def test_against_prints_each_moved_line_and_a_count(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "trajectory_digests", ROOT / "tools" / "trajectory_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--epochs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    same = tmp_path / "same.txt"
    same.write_text("\n".join(lines) + "\n")
    assert tool.main(["--epochs", "1", "--against", str(same)]) == 0
    assert capsys.readouterr().out == "0 of 36 lines moved\n"

    cell, digest = lines[3].rsplit(" ", 1)
    edited = lines[:3] + [f"{cell} {'0' * 64}"] + lines[4:-1] + ["lp extra double x " + digest]
    other = tmp_path / "other.txt"
    other.write_text("\n".join(edited) + "\n")
    assert tool.main(["--epochs", "1", "--against", str(other)]) == 1
    out = capsys.readouterr().out.splitlines()
    gone = lines[-1].rsplit(" ", 1)
    assert out == [
        f"{cell} {'0' * 64} -> {digest}",
        f"lp extra double x {digest} -> -",
        f"{gone[0]} - -> {gone[1]}",
        "3 of 36 lines moved",
    ]
