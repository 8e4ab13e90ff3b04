"""Smoke test for tools/tape_memory.py."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("tape_memory", ROOT / "tools" / "tape_memory.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_tape_memory_prints_each_call_and_a_traced_peak_per_cell(capsys):
    tool = load_tool()
    assert tool.main(["--graph", "tree:2,3", "--family", "erdos:12,0.3,0", "--graphs", "4",
                      "--epochs", "3", "--mode", "single", "lp:shgcn", "nc:gcn",
                      "gr:hgcn-agg0"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["task", "kind", "mode", "call", "seconds", "minor_faults",
                              "max_rss_mb", "traced_peak_mb"]
    assert [row.split()[:4] for row in rows] == [
        [task, kind, "single", call] for task, kind in
        (("lp", "shgcn"), ("nc", "gcn"), ("gr", "hgcn-agg0")) for call in ("1", "2", "traced")]
    for row in rows:
        seconds, faults, rss, peak = row.split()[4:]
        if row.split()[3] == "traced":
            assert (seconds, faults, rss) == ("-", "-", "-") and float(peak) > 0
        else:
            assert float(seconds) > 0 and int(faults) >= 0 and float(rss) > 0 and peak == "-"


def test_tape_memory_refuses_an_unknown_cell():
    with pytest.raises(SystemExit):
        load_tool().main(["lp:gat"])
