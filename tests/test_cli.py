import json
import os

import numpy as np
import pytest

from shgcn import training
from shgcn.cli import OPTIONS, main
from shgcn.graphs import MAX_NODES


def run_cli(args, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHGCN_OUT_DIR", str(tmp_path / "envout"))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse(token):
    raise AssertionError(f"report.json holds the non-JSON token {token}")


def read_report(out_dir):
    """report.json parsed as strict JSON: NaN and Infinity fail the test."""
    return json.loads((out_dir / "report.json").read_text(), parse_constant=_refuse)


def test_run_lp_synthetic(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "r1"
    code, out, err = run_cli(
        ["run", "--task", "lp", "--model", "shgcn", "--synthetic", "tree:2,3",
         "--seeds", "0,1", "--epochs", "10", "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert {"config", "per_seed", "summary", "timing"} <= set(report)
    assert len(report["per_seed"]) == 2
    assert "auc" in report["summary"]
    assert report["config"]["lr"] == 0.01  # defaulted values echoed
    assert report["config"]["layers"] == 2
    assert (out_dir / "report.txt").exists()


def test_run_nc_from_files(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "e.csv"
    rng = np.random.default_rng(0)
    lines = [f"{i},{i + 1}" for i in range(19)]
    edges.write_text("\n".join(lines) + "\n")
    feats = tmp_path / "x.csv"
    feats.write_text("\n".join(",".join(f"{v:.4f}" for v in rng.normal(size=4))
                               for _ in range(20)) + "\n")
    labels = tmp_path / "y.csv"
    labels.write_text("\n".join(str(i % 2) for i in range(20)) + "\n")
    out_dir = tmp_path / "r2"
    code, out, err = run_cli(
        ["run", "--task", "nc", "--model", "gcn", "--edges", str(edges),
         "--features", str(feats), "--labels", str(labels), "--epochs", "10",
         "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert "accuracy" in report["summary"]
    assert "f1" in report["summary"]


def test_run_missing_file_exits_2_without_output(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "r3"
    code, out, err = run_cli(
        ["run", "--task", "nc", "--model", "gcn", "--edges", str(tmp_path / "nope.csv"),
         "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert not out_dir.exists()
    assert "not found" in err


def _nc_files(tmp_path, edge_line="3 4", feature_row="0.5,0.5", label="1"):
    """A 6-node path for node classification whose last lines (one edge,
    one feature row, one label) can be replaced by bad input."""
    edges = tmp_path / "e.csv"
    edges.write_text("0 1\n1 2\n2 3\n4 5\n" + edge_line + "\n")
    feats = tmp_path / "x.csv"
    feats.write_text("1,0\n0,1\n1,1\n0,0\n1,0\n" + feature_row + "\n")
    labels = tmp_path / "y.csv"
    labels.write_text("0\n1\n0\n1\n0\n" + label + "\n")
    return ["--edges", str(edges), "--features", str(feats), "--labels", str(labels)]


@pytest.mark.parametrize("bad, message", [
    (dict(feature_row="nan,0.5"), "non-finite value in"),
    (dict(edge_line="3 4.7"), "non-integral id or label in"),
    (dict(label="1.5"), "non-integral id or label in"),
], ids=["nan-feature", "fractional-id", "fractional-label"])
def test_run_bad_input_file_exits_2_without_output(tmp_path, monkeypatch, capsys, bad, message):
    out_dir = tmp_path / "bad"
    files = _nc_files(tmp_path, **bad)
    code, out, err = run_cli(
        ["run", "--task", "nc", "--model", "gcn", *files, "--epochs", "3",
         "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert message in err and str(tmp_path) in err
    assert not out_dir.exists()


def test_run_nc_without_labels_exits_2_without_output(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "e.txt"
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(39)))
    out_dir = tmp_path / "nolabels"
    code, out, err = run_cli(
        ["run", "--task", "nc", "--edges", str(edges), "--epochs", "3", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "node classification needs labels" in err and "--labels" in err
    assert not out_dir.exists()


def test_run_negative_label_exits_2_before_training(tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr("shgcn.cli.train_model", no_training)
    out_dir = tmp_path / "neg"
    code, out, err = run_cli(
        ["run", "--task", "nc", "--model", "gcn", *_nc_files(tmp_path, label="-1"),
         "--epochs", "3", "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "labels must be non-negative" in err
    assert not out_dir.exists()


def test_run_accepts_integral_floats_in_input_files(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "ok"
    files = _nc_files(tmp_path, edge_line="3.0 4", label="1.0")
    code, out, err = run_cli(
        ["run", "--task", "nc", "--model", "gcn", *files, "--epochs", "3",
         "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0, err
    assert (out_dir / "report.json").exists()


def test_run_rejects_half_precision(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--synthetic", "tree:2,2", "--precision", "half", "--epochs", "2"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2


@pytest.mark.parametrize("ratios", ["0.1,0.7,0.7", "0.5,0.5", "0.5,x,0.5"])
def test_run_bad_ratios_exits_2(tmp_path, monkeypatch, capsys, ratios):
    code, out, err = run_cli(
        ["run", "--task", "nc", "--synthetic", "tree:2,3", "--ratios", ratios,
         "--out", str(tmp_path / "r")],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert f"ratios must be three nonnegatives summing to 1, got {ratios}" in err
    assert not (tmp_path / "r").exists()


def test_config_file_null_ratio_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"ratios": [None, 0.5, 0.5]}))
    code, out, err = run_cli(
        ["run", "--task", "nc", "--synthetic", "tree:2,3", "--config", str(cfg),
         "--out", str(tmp_path / "r")],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "ratios must be three nonnegatives summing to 1, got [None, 0.5, 0.5]" in err


def test_run_no_dataset_exits_2(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(["run", "--task", "lp"], tmp_path, monkeypatch, capsys)
    assert code == 2


def test_config_file_with_flag_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 5, "dim": 4, "lr": 0.02}))
    out_dir = tmp_path / "r4"
    code, out, err = run_cli(
        ["run", "--synthetic", "tree:2,3", "--config", str(cfg), "--dim", "6",
         "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert report["config"]["epochs"] == 5      # from config file
    assert report["config"]["lr"] == 0.02       # from config file
    assert report["config"]["dim"] == 6         # flag wins


def test_config_file_unknown_key(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    code, _, err = run_cli(
        ["run", "--synthetic", "tree:2,2", "--config", str(cfg)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2


def test_config_file_unknown_task_exits_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "node_classification"}))
    code, _, err = run_cli(
        ["run", "--synthetic", "tree:2,2", "--config", str(cfg), "--out", str(tmp_path / "t")],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2 and "unknown task" in err
    assert not (tmp_path / "t").exists()


def test_run_loads_the_dataset_once_for_all_seeds(tmp_path, monkeypatch, capsys):
    import shgcn.cli as cli

    calls = []
    parse = cli.parse_synthetic
    monkeypatch.setattr(cli, "parse_synthetic", lambda spec: calls.append(spec) or parse(spec))
    args = ["run", "--synthetic", "tree:2,3", "--epochs", "5", "--dim", "4"]
    code, _, _ = run_cli(args + ["--seeds", "0,1,2", "--out", str(tmp_path / "all")],
                         tmp_path, monkeypatch, capsys)
    assert code == 0
    assert calls == ["tree:2,3"]
    per_seed = read_report(tmp_path / "all")["per_seed"]
    for entry in per_seed:
        out_dir = tmp_path / f"seed{entry['seed']}"
        code, _, _ = run_cli(args + ["--seed", str(entry["seed"]), "--out", str(out_dir)],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        alone = read_report(out_dir)["per_seed"][0]
        assert alone["metrics"] == entry["metrics"]
        assert alone["epochs_run"] == entry["epochs_run"]


def test_run_reports_the_sample_std_of_metrics_and_epoch_times(tmp_path, monkeypatch,
                                                                capsys):
    args = ["run", "--synthetic", "tree:2,3", "--epochs", "5", "--dim", "4"]
    for seeds in ("0,1,2", "3"):
        out_dir = tmp_path / seeds
        code, _, _ = run_cli(args + ["--seeds", seeds, "--out", str(out_dir)],
                             tmp_path, monkeypatch, capsys)
        assert code == 0
        report = read_report(out_dir)
        aucs = [e["metrics"]["auc"] for e in report["per_seed"]]
        times = [e["epoch_time_mean"] for e in report["per_seed"]]
        if len(aucs) > 1:  # ddof=1, the sample std
            assert report["summary"]["auc"]["std"] == float(np.std(aucs, ddof=1))
            assert report["timing"]["epoch_time_std"] == float(np.std(times, ddof=1))
            assert report["timing"]["epoch_time_std"] > float(np.std(times))
        else:
            assert report["summary"]["auc"]["std"] == 0.0
            assert report["timing"]["epoch_time_std"] == 0.0


def test_report_metrics_reproducible(tmp_path, monkeypatch, capsys):
    args = ["run", "--synthetic", "tree:2,3", "--seeds", "1", "--epochs", "8",
            "--dim", "4"]
    reports = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(args + ["--out", str(out_dir)], tmp_path, monkeypatch, capsys)
        assert code == 0
        reports.append(read_report(out_dir))
    assert reports[0]["summary"] == reports[1]["summary"]
    assert reports[0]["per_seed"][0]["metrics"] == reports[1]["per_seed"][0]["metrics"]


def test_bench_two_models(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "b1"
    code, out, err = run_cli(
        ["bench", "--models", "hgcn-agg0,shgcn", "--synthetic", "tree:2,4",
         "--epochs", "8", "--runs", "1", "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert "hgcn-agg0_vs_shgcn" in report["summary"]
    assert set(report["summary"]) == {"hgcn-agg0_vs_shgcn"}
    assert "speedup" in out


def test_run_single_seed_flag(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "seed1"
    code, _, _ = run_cli(
        ["run", "--synthetic", "tree:2,3", "--seed", "7", "--epochs", "5",
         "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert [e["seed"] for e in report["per_seed"]] == [7]
    code, _, err = run_cli(
        ["run", "--synthetic", "tree:2,3", "--seed", "7", "--seeds", "1,2"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2


def test_run_graph_regression(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "gr"
    code, out, err = run_cli(
        ["run", "--task", "gr", "--synthetic", "erdos:10,0.2,0", "--count", "8",
         "--epochs", "10", "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0
    report = read_report(out_dir)
    assert "mae" in report["summary"]


def test_graph_regression_caps_member_edge_probability_at_1(tmp_path, monkeypatch, capsys):
    # members draw p from [p/2, 3p/2], so a template p above 2/3 overshoots 1
    out_dir = tmp_path / "gr"
    code, _, err = run_cli(
        ["run", "--task", "gr", "--synthetic", "erdos:8,0.9,0", "--count", "8",
         "--epochs", "2", "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0, err
    assert "mae" in read_report(out_dir)["summary"]


def test_bench_single_model_exits_2(tmp_path, monkeypatch, capsys):
    code, _, _ = run_cli(
        ["bench", "--models", "shgcn", "--synthetic", "tree:2,3"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2


def test_stability_command(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "s1"
    code, out, err = run_cli(["stability", "--out", str(out_dir)],
                             tmp_path, monkeypatch, capsys)
    assert code == 0
    csv = (out_dir / "stability.csv").read_text().splitlines()
    assert csv[0] == "mode,epsilon,max_k,radius,threshold"
    rows = {line.split(",")[0]: line.split(",") for line in csv[1:]}
    assert abs(float(rows["half"][4]) - 5.0) <= 0.5
    assert abs(float(rows["single"][4]) - 9.0) <= 0.5
    assert abs(float(rows["double"][4]) - 19.0) <= 0.5
    assert "half" in out


def test_hyperbolicity_tree_zero(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["hyperbolicity", "--synthetic", "tree:2,5"],
                             tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "delta = 0.0" in out


def test_hyperbolicity_cycle4_one(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(["hyperbolicity", "--synthetic", "cycle:4"],
                             tmp_path, monkeypatch, capsys)
    assert code == 0
    assert "delta = 1.0" in out


def test_hyperbolicity_disconnected_exits_2(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("0 1\n2 3\n")
    code, _, err = run_cli(["hyperbolicity", "--edges", str(edges)],
                           tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "disconnected" in err


def test_hyperbolicity_fractional_id_exits_2_without_output(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("0 1\n1 2\n2 0\n0 1.7\n")
    out_dir = tmp_path / "hyp"
    code, out, err = run_cli(["hyperbolicity", "--edges", str(edges), "--out", str(out_dir)],
                             tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "non-integral id or label in" in err and str(edges) in err
    assert "delta" not in out
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["-1 -1\n", "0 1\n1 2\n2 0\n-1 -1\n"])
def test_hyperbolicity_negative_self_loop_exits_2_without_output(tmp_path, monkeypatch,
                                                                 capsys, text):
    edges = tmp_path / "e.csv"
    edges.write_text(text)
    out_dir = tmp_path / "hyp"
    code, out, err = run_cli(["hyperbolicity", "--edges", str(edges), "--out", str(out_dir)],
                             tmp_path, monkeypatch, capsys)
    assert code == 2
    assert "edge endpoint out of range" in err
    assert "delta" not in out
    assert not out_dir.exists()


@pytest.mark.parametrize("spec,kind", [
    ("tree:2,3,9", "tree"), ("cycle:4,1", "cycle"), ("erdos:5,0.5,0,7", "erdos"),
])
def test_hyperbolicity_extra_synthetic_field_exits_2(tmp_path, monkeypatch, capsys, spec,
                                                     kind):
    code, out, err = run_cli(["hyperbolicity", "--synthetic", spec],
                             tmp_path, monkeypatch, capsys)
    assert code == 2
    assert f"bad synthetic graph spec {spec!r}: {kind} takes" in err
    assert "delta" not in out


@pytest.mark.filterwarnings("error")
def test_hyperbolicity_id_beyond_int64_exits_2_naming_the_file(tmp_path, monkeypatch, capsys):
    edges = tmp_path / "e.csv"
    edges.write_text("0 1\n1 2\n2 0\n1 1e20\n")
    code, out, err = run_cli(["hyperbolicity", "--edges", str(edges)],
                             tmp_path, monkeypatch, capsys)
    assert code == 2
    assert f"id or label out of range in {edges}" in err
    assert "delta" not in out


@pytest.mark.parametrize("top", [3_000_000_000, MAX_NODES])
@pytest.mark.parametrize("command", ["hyperbolicity", "run"])
def test_node_id_above_the_limit_exits_2_before_sizing_the_graph(tmp_path, monkeypatch, capsys,
                                                                 top, command):
    # the graph would have top + 1 nodes: 22 GiB of zeros for top = 3e9
    edges = tmp_path / "e.txt"
    edges.write_text(f"0 1\n1 2\n2 {top}\n")
    code, out, err = run_cli([command, "--edges", str(edges)], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert f"node id {top} in {edges} is above the limit of {MAX_NODES - 1}" in err
    assert "Traceback" not in err and "delta" not in out


@pytest.mark.parametrize("spec", [
    "tree:3,30",  # 3.1e14 nodes, whose int64 ids alone would take 2.5 PB
    "tree:2,1000000000000",
    f"tree:1,{MAX_NODES}",
    f"tree:{MAX_NODES},1",
    "cycle:2000000",
    f"erdos:{MAX_NODES + 1},0.000001,0",
])
@pytest.mark.parametrize("command", ["hyperbolicity", "run"])
def test_synthetic_graph_above_the_limit_exits_2_before_it_is_built(tmp_path, monkeypatch, capsys,
                                                                    spec, command):
    code, out, err = run_cli([command, "--synthetic", spec], tmp_path, monkeypatch, capsys)
    assert code == 2
    assert f"bad synthetic graph spec {spec!r}: more than the limit of {MAX_NODES} nodes" in err
    assert "Traceback" not in err and "delta" not in out


def test_hyperbolicity_cap_exceeded_exits_2(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["hyperbolicity", "--synthetic", "cycle:30", "--cap", "10"],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "cap" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--task", "bogus", "--synthetic", "tree:2,2"])
    assert exc.value.code == 2


def test_env_var_default_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHGCN_OUT_DIR", str(tmp_path / "envout"))
    code = main(["stability"])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "envout" / "stability.csv").exists()


def test_run_non_finite_parameter_exits_1_without_output(tmp_path, monkeypatch, capsys):
    real = training.adam_step

    def step(state, params, grads):
        out = real(state, params, grads)
        out["w0"] = out["w0"] * np.nan
        return out

    monkeypatch.setattr(training, "adam_step", step)
    out_dir = tmp_path / "nan"
    code, out, err = run_cli(
        ["run", "--task", "lp", "--synthetic", "tree:2,3", "--epochs", "3",
         "--dim", "4", "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 1
    assert "runtime failure: epoch 0: parameter 'w0' is not finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra, message", [
    (["run", "--layers", "0"], "need num_layers >= 1 and hidden_dim >= 1"),
    (["run", "--dim", "0"], "need num_layers >= 1 and hidden_dim >= 1"),
    (["run", "--dropout", "1.5"], "dropout must be in [0, 1)"),
    (["run", "--decoder-t", "0"], "temperature t must be positive and finite"),
    (["run", "--curvature", "0"], "init_curvature must be positive and finite"),
    (["run", "--seeds", "a"], "seeds must be integers, got 'a'"),
    (["run", "--seeds", "-1"], "seeds must be non-negative, got -1"),
    (["run", "--seed", "-1"], "seeds must be non-negative, got -1"),
    (["bench", "--seed", "-1"], "seeds must be non-negative, got -1"),
    (["run", "--task", "gr", "--synthetic", "erdos:12,0.3,0", "--seeds", "-5"],
     "seeds must be non-negative, got -5"),
    (["run", "--seeds", "0,0"], "seeds must be distinct, got 0,0"),
    (["run", "--epochs", "0"], "epochs must be at least 1, got 0"),
    (["run", "--ratios", "1,0,0"], "split 14 edges into 14 for training and 0 for testing"),
    (["run", "--task", "nc", "--ratios", "1,0,0"],
     "split 15 nodes into 15 for training and 0 for testing"),
    (["run", "--task", "gr", "--synthetic", "erdos:10,0.2,0", "--count", "3"],
     "split 3 graphs into 3 for training and 0 for testing"),
    (["bench", "--epochs", "3"], "needs at least two; got epochs 3, runs 1"),
    (["bench", "--epochs", "6"], "needs at least two; got epochs 6, runs 1"),
    (["bench", "--runs", "0"], "needs at least two; got epochs 8, runs 0"),
    (["bench", "--layers", "0"], "need num_layers >= 1 and hidden_dim >= 1"),
    (["bench", "--ratios", "0,0.5,0.5"], "split 14 edges into 0 for training"),
    (["bench", "--models", "shgcn,bogus"], "unknown model 'bogus'"),
    (["bench", "--models", "gcn,shgcn,gcn"],
     "bench compares distinct model kinds, got gcn,shgcn,gcn"),
    (["run", "--task", "gr", "--synthetic", "erdos:10,2.0,0"],
     "bad erdos template 'erdos:10,2.0,0': need n >= 2 and p in [0, 1]"),
    (["run", "--task", "gr", "--synthetic", "erdos:0,0.2,0"],
     "bad erdos template 'erdos:0,0.2,0': need n >= 2 and p in [0, 1]"),
    (["run", "--task", "gr", "--synthetic", "erdos:1,0.5,0"],
     "bad erdos template 'erdos:1,0.5,0': need n >= 2 and p in [0, 1]"),
    (["run", "--task", "gr", "--synthetic", "erdos:12,0.3,notaseed"],
     "bad erdos template 'erdos:12,0.3,notaseed': need n >= 2 and p in [0, 1], "
     "and an integer seed"),
    (["run", "--synthetic", "erdos:5,1.0,0"],
     "graph too dense for link prediction: 0 non-edges for the 9 negatives"),
    (["run", "--synthetic", "erdos:6,0.95,0"], "graph too dense for link prediction"),
    (["run", "--lr", "-1"], "lr must be positive and finite, got -1"),
    (["run", "--lr", "nan"], "lr must be positive and finite, got nan"),
    (["run", "--patience", "0"], "patience must be at least 1, got 0"),
    (["run", "--layers", "2.5"], "layers must be an integer, got 2.5"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_invalid_option_values_exit_2_without_output(tmp_path, monkeypatch, capsys,
                                                     extra, message):
    # an option given twice takes its last value, so `extra` overrides these
    base = {"run": ["--epochs", "3", "--dim", "4"],
            "bench": ["--models", "gcn,shgcn", "--epochs", "8", "--runs", "1", "--dim", "4"]}
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        [extra[0], "--synthetic", "tree:2,3", *base[extra[0]], *extra[1:],
         "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2, err
    assert err.startswith("error: ") and message in err
    assert not out_dir.exists() and not (tmp_path / "envout").exists()


@pytest.mark.parametrize("command, config, key", [
    ("run", {"synthetic": "tree:2,3"}, "synthetic"),
    ("run", {"edges": "e.csv", "features": "x.csv"}, "edges"),
    ("bench", {"epochs": 7, "precision": "single"}, "precision"),
    ("bench", {"seeds": "0,1"}, "seeds"),
])
def test_config_keys_the_subcommand_does_not_read_exit_2(tmp_path, monkeypatch, capsys,
                                                          command, config, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    models = ["--models", "gcn,shgcn"] if command == "bench" else []
    code, _, err = run_cli(
        [command, *models, "--synthetic", "tree:2,3", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert "unknown config keys" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def test_bench_reads_epochs_from_the_config_file(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epochs": 7, "dim": 4}))
    out_dir = tmp_path / "b"
    code, _, err = run_cli(
        ["bench", "--models", "gcn,shgcn", "--synthetic", "tree:2,3", "--runs", "1",
         "--config", str(cfg), "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0, err
    report = read_report(out_dir)
    assert report["config"]["epochs"] == 7 and report["config"]["dim"] == 4
    assert [e["epochs_timed"] for e in report["per_seed"]] == [2, 2]


# one valid value per option: (as a flag, as a config-file JSON value)
SAME_VALUE = {
    "task": ("nc", "nc"),
    "model": ("gcn", "gcn"),
    "layers": ("3", 3),
    "dim": ("5", 5),
    "activation": ("identity", "identity"),
    "lr": ("0.02", 0.02),
    "epochs": ("3", 3),
    "patience": ("2", 2),
    "seeds": ("1,2", [1, 2]),
    "ratios": ("0.8,0.1,0.1", [0.8, 0.1, 0.1]),
    "decoder_r": ("1.5", 1.5),
    "decoder_t": ("0.5", 0.5),
    "dropout": ("0.1", 0.1),
    "curvature": ("0.5", 0.5),
    "precision": ("single", "single"),
    "count": ("12", 12),
}


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_flag_and_config_value_parse_the_same(tmp_path, monkeypatch, capsys, key):
    flag, value = SAME_VALUE[key]
    parsed = []
    for name, config, extra in (("flag", {}, ["--" + key.replace("_", "-"), flag]),
                                ("config", {key: value}, [])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"epochs": 2, "dim": 4} | config))
        out_dir = tmp_path / name
        code, _, err = run_cli(
            ["run", "--synthetic", "tree:2,3", "--config", str(cfg), *extra,
             "--out", str(out_dir)],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0, err
        parsed.append(read_report(out_dir)["config"][key])
    assert parsed == [value, value]


@pytest.mark.parametrize("config, message", [
    ({"precision": 5}, "unknown precision 5"),
    ({"precision": "DOUBLE"}, "unknown precision 'DOUBLE'"),
    ({"patience": None}, "patience must be an integer, got None"),
    ({"epochs": "x"}, "epochs must be an integer, got x"),
    ({"layers": 2.7}, "layers must be an integer, got 2.7"),
    ({"dim": True}, "dim must be an integer, got True"),
    ({"seeds": [0, True]}, "seeds must be integers, got [0, True]"),
    (5, "config file must hold one JSON object, not int"),
], ids=json.dumps)
def test_refused_config_values_exit_2_without_output(tmp_path, monkeypatch, capsys,
                                                     config, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["run", "--synthetic", "tree:2,3", "--config", str(cfg), "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not out_dir.exists() and not (tmp_path / "envout").exists()


def test_integer_options_take_whole_numbers_in_either_form(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"epochs": 3.0, "seeds": [1.0]}))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        ["run", "--synthetic", "tree:2,3", "--config", str(cfg), "--dim", "4.0",
         "--out", str(out_dir)],
        tmp_path, monkeypatch, capsys,
    )
    assert code == 0, err
    config = read_report(out_dir)["config"]
    assert (config["epochs"], config["seeds"], config["dim"]) == (3, [1], 4)
    assert all(type(config[k]) is int for k in ("epochs", "dim"))
