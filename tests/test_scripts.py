"""Smoke tests of the experiment scripts: each runs as a child process.
Also a guard that the experiment files the scripts run keep to the graph
and config the benchmark times."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.workloads import ACCEPTANCE_SPEC, SMALL_CONFIG
from rachain import synth
from rachain.config import TrainConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
EXPERIMENTS = SCRIPTS / "experiments"


def test_acceptance_experiment_is_the_benchmark_graph_and_config():
    """The benchmark's graph is the acceptance spec, and its config the
    acceptance config but for epsilon and patience, which the benchmark
    fixes so that every train call does the same work."""
    spec = synth.SynthSpec.from_file(EXPERIMENTS / "acceptance.spec.json")
    assert spec == synth.SynthSpec.from_dict(ACCEPTANCE_SPEC)
    data = json.loads((EXPERIMENTS / "acceptance.config.json").read_text("utf-8"))
    assert set(data) == set(SMALL_CONFIG) | {"epochs"}
    config = TrainConfig.from_dict(data).to_dict()
    bench = TrainConfig.from_dict(SMALL_CONFIG).to_dict()
    assert {k for k in SMALL_CONFIG if config[k] != bench[k]} == {"epsilon", "patience"}


def test_yago_data_dir_is_the_environment_or_the_repo_default(monkeypatch, tmp_path):
    """The desk run and criterion 09 look for the prepared dataset here."""
    from scripts.run_yago_desk import data_dir
    monkeypatch.setenv("RACHAIN_YAGO_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    monkeypatch.delenv("RACHAIN_YAGO_DIR")
    assert data_dir() == SCRIPTS.parent / "data" / "yago15k"


def test_output_digests_repeat_with_the_same_seed(tmp_path):
    """Same seed, same run: two runs on the small workloads digest alike,
    the checkpoint the first one saves included, both at one BLAS thread."""
    runs = []
    for i in range(2):
        out = tmp_path / f"digests{i}.json"
        proc = subprocess.run([sys.executable, str(SCRIPTS / "output_digests.py"), "--tiny",
                               "--seed", "7", "--checkpoint-dir",
                               str(tmp_path / "ckpt"), "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(out.read_text(encoding="utf-8")))
    first, second = runs
    assert first == second
    assert first["blas_threads"] == 1
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == [
        "predict_dense.npz", "train_small.npz", "train_wide.npz"]
    for name in ("train_small", "predict_dense", "train_wide"):
        keys = first[name]
        assert {"trees/test/chunked", "predict/valid", "train/parameters",
                "checkpoint/evaluate/test"} <= set(keys)
    # the untrained and the trained model predict differently
    assert first["train_wide"]["predict_batch/test"] != first["train_wide"][
        "checkpoint/predict_batch/test"]


def test_run_synthetic_writes_metrics_and_patterns(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_synthetic.py"), "--epochs", "1",
                           "--skip-ablations", "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    metrics = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert metrics[0].startswith("attribute,count,mae")
    assert metrics[1].startswith("val,") and metrics[-1].startswith("AVERAGE,")
    patterns = (tmp_path / "patterns.txt").read_text(encoding="utf-8").splitlines()
    assert patterns[0].split() == ["total", "weight", "chains", "pattern"]
    assert len(patterns) > 1
    comparison = (tmp_path / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert comparison[0] == "variant,mae_norm,rmse_norm,epochs,stop_reason"
    assert len(comparison) == 2 and comparison[1].startswith("full,")


def test_run_yago_desk_on_a_tiny_graph(tmp_path):
    """The desk run's commands write their files, and the script prints the
    gain over the baseline from them."""
    spec = synth.SynthSpec(rules=[synth.ValueRule("val", "val", ("p", "q"), alpha=2.0,
                                                  instances=24)],
                           noise_relations=2, noise_edges=30)
    synth.generate(spec, 3, tmp_path / "data")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_yago_desk.py"),
                           "--data", str(tmp_path / "data"), "--attributes", "val",
                           "--epochs", "1", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("summary.json", "checkpoint.npz", "config.json", "epochs.csv",
                 "metrics.csv", "baseline.csv"):
        assert (out / name).exists(), name
    assert json.loads((out / "config.json").read_text("utf-8"))["attributes"] == ["val"]
    assert "normalized MAE vs baseline: " in proc.stdout


@pytest.mark.parametrize("what", ["train", "evaluate", "predict"])
def test_ab_inprocess_times_the_repo_against_itself(tmp_path, what):
    root = SCRIPTS.parent
    before = sorted(p for p in root.rglob("*") if ".git" not in p.parts)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "ab_inprocess.py"), str(root), str(root),
                           "--workload", "train_small", "--what", what, "--pairs", "3",
                           "--seed", "7", "--tiny"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["pairs"] == 3 and 0 <= result["change_won"] <= 3
    for side in ("parent", "change"):
        times = result["times"][side]
        assert len(times) == 3 and min(times) > 0
        assert result[side]["q1"] <= result[side]["median"] <= result[side]["q3"]
    assert result["median_ratio"] > 0
    assert "change won" in proc.stdout
    assert list(tmp_path.iterdir()) == []
    assert sorted(p for p in root.rglob("*") if ".git" not in p.parts) == before


def test_ab_inprocess_in_fresh_processes(tmp_path):
    """--processes times each side in its own child processes and reports
    their page faults and maximum RSS, leaving no file behind."""
    root = SCRIPTS.parent
    before = sorted(p for p in root.rglob("*") if ".git" not in p.parts)
    proc = subprocess.run([sys.executable, str(SCRIPTS / "ab_inprocess.py"), str(root), str(root),
                           "--workload", "train_small", "--what", "evaluate", "--pairs", "2",
                           "--seed", "7", "--tiny", "--processes"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["processes"] and result["pairs"] == 2
    for side in ("parent", "change"):
        assert len(result["times"][side]) == 2 and min(result["times"][side]) > 0
        assert len(result["minflt"][side]) == 2 and min(result["minflt"][side]) >= 0
        assert len(result["maxrss_mb"][side]) == 2 and min(result["maxrss_mb"][side]) > 0
        for key in ("minflt", "maxrss_mb"):
            spread = result[side][key]
            assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert "minor page faults per call, max RSS " in proc.stdout
    assert list(tmp_path.iterdir()) == []
    assert sorted(p for p in root.rglob("*") if ".git" not in p.parts) == before
