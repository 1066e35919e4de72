"""Smoke tests of the experiment scripts: each runs as a child process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
    their page faults, leaving no file behind."""
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
        faults = result[side]["minflt"]
        assert faults["q1"] <= faults["median"] <= faults["q3"]
    assert "minor page faults per call" in proc.stdout
    assert list(tmp_path.iterdir()) == []
    assert sorted(p for p in root.rglob("*") if ".git" not in p.parts) == before
