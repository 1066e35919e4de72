"""Smoke tests of the experiment scripts: each runs as a child process."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_output_digests_repeat_with_the_same_seed(tmp_path):
    """Same seed, same run: two runs on the small workloads digest alike,
    the checkpoint the first one saves included."""
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
