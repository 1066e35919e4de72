"""Smoke tests of the experiment scripts: each runs as a child process."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
