#!/usr/bin/env python3
"""Benchmark of the rachain pipeline, end to end and per layer.

    python3 perfbench/run.py --workload train_small --seed 1 --seconds 25 --trace 0

Run from the repository root. The run generates its graph from --seed with
`rachain.synth`, measures for about --seconds seconds, checks every output,
and prints one JSON object as its last line: `correct`, operations `attempted`
and `failed`, and the metrics. --trace 0 gives the end-to-end metrics of
BENCHMARK.json, their times scaled to the machine's measured speed (see
perfbench/speed.py), --trace 1 the per-layer ones. The line before it carries the
provenance (machine, versions, seeds). Full results are kept under
.perfbench/results/. BLAS is pinned to one thread in this process's own
environment. See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

ROOT = Path(__file__).resolve().parent.parent


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def provenance(root: Path, workload, seed: int) -> dict:
    import numpy as np
    src = root / "src" / "rachain"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": PINNED_THREADS,
        "git_sha": git_sha(root),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(src.rglob("*.py"))),
        "seeds": {"workload": seed, "data": seed, "model": workload.config["seed"],
                  "train_subset": seed},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rachain").is_dir():
        print(f"error: no rachain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if args.trace else "end_to_end"]}

    state = ROOT / ".perfbench"
    work_dir = state / f"work-{os.getpid()}"
    try:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                             work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    produced = set(result.metrics)
    if produced != set(declared):
        print(f"error: metrics differ from BENCHMARK.json: missing "
              f"{sorted(set(declared) - produced)}, undeclared "
              f"{sorted(produced - set(declared))}", file=sys.stderr)
        return 3

    correct = result.tally.failed == 0
    metrics = {}
    for name, unit in declared.items():
        value = result.metrics[name]
        if not math.isfinite(value):
            correct = False
            value = None
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value!s:>24} {unit}")
    if result.missing:
        print(f"wrapped names missing (not traced): {', '.join(result.missing)}")
    for reason, count in sorted(result.tally.reasons.items()):
        print(f"failed x{count}: {reason}")

    info = provenance(ROOT, workload, args.seed)
    line = {"correct": correct, "attempted": result.tally.attempted,
            "failed": result.tally.failed, "metrics": metrics}
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {**line, "workload": args.workload, "provenance": info,
         "missing_wrappers": result.missing,
         "failure_reasons": dict(result.tally.reasons)}, indent=2), encoding="utf-8")
    if result.spans:
        with open(results / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent in result.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
