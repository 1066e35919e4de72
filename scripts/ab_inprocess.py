#!/usr/bin/env python3
"""Paired timings of two source trees' `rachain`, in one process or in
alternating fresh processes.

    python3 scripts/ab_inprocess.py PARENT_TREE CHANGE_TREE --workload train_wide \\
        --what train --pairs 12 --seed 7 [--processes]

Each tree is a checkout (its package sits at TREE/src/rachain). For each
side this repo's `perfbench/harness.py` is executed afresh with the tree's
`rachain` as the package it imports, so each side sets up exactly as the
benchmark does (`harness._set_up`, `harness._train_split`). The workload's
graph (`perfbench.workloads`) is generated once from --seed into a
temporary directory, from which each side loads its own dataset and seeded
model. A side's timed call is one of:

  train     `training.train` of a fresh seeded model on the benchmark's
            training queries (the --seed subset of `harness._train_split`)
  evaluate  `evaluation.evaluate` of the untrained model on the workload's
            evaluation split
  predict   the workload's closed-loop block of `Model.predict` calls over
            the test queries

By default both packages live side by side in one process: after one
untimed call per side, each pair times both sides, alternating which runs
first. That is the finer comparison when the two sides allocate alike, but
the sides then share one heap, and a change that alters the size of its
temporaries can read faster in one process and slower in the benchmark,
which runs each side in a process of its own. With --processes each pair
starts a fresh process per side, alternating which starts first; the
process sets up, makes one untimed call and times CALLS (3) calls, and its
sample is their median, with the minor page faults (`ru_minflt`) per timed
call and the process's maximum resident set size (`ru_maxrss`, in MB) at
its end. Use it to confirm an in-process result for any change that moves
allocation sizes, or whenever the benchmark disagrees with this script.

The script prints each side's median and quartiles (and in --processes mode
its median page faults per call and median maximum RSS), the median
per-pair ratio (change over parent) and the pairs the change won, with a
JSON object of the same figures as its last line. BLAS is pinned to one thread, as in the benchmark. Nothing
is written outside the temporary directory.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.dont_write_bytecode = True  # leave no __pycache__ in either tree
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))

from perfbench.harness import generate  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402

SIDES = ("parent", "change")
CALLS = 3  # timed calls per fresh process with --processes
USAGE = ("minflt", "maxrss_mb")  # what each fresh process reports beside its seconds


def load_harness(tree: Path, side: str):
    """This repo's perfbench harness, importing TREE/src/rachain as `rachain`.

    The tree's modules keep their names while the harness loads and leave
    sys.modules afterwards; they live on through the harness's references
    (rachain imports nothing lazily), so the next tree loads its own."""
    src = tree / "src"
    if not (src / "rachain" / "__init__.py").is_file():
        raise SystemExit(f"no rachain package under {tree}")

    def take_rachain() -> dict:
        return {name: sys.modules.pop(name) for name in list(sys.modules)
                if name == "rachain" or name.startswith("rachain.")}

    outer = take_rachain()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench.harness_{side}", ROOT / "perfbench" / "harness.py")
        harness = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = harness
        spec.loader.exec_module(harness)
    finally:
        sys.path.remove(str(src))
        take_rachain()
        sys.modules.update(outer)
    return harness


class Side:
    """One tree's harness, dataset and untrained model on the shared graph."""

    def __init__(self, harness, workload, data_dir: Path, seed: int):
        self.harness, self.workload, self.data_dir = harness, workload, data_dir
        self.config = harness.TrainConfig.from_dict(workload.config)
        self.kg, self.split, self.model = harness._set_up(data_dir, self.config)
        self.test_queries = harness.training.scoped_queries(self.kg, self.split.test,
                                                            self.model)
        self.train_split = harness._train_split(workload, self.kg, self.split,
                                                self.model, seed)

    def run(self, what: str) -> float:
        """Seconds of one timed call."""
        if what == "train":
            kg, _, model = self.harness._set_up(self.data_dir, self.config)
            t0 = time.perf_counter()
            self.harness.training.train(model, kg, self.train_split)
        elif what == "evaluate":
            triples = getattr(self.split, self.workload.eval_split)
            t0 = time.perf_counter()
            self.harness.evaluation.evaluate(self.model, self.kg, triples,
                                             seed=self.config.seed)
        else:
            queries = self.test_queries
            t0 = time.perf_counter()
            for i in range(self.workload.predicts):
                self.model.predict(self.kg, queries[i % len(queries)], seed=i)
        return time.perf_counter() - t0


def summarize(times: dict[str, list[float]]) -> dict:
    parent, change = np.asarray(times["parent"]), np.asarray(times["change"])
    out = {side: quartiles(times[side]) for side in SIDES}
    out["median_ratio"] = float(np.median(change / parent))
    out["change_won"] = int(np.sum(change < parent))
    out["pairs"] = int(parent.size)
    return out


def quartiles(samples) -> dict:
    return dict(zip(("q1", "median", "q3"),
                    np.percentile(np.asarray(samples), [25, 50, 75]).tolist()))


def child(args) -> int:
    """One side in this process: set up, one untimed call, then CALLS
    timed ones; prints their median seconds, minor page faults per call and
    the process's maximum RSS in MB."""
    tree = args.parent if args.child == "parent" else args.change
    workload = WORKLOADS[args.workload]
    workload = tiny(workload) if args.tiny else workload
    side = Side(load_harness(tree.resolve(), args.child), workload, args.data_dir, args.seed)
    side.run(args.what)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    seconds = [side.run(args.what) for _ in range(CALLS)]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({"seconds": float(np.median(seconds)),
                      "minflt": (usage.ru_minflt - faults) / CALLS,
                      "maxrss_mb": usage.ru_maxrss / 1024.0}))
    return 0


def in_processes(args, data_dir: Path) -> tuple[dict, dict]:
    """Per side, one sample per fresh process, sides alternating which
    starts first; returns the seconds and, keyed by "minflt" and
    "maxrss_mb", the page faults per call and the maximum RSS."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    usage = {key: {side: [] for side in SIDES} for key in USAGE}
    base = [sys.executable, str(Path(__file__).resolve()), str(args.parent), str(args.change),
            "--workload", args.workload, "--what", args.what, "--seed", str(args.seed),
            "--data-dir", str(data_dir)]
    base += ["--tiny"] if args.tiny else []
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for pair in range(args.pairs):
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            proc = subprocess.run(base + ["--child", side], capture_output=True, text=True,
                                  env=env, cwd=data_dir)
            if proc.returncode:
                raise SystemExit(f"{side} process failed:\n{proc.stderr}")
            sample = json.loads(proc.stdout.splitlines()[-1])
            times[side].append(sample["seconds"])
            for key, samples in usage.items():
                samples[side].append(sample[key])
    return times, usage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--what", choices=("train", "evaluate", "predict"), required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7, help="graph and train-subset seed")
    parser.add_argument("--tiny", action="store_true",
                        help="the workload's small smoke-test form (perfbench.workloads.tiny)")
    parser.add_argument("--processes", action="store_true",
                        help="time each side in alternating fresh processes")
    parser.add_argument("--child", choices=SIDES, help=argparse.SUPPRESS)
    parser.add_argument("--data-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    workload = WORKLOADS[args.workload]
    workload = tiny(workload) if args.tiny else workload
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    usage = None
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = generate(workload, args.seed, Path(tmp))
        if args.processes:
            times, usage = in_processes(args, data_dir)
        else:
            sides = {side: Side(load_harness(tree.resolve(), side), workload, data_dir,
                                args.seed)
                     for side, tree in zip(SIDES, (args.parent, args.change))}
            for side in SIDES:  # untimed: lazy set-up and caches
                sides[side].run(args.what)
            for pair in range(args.pairs):
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    times[side].append(sides[side].run(args.what))

    summary = summarize(times)
    if usage is not None:
        for side in SIDES:
            summary[side].update({key: quartiles(samples[side])
                                  for key, samples in usage.items()})
    for side in SIDES:
        s = summary[side]
        line = (f"{side:>6}: median {s['median'] * 1e3:.2f} ms "
                f"(quartiles {s['q1'] * 1e3:.2f}-{s['q3'] * 1e3:.2f})")
        if usage is not None:
            line += (f", {s['minflt']['median']:.0f} minor page faults per call, "
                     f"max RSS {s['maxrss_mb']['median']:.1f} MB")
        print(line)
    print(f"change/parent median per-pair ratio {summary['median_ratio']:.3f}, "
          f"change won {summary['change_won']} of {summary['pairs']} pairs")
    print(json.dumps({"workload": args.workload, "what": args.what, "seed": args.seed,
                      "tiny": args.tiny, "processes": args.processes, **summary,
                      "times": times, **(usage or dict.fromkeys(USAGE))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
