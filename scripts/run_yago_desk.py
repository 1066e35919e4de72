#!/usr/bin/env python3
"""Desk-scale experiment on the prepared YAGO15K dataset.

Trains the latitude/longitude model at reduced size
(experiments/yago_desk.config.json: 256 walks, top-32 filter, 64-dimensional
encoder, at most 30 epochs) and compares its test MAE against the
train-mean-per-attribute baseline. Expects the TSVs produced by
scripts/prepare_yago15k.py; point --data elsewhere or set RACHAIN_YAGO_DIR to
override the default data/yago15k location. The run is `rachain ingest`,
`rachain train --config experiments/yago_desk.config.json` and
`rachain eval --baseline`, all with --out OUT, then a line with the model's
gain over the baseline.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rachain import cli


def rachain(*argv) -> None:
    """Run one `rachain` command in this process; raise if it fails."""
    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"rachain {argv[0]} failed")


def data_dir() -> Path:
    """Where the prepared dataset is looked for: RACHAIN_YAGO_DIR when it is
    set, else data/yago15k in this repository."""
    return Path(os.environ.get("RACHAIN_YAGO_DIR") or ROOT / "data" / "yago15k")


def average_mae_norm(path) -> float:
    """The AVERAGE row's mae_norm in a metrics CSV that `rachain eval` wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        return next(float(row["mae_norm"]) for row in csv.DictReader(fh)
                    if row["attribute"] == "AVERAGE")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", type=Path, default=data_dir())
    ap.add_argument("--out", default="runs/yago-desk")
    ap.add_argument("--seed", type=int, help="training seed (default: the config's)")
    ap.add_argument("--epochs", type=int, help="epoch cap (default: the config's)")
    ap.add_argument("--attributes", help="comma-separated attribute scope "
                                         "(default: the config's)")
    args = ap.parse_args()

    names = ("relational", "train", "valid", "test")
    if not all((args.data / f"{k}.tsv").exists() for k in names):
        print(f"error: no prepared dataset in {args.data}; run "
              "scripts/prepare_yago15k.py first (see its --help)", file=sys.stderr)
        return 1

    out = Path(args.out)
    dataset = [x for k in names for x in (f"--{k}", args.data / f"{k}.tsv")]
    overrides = [x for flag, value in (("--seed", args.seed), ("--epochs", args.epochs),
                                       ("--attributes", args.attributes))
                 if value is not None for x in (flag, value)]
    rachain("ingest", *dataset, "--out", out)
    print("\ntraining ...")
    rachain("train", *dataset, "--config", ROOT / "scripts/experiments/yago_desk.config.json",
            *overrides, "--out", out)
    print("\ntest metrics:")
    rachain("eval", "--checkpoint", out / "checkpoint.npz", "--baseline", "--out", out)

    model, baseline = (average_mae_norm(out / f"{k}.csv") for k in ("metrics", "baseline"))
    if baseline > 0:
        print(f"\nnormalized MAE vs baseline: {model:.4f} vs {baseline:.4f} "
              f"({1.0 - model / baseline:+.1%})")
    print(f"\ncheckpoint and metrics in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
