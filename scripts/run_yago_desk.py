#!/usr/bin/env python3
"""Desk-scale experiment on the prepared YAGO15K dataset.

Trains the latitude/longitude model at reduced size (256 walks, top-32
filter, 64-dimensional encoder, at most 30 epochs) and compares its test MAE
against the train-mean-per-attribute baseline. Expects the TSVs produced by
scripts/prepare_yago15k.py; point --data elsewhere or set RACHAIN_YAGO_DIR to
override the default data/yago15k location.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rachain import evaluation, training
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, attribute_means, format_stats_report, load_dataset
from rachain.model import Model, save_checkpoint
from rachain.training import train


def default_data_dir() -> Path:
    env = os.environ.get("RACHAIN_YAGO_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "yago15k"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", type=Path, default=default_data_dir())
    ap.add_argument("--out", default="runs/yago-desk")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--attributes", default="latitude,longitude",
                    help="comma-separated attribute scope")
    args = ap.parse_args()

    files = [args.data / n for n in ("relational.tsv", "train.tsv",
                                     "valid.tsv", "test.tsv")]
    missing = [str(p) for p in files if not p.exists()]
    if missing:
        print("error: prepared dataset not found: " + ", ".join(missing),
              file=sys.stderr)
        print("run scripts/prepare_yago15k.py first (see its --help)",
              file=sys.stderr)
        return 1

    kg, split = load_dataset(*files)
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    print(f"loaded {kg.n_entities} entities, {kg.num_base_relations} relations "
          f"({kg.n_relations} with inverses), {kg.n_attributes} attributes, "
          f"{len(kg.edge_tail)} edges")
    print(format_stats_report(kg, stats), end="")

    config = TrainConfig(
        walks=256, max_hops=3, top_k=32, lam=0.5,
        dim=64, filter_dim=32, layers=1, heads=4, affine_hidden=64,
        mode="scaling", epochs=args.epochs, lr=0.01, batch_size=64,
        loss="l2", epsilon=1e-9, patience=5, seed=args.seed,
        attributes=tuple(a for a in args.attributes.split(",") if a))
    model = Model(kg.n_relations, kg.n_attributes, stats, means, config)

    print(f"\ntraining on {', '.join(config.attributes)} ...")
    started = time.perf_counter()
    result = train(model, kg, split, progress=lambda row: print(training.format_epoch(row)))
    elapsed = time.perf_counter() - started
    print(f"stopped after {len(result.history)} epochs "
          f"({result.stop_reason}, {elapsed / 60:.1f} min)")

    report = evaluation.evaluate(model, kg, split.test, seed=config.seed)
    baseline = evaluation.train_mean_baseline(model, kg, split.test)
    print("\ntest metrics:")
    print(evaluation.format_metrics(report), end="")
    print("\ntrain-mean baseline:")
    print(evaluation.format_metrics(baseline), end="")
    if baseline.average_mae_norm > 0:
        gain = 1.0 - report.average_mae_norm / baseline.average_mae_norm
        print(f"\nnormalized MAE vs baseline: {report.average_mae_norm:.4f} vs "
              f"{baseline.average_mae_norm:.4f} ({gain:+.1%})")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.npz", model, {
        "dataset": {p.stem: str(p.resolve()) for p in files},
        "best_epoch": result.best_epoch,
        "stop_reason": result.stop_reason,
    })
    (out / "epochs.csv").write_text(training.epochs_to_csv(result.history),
                                    encoding="utf-8")
    (out / "metrics.csv").write_text(evaluation.metrics_to_csv(report),
                                     encoding="utf-8")
    (out / "baseline.csv").write_text(evaluation.metrics_to_csv(baseline),
                                      encoding="utf-8")
    print(f"\ncheckpoint and metrics in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
