#!/usr/bin/env python3
"""Synthetic end-to-end experiment.

Generates a 500-entity graph where the value of ``val`` doubles along a fixed
two-hop relation path (p -> q), buried under ten distractor relations, 600
noise edges, and an unrelated attribute on every intermediate entity
(experiments/acceptance.spec.json). Trains the full model on
experiments/acceptance.config.json, reports test error against the train-mean
baseline, prints the attention-ranked chain patterns (the generative pattern
should come first), and optionally re-trains the ablated variants and the
other projection mode for comparison. The main run is `rachain synth`,
`rachain train`, `rachain eval --baseline --filter-audit` and
`rachain explain --limit 10`.

Outputs land under --out: the dataset TSVs (data/), spec.json, the commands'
files (checkpoint.npz, config.json, epochs.csv, metrics.csv, baseline.csv,
metrics.txt), patterns.txt, and comparison.csv.
"""

import argparse
import csv
import shutil
import sys
from pathlib import Path

EXPERIMENTS = Path(__file__).resolve().parent / "experiments"
sys.path.insert(0, str(EXPERIMENTS.parent.parent / "src"))

from rachain import cli, evaluation
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, attribute_means, load_dataset
from rachain.model import load_checkpoint


def rachain(*argv) -> None:
    """Run one `rachain` command in this process; raise if it fails."""
    if cli.main([str(a) for a in argv]) != 0:
        raise SystemExit(f"rachain {argv[0]} failed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/synthetic", help="output directory")
    ap.add_argument("--seed", type=int, help="training seed (default: the config's)")
    ap.add_argument("--dataset-seed", type=int, default=101)
    ap.add_argument("--epochs", type=int, help="epoch cap (default: the config's)")
    ap.add_argument("--mode", help="projection mode for the main run "
                                   "(default: the config's)")
    ap.add_argument("--skip-ablations", action="store_true",
                    help="train only the full model")
    args = ap.parse_args()

    out, spec = Path(args.out), EXPERIMENTS / "acceptance.spec.json"
    out.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(spec, out / "spec.json")
    rachain("synth", "--spec", spec, "--seed", args.dataset_seed, "--out", out / "data")

    files = {k: out / "data" / f"{k}.tsv" for k in ("relational", "train", "valid", "test")}
    dataset = [x for k, path in files.items() for x in (f"--{k}", path)]
    overrides = [x for flag, value in (("--seed", args.seed), ("--epochs", args.epochs),
                                       ("--mode", args.mode))
                 if value is not None for x in (flag, value)]
    print("\ntraining full model ...")
    rachain("train", *dataset, "--config", EXPERIMENTS / "acceptance.config.json",
            *overrides, "--out", out)
    checkpoint = ["--checkpoint", out / "checkpoint.npz"]
    print("\ntest metrics:")
    rachain("eval", *checkpoint, "--baseline", "--filter-audit", "--out", out)
    print("\nchain patterns by aggregate attention weight:")
    rachain("explain", *checkpoint, "--limit", 10, "--out", out / "patterns.txt")

    with (out / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        average = next(r for r in csv.DictReader(fh) if r["attribute"] == "AVERAGE")
    model, extra = load_checkpoint(out / "checkpoint.npz")
    config = model.config
    rows = [("full", float(average["mae_norm"]), float(average["rmse_norm"]),
             extra["epochs_run"], extra["stop_reason"])]
    if not args.skip_ablations:
        kg, split = load_dataset(*files.values())
        stats = AttributeStats.from_triples(split.train, kg.n_attributes)
        means = attribute_means(split.train, kg.n_attributes)
        other = "translation" if config.mode == "scaling" else "scaling"
        print(f"\nablations and projection mode {other} (same data, same config) ...")
        outcomes = evaluation.run_ablations(
            kg, split, config, stats, means,
            variants=("no_projection", "no_weighting", "no_filter"))
        alt = TrainConfig.from_dict({**config.to_dict(), "mode": other})
        outcomes[f"mode={other}"] = evaluation.run_ablations(
            kg, split, alt, stats, means, variants=("full",))["full"]
        rows += [(name, o.report.average_mae_norm, o.report.average_rmse_norm,
                  len(o.result.history), o.result.stop_reason)
                 for name, o in outcomes.items()]

    with (out / "comparison.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mae_norm", "rmse_norm", "epochs", "stop_reason"])
        writer.writerows(rows)

    print("\nsummary (normalized MAE, lower is better):")
    for name, mae, _, epochs, reason in rows:
        print(f"  {name:<16} {mae:.4f}  ({epochs} epochs, {reason})")
    print(f"\noutputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
