#!/usr/bin/env python3
"""Synthetic end-to-end experiment.

Generates a 500-entity graph where the value of ``val`` doubles along a fixed
two-hop relation path (p -> q), buried under ten distractor relations, 600
noise edges, and an unrelated attribute on every intermediate entity. Trains
the full model, reports test error against the train-mean baseline, prints the
attention-ranked chain patterns (the generative pattern should come first),
and optionally re-trains the ablated variants for comparison.

Outputs land under --out: the dataset TSVs, spec.json, checkpoint.npz,
epochs.csv, metrics.csv, patterns.txt, and comparison.csv.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rachain import evaluation, synth, training
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, attribute_means, load_dataset
from rachain.model import Model, save_checkpoint
from rachain.reasoner import format_pattern_report, top_patterns
from rachain.training import train

SPEC = {
    "rules": [{
        "target_attribute": "val", "source_attribute": "val",
        "path": ["p", "q"], "alpha": 2.0, "beta": 0.0, "instances": 160,
        "source_range": [0.0, 5.0],
        "mid_attribute": "aux", "mid_range": [0.0, 1.0],
    }],
    "noise_relations": 10,
    "noise_edges": 600,
    "standalone": [{"attribute": "pad", "count": 20, "value_range": [0.0, 1.0]}],
    "split": [0.8, 0.1, 0.1],
}


def base_config(args) -> TrainConfig:
    return TrainConfig(
        walks=128, max_hops=3, top_k=16, lam=0.5,
        dim=32, filter_dim=16, layers=1, heads=4, affine_hidden=32,
        mode=args.mode, epochs=args.epochs, lr=0.01, batch_size=32,
        loss="l2", epsilon=1e-9, patience=10, seed=args.seed,
        attributes=("val",))


def run_variant(name, config, kg, split, stats, means, quiet=False):
    model = Model(kg.n_relations, kg.n_attributes, stats, means, config)
    started = time.perf_counter()
    result = train(model, kg, split, progress=None if quiet else
                   lambda row: print("  " + training.format_epoch(row)))
    elapsed = time.perf_counter() - started
    report = evaluation.evaluate(model, kg, split.test, seed=config.seed)
    print(f"{name}: test MAE/span {report.average_mae_norm:.4f} after "
          f"{len(result.history)} epochs ({result.stop_reason}, {elapsed:.0f}s)")
    return model, result, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/synthetic", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="training seed")
    ap.add_argument("--dataset-seed", type=int, default=101)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--mode", default="scaling",
                    help="projection mode for the main run")
    ap.add_argument("--skip-ablations", action="store_true",
                    help="train only the full model")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = out / "data"

    (out / "spec.json").write_text(json.dumps(SPEC, indent=2), encoding="utf-8")
    meta = synth.generate(synth.SynthSpec.from_dict(SPEC), args.dataset_seed, data)
    print(f"dataset: {meta['entities']} entities, {meta['relational_rows']} "
          f"relational rows, {meta['numerical']} numerical values")

    kg, split = load_dataset(data / "relational.tsv", data / "train.tsv",
                             data / "valid.tsv", data / "test.tsv")
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    config = base_config(args)

    print(f"\ntraining full model (mode={config.mode}) ...")
    model, result, report = run_variant("full", config, kg, split, stats, means)
    save_checkpoint(out / "checkpoint.npz", model, {
        "dataset": {k: str((data / f"{k}.tsv").resolve())
                    for k in ("relational", "train", "valid", "test")},
        "best_epoch": result.best_epoch,
        "stop_reason": result.stop_reason,
    })
    (out / "epochs.csv").write_text(training.epochs_to_csv(result.history),
                                    encoding="utf-8")
    (out / "metrics.csv").write_text(evaluation.metrics_to_csv(report),
                                     encoding="utf-8")

    baseline = evaluation.train_mean_baseline(model, kg, split.test)
    print(f"train-mean baseline: MAE/span {baseline.average_mae_norm:.4f}")
    print("\ntest metrics:")
    print(evaluation.format_metrics(report), end="")

    audits = evaluation.filter_composition(model, kg, split.test, seed=config.seed)
    print("\nfilter composition (fraction of chains sourced from the queried "
          "attribute, before -> after filtering):")
    print(evaluation.format_filter_audit(audits), end="")

    queries = training.scoped_queries(kg, split.test, model)
    traces = model.predict_batch(
        kg, queries, [training.seed_for(config.seed, 6, 0, i) for i in range(len(queries))])
    patterns = top_patterns(traces)
    pattern_report = format_pattern_report(patterns, kg.relation_names,
                                           kg.attribute_names, limit=10)
    print("\nchain patterns by aggregate attention weight:")
    print(pattern_report, end="")
    (out / "patterns.txt").write_text(pattern_report, encoding="utf-8")

    rows = [("full", report.average_mae_norm, report.average_rmse_norm,
             len(result.history), result.stop_reason)]
    if not args.skip_ablations:
        print("\nablations (same data, same config) ...")
        outcomes = evaluation.run_ablations(
            kg, split, config, stats, means,
            variants=("no_projection", "no_weighting", "no_filter"))
        for name, outcome in outcomes.items():
            print(f"  {name}: MAE/span {outcome.report.average_mae_norm:.4f} "
                  f"({len(outcome.result.history)} epochs, "
                  f"{outcome.result.stop_reason})")
            rows.append((name, outcome.report.average_mae_norm,
                         outcome.report.average_rmse_norm,
                         len(outcome.result.history), outcome.result.stop_reason))

        other = "translation" if config.mode == "scaling" else "scaling"
        print(f"\nprojection-mode comparison ({other}) ...")
        alt = TrainConfig.from_dict({**config.to_dict(), "mode": other})
        _, alt_result, alt_report = run_variant(other, alt, kg, split,
                                                stats, means, quiet=True)
        rows.append((f"mode={other}", alt_report.average_mae_norm,
                     alt_report.average_rmse_norm, len(alt_result.history),
                     alt_result.stop_reason))

    with (out / "comparison.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "mae_norm", "rmse_norm", "epochs",
                         "stop_reason"])
        writer.writerows(rows)

    print("\nsummary (normalized MAE, lower is better):")
    for name, mae, _, epochs, reason in rows:
        print(f"  {name:<16} {mae:.4f}  ({epochs} epochs, {reason})")
    print(f"\nbaseline {baseline.average_mae_norm:.4f}; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
