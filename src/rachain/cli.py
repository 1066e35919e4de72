"""Command-line interface.

Subcommands: ingest (load + stats report), synth (generate a dataset from a
rule spec), train, eval, predict (one query with a contribution trace), and
explain (aggregate chain-pattern report). Errors print one line to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import evaluation, synth, training
from .config import LOSSES, PROJECTION_MODES, TrainConfig
from .kg import (
    AttributeStats,
    KnowledgeGraph,
    Query,
    attribute_means,
    format_stats_report,
    load_dataset,
)
from .model import Model, load_checkpoint, save_checkpoint
from .reasoner import format_pattern_report
from .training import train


def _add_dataset_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--relational", required=required, help="relational triples TSV")
    p.add_argument("--train", required=required, help="training numerical TSV")
    p.add_argument("--valid", help="validation numerical TSV")
    p.add_argument("--test", help="test numerical TSV")


def _dataset_paths(args) -> dict:
    return {k: str(Path(p).resolve()) if (p := getattr(args, k)) else None
            for k in ("relational", "train", "valid", "test")}


def cmd_ingest(args) -> int:
    kg, split = load_dataset(args.relational, args.train, args.valid, args.test)
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    report = format_stats_report(kg, stats)
    print(report, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stats.txt").write_text(report, encoding="utf-8")
        summary = {
            "entities": kg.n_entities,
            "base_relations": kg.num_base_relations,
            "relations_with_inverses": kg.n_relations,
            "attributes": kg.n_attributes,
            "edges_with_inverses": len(kg.edge_tail),
            "numerical_facts": {
                "train": len(split.train),
                "valid": len(split.valid),
                "test": len(split.test),
            },
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
        for name, names in (("entities", kg.entity_names), ("relations", kg.relation_names),
                            ("attributes", kg.attribute_names)):
            (out / f"{name}.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    spec = synth.SynthSpec.from_file(args.spec)
    meta = synth.generate(spec, args.seed, args.out)
    print(f"wrote {meta['entities']} entities, {meta['relational_rows']} relational "
          f"rows, {meta['numerical']} numerical values to {args.out}")
    return 0


_CHOICES = {"mode": PROJECTION_MODES, "loss": LOSSES}


def _names(text: str) -> list[str]:
    return [a for a in text.split(",") if a]


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, its value stored under the field's
    name; None when absent. Bool fields take --x/--no-x, with a `use_`
    prefix dropped (--no-filter sets use_filter to False)."""
    p.add_argument("--config", help="JSON config file; flags override its keys")
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.removeprefix("use_").replace("_", "-")
        kind = type(f.default)
        if kind is bool:
            p.add_argument(flag, dest=f.name, action=argparse.BooleanOptionalAction)
        elif f.name == "attributes":
            p.add_argument(flag, dest=f.name, type=_names,
                           help="comma-separated attribute names to train/evaluate on")
        else:
            p.add_argument(flag, dest=f.name, type=kind, choices=_CHOICES.get(f.name))


def _config_from_args(args) -> TrainConfig:
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    for f in dataclasses.fields(TrainConfig):
        value = getattr(args, f.name)
        if value is not None:
            data[f.name] = value
    return TrainConfig.from_dict(data)


def cmd_train(args) -> int:
    config = _config_from_args(args)
    kg, split = load_dataset(args.relational, args.train, args.valid, args.test)
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    model = Model(kg.n_relations, kg.n_attributes, stats, means, config)

    result = train(model, kg, split, progress=lambda row: print(training.format_epoch(row)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    extra = {
        "dataset": _dataset_paths(args),
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "epochs_run": len(result.history),
        "stop_reason": result.stop_reason,
    }
    save_checkpoint(out / "checkpoint.npz", model, extra)
    (out / "epochs.csv").write_text(training.epochs_to_csv(result.history),
                                    encoding="utf-8")
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2),
                                     encoding="utf-8")
    print(f"stopped after {len(result.history)} epochs ({result.stop_reason}); "
          f"checkpoint at {out / 'checkpoint.npz'}")
    return 0


def _load_model_and_data(args) -> tuple[Model, dict, KnowledgeGraph, "object"]:
    model, extra = load_checkpoint(args.checkpoint)
    stored = extra.get("dataset", {})
    paths = [getattr(args, k) or stored.get(k) for k in ("relational", "train", "valid", "test")]
    if not paths[0] or not paths[1]:
        raise ValueError("dataset paths missing: pass --relational/--train or use a "
                         "checkpoint that stored them")
    kg, split = load_dataset(*paths)
    return model, extra, kg, split


def cmd_eval(args) -> int:
    model, _, kg, split = _load_model_and_data(args)
    triples = getattr(split, args.split)
    if len(triples) == 0:
        raise ValueError(f"split {args.split!r} is empty")
    report = evaluation.evaluate(model, kg, triples, seed=args.seed)
    print(evaluation.format_metrics(report), end="")
    baseline = None
    if args.baseline:
        baseline = evaluation.train_mean_baseline(model, kg, triples)
        print("\ntrain-mean baseline:")
        print(evaluation.format_metrics(baseline), end="")
    if args.filter_audit:
        audits = evaluation.filter_composition(model, kg, triples, seed=args.seed)
        print("\nfilter composition:")
        print(evaluation.format_filter_audit(audits), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text(evaluation.metrics_to_csv(report),
                                         encoding="utf-8")
        (out / "metrics.txt").write_text(evaluation.format_metrics(report),
                                         encoding="utf-8")
        if baseline is not None:
            (out / "baseline.csv").write_text(evaluation.metrics_to_csv(baseline),
                                              encoding="utf-8")
    return 0


def _trace_to_dict(trace, kg: KnowledgeGraph) -> dict:
    return {
        "entity": kg.entity_names[trace.query.entity],
        "attribute": kg.attribute_names[trace.query.attribute],
        "predicted_value": trace.predicted_value,
        "predicted_norm": trace.predicted_norm,
        "fallback": trace.fallback,
        "contributions": [
            {
                "weight": c.weight,
                "proposal_value": c.proposal_value,
                "source_entity": kg.entity_names[c.chain.source_entity],
                "source_attribute": kg.attribute_names[c.chain.source_attribute],
                "source_value": c.chain.source_value,
                "relations": [kg.relation_names[r] for r in c.chain.relations],
                "entity_path": [kg.entity_names[e] for e in c.chain.entity_path],
            }
            for c in trace.contributions
        ],
    }


def cmd_predict(args) -> int:
    model, _, kg, _ = _load_model_and_data(args)
    if args.entity not in kg.entity_index:
        raise ValueError(f"unknown entity {args.entity!r}")
    if args.attribute not in kg.attribute_index:
        raise ValueError(f"unknown attribute {args.attribute!r}")
    query = Query(kg.entity_index[args.entity], kg.attribute_index[args.attribute])
    trace = model.predict(kg, query, seed=args.seed)
    print(f"{args.entity} / {args.attribute}: {trace.predicted_value:.6f}"
          + (f"  (fallback: {trace.fallback})" if trace.fallback else ""))
    for c in trace.contributions[: args.top]:
        rels = " -> ".join(kg.relation_names[r] for r in c.chain.relations)
        print(f"  w={c.weight:.4f}  proposes {c.proposal_value:.4f}  from "
              f"{kg.entity_names[c.chain.source_entity]}"
              f"[{kg.attribute_names[c.chain.source_attribute]}"
              f"={c.chain.source_value:g}] via {rels}")
    if args.trace:
        Path(args.trace).write_text(json.dumps(_trace_to_dict(trace, kg), indent=2),
                                    encoding="utf-8")
    return 0


def cmd_explain(args) -> int:
    model, _, kg, split = _load_model_and_data(args)
    triples = getattr(split, args.split)
    if args.attribute:
        if args.attribute not in kg.attribute_index:
            raise ValueError(f"unknown attribute {args.attribute!r}")
        triples = triples[triples["attribute"] == kg.attribute_index[args.attribute]]
    patterns = evaluation.explain(model, kg, triples, seed=args.seed)
    report = format_pattern_report(patterns, kg.relation_names, kg.attribute_names,
                                   limit=args.limit)
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rachain",
        description="Chain-based prediction of missing numerical attributes "
                    "in knowledge graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset and report value statistics")
    _add_dataset_args(p, required=True)
    p.add_argument("--out", help="directory for stats.txt/summary.json/vocab files")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a rule spec")
    p.add_argument("--spec", required=True, help="JSON rule spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    _add_dataset_args(p, required=True)
    p.add_argument("--out", required=True, help="output directory")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p, required=False)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for metrics files")
    p.add_argument("--baseline", action="store_true",
                   help="also score the train-mean baseline")
    p.add_argument("--filter-audit", action="store_true",
                   help="report chain composition before/after filtering")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="predict one entity/attribute value")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p, required=False)
    p.add_argument("--entity", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=5, help="contributions to print")
    p.add_argument("--trace", help="write the full contribution trace as JSON")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("explain", help="rank chain patterns by attention weight")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p, required=False)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--attribute", help="restrict to one attribute")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - single-line CLI diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
