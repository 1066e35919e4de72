"""One benchmark run of a workload: generate its graph, then set up,
evaluate, predict and train through the public API, timing each step and
checking every output.

A run without wrappers gives the end-to-end metrics, its times scaled to
reference seconds by `speed.Speedometer`. A traced run repeats one
fixed pass four times, alternately plain and with the layer wrappers
installed, and turns the spans of the first traced pass into per-layer
metrics; traced over plain pass time is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rachain import evaluation, synth, training
from rachain import kg as kg_module
from rachain.config import TrainConfig
from rachain.kg import AttributeStats, DatasetSplit, attribute_means
from rachain.model import Model

from . import checks
from .speed import Speedometer
from .tracing import BOOKKEEPING, Tracer
from .workloads import Workload

LAYERS = ("kg", "retrieval", "filter", "encoder", "reasoner", "model",
          "autodiff", "training", "evaluation", "trace")
REPEAT_CHECKS = 8  # predictions re-run with the same seed per run


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.update(problems)


@dataclass(frozen=True)
class Plan:
    """Rounds started until `seconds` have passed and at least `rounds` ran.

    A round sets up, then trains a fresh model. Before training and after
    every epoch it runs a block: `setups` timed set-ups, `evaluates` evaluate
    calls and `predicts` predictions with the round's untrained model. Blocks
    between epochs spread the samples of every metric over the whole run, so
    that a slow stretch of the machine weighs on each metric by its share of
    the run.
    """

    seconds: float
    rounds: int
    setups: int
    evaluates: int
    predicts: int


@dataclass
class PassResult:
    """Timed steps as (start, end) perf_counter intervals."""

    wall_s: float = 0.0
    setups: list[tuple] = field(default_factory=list)
    epochs: list[tuple] = field(default_factory=list)
    train: list[tuple] = field(default_factory=list)  # train calls less blocks
    queries_used: int = 0
    evals: list[tuple] = field(default_factory=list)
    eval_queries: int = 0
    predicts: list[tuple] = field(default_factory=list)
    samples: list[tuple] = field(default_factory=list)  # (query, seed, trace)
    kg: object = None
    split: object = None
    model: object = None  # the model trained by the last round


def generate(workload: Workload, seed: int, data_dir: Path) -> Path:
    synth.generate(synth.SynthSpec.from_dict(workload.spec), seed, data_dir)
    return data_dir


def _set_up(data_dir: Path, config: TrainConfig):
    kg, split = kg_module.load_dataset(
        data_dir / "relational.tsv", data_dir / "train.tsv",
        data_dir / "valid.tsv", data_dir / "test.tsv")
    stats = AttributeStats.from_triples(split.train, kg.n_attributes)
    means = attribute_means(split.train, kg.n_attributes)
    model = Model(kg.n_relations, kg.n_attributes, stats, means, config)
    return kg, split, model


def _train_split(workload: Workload, kg, split, model, seed: int) -> DatasetSplit:
    """The training queries one train call uses: all, or a seeded subset."""
    rows = [(q.entity, q.attribute, q.target)
            for q in training.scoped_queries(kg, split.train, model)]
    if workload.train_queries is not None and workload.train_queries < len(rows):
        keep = np.random.default_rng(seed).permutation(len(rows))[:workload.train_queries]
        rows = [rows[i] for i in sorted(keep)]
    return DatasetSplit(train=rows, valid=split.valid if workload.validate else [],
                        test=[])


def run_pass(workload: Workload, data_dir: Path, plan: Plan, tally: Tally,
             seed: int) -> PassResult:
    """Run the plan's rounds; checks happen later, outside the timed pass."""
    config = TrainConfig.from_dict(workload.config)
    out = PassResult()
    started = time.perf_counter()
    rounds = 0
    while rounds < plan.rounds or time.perf_counter() - started < plan.seconds:
        rounds += 1
        out.kg, out.split, untrained = _set_up(data_dir, config)
        kg = out.kg
        eval_triples = getattr(out.split, workload.eval_split)
        n_eval = len(training.scoped_queries(kg, eval_triples, untrained))
        queries = training.scoped_queries(kg, out.split.test, untrained)
        train_from = None  # start of the train call's stretch since the last block

        def block(epoch=None) -> None:
            # the untrained seeded model: its cost does not depend on how a
            # training run happened to turn out
            nonlocal train_from
            if epoch is not None:
                out.epochs.append((train_from, time.perf_counter()))
                out.train.append(out.epochs[-1])
            for _ in range(plan.setups):
                t0 = time.perf_counter()
                _set_up(data_dir, config)
                out.setups.append((t0, time.perf_counter()))
            for _ in range(plan.evaluates):
                t0 = time.perf_counter()
                report = evaluation.evaluate(untrained, kg, eval_triples, seed=config.seed)
                out.evals.append((t0, time.perf_counter()))
                out.eval_queries += report.n_queries
                tally.record(checks.report_problems(report, n_eval))
            for _ in range(plan.predicts):
                i = len(out.samples)
                query, pseed = queries[i % len(queries)], i // len(queries)
                t0 = time.perf_counter()
                trace = untrained.predict(kg, query, seed=pseed)
                out.predicts.append((t0, time.perf_counter()))
                out.samples.append((query, pseed, trace))
            train_from = time.perf_counter()

        block()
        out.model = Model(kg.n_relations, kg.n_attributes, untrained.stats,
                          untrained.means, config)
        train_split = _train_split(workload, kg, out.split, out.model, seed)
        train_from = time.perf_counter()
        try:
            history = training.train(out.model, kg, train_split, progress=block).history
        except training.TrainingFault:
            tally.record(["TrainingFault"])
            history = []
        out.train.append((train_from, time.perf_counter()))
        for epoch in history:
            tally.record(checks.epoch_problems(epoch))
            out.queries_used += epoch.queries_used
    out.wall_s = time.perf_counter() - started
    return out


def check_predictions(workload: Workload, result: PassResult, data_dir: Path,
                      tally: Tally) -> None:
    """Check every prediction, and repeat a few on a newly built seeded model."""
    kg, _, model = _set_up(data_dir, TrainConfig.from_dict(workload.config))
    oracle = checks.GraphOracle(kg, data_dir, kg_module.INVERSE_SUFFIX)
    for query, _, trace in result.samples:
        tally.record(checks.prediction_problems(trace, query, oracle))
    for query, pseed, trace in result.samples[:REPEAT_CHECKS]:
        tally.record(checks.repeat_problems(trace, model.predict(kg, query, seed=pseed)))


def end_to_end_metrics(result: PassResult, speed: Speedometer) -> dict[str, float]:
    """Times in reference seconds (see `speed`); medians over the whole run."""
    epochs = speed.scaled(result.epochs)
    latencies_ms = speed.scaled(result.predicts) * 1000.0
    return {
        "setup_s": float(np.median(speed.scaled(result.setups))),
        "epoch_s": float(np.median(epochs)) if len(epochs) else math.nan,
        "train_qps": result.queries_used / float(np.sum(speed.scaled(result.train))),
        "predict_p50_ms": float(np.median(latencies_ms)),
        "predict_p95_ms": float(np.percentile(latencies_ms, 95)),
        "eval_qps": result.eval_queries / float(np.sum(speed.scaled(result.evals))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer: Tracer, traced: PassResult, overhead: float,
                      test_mae: float, baseline_mae: float) -> dict[str, float]:
    own, inclusive, top = tracer.times()
    counts = tracer.counts
    wall = traced.wall_s

    def per(numerator: str, denominator: str | int) -> float:
        base = counts[denominator] if isinstance(denominator, str) else denominator
        return counts[numerator] / base if base else 0.0

    forwards_used = counts["model.forward_calls"] - counts["model.fallbacks"]
    metrics = {
        "kg.load_s": own["kg.load"],
        "retrieval.sample_tree_s": own["retrieval.sample_tree"],
        "retrieval.calls": counts["retrieval.calls"],
        "retrieval.chains_per_tree": per("retrieval.chains", "retrieval.calls"),
        "retrieval.yield": per("retrieval.chains", "retrieval.walks"),
        "filter.select_s": own["filter.select"],
        "filter.chains_in": per("filter.chains_in", "filter.calls"),
        "filter.chains_kept": per("filter.chains_kept", "filter.calls"),
        "filter.patterns_per_tree": per("filter.patterns", "filter.calls"),
        "encoder.encode_s": own["encoder.encode"],
        "encoder.calls_per_forward": per("encoder.calls", forwards_used),
        "encoder.affine_s": own["encoder.affine"],
        "reasoner.weight_s": own["reasoner.weight"],
        "reasoner.project_s": own["reasoner.project"],
        "model.forward_self_s": own["model.forward"],
        "model.predict_self_s": own["model.predict"],
        "model.forward_calls": counts["model.forward_calls"],
        "model.fallback_ratio": per("model.fallbacks", "model.forward_calls"),
        "autodiff.backward_s": own["autodiff.backward"],
        "autodiff.backward_calls": counts["autodiff.backward_calls"],
        "autodiff.tape_nodes_per_query": per("autodiff.tape_nodes", "autodiff.loss_terms"),
        "autodiff.adam_step_s": own["autodiff.adam_step"],
        "autodiff.clip_s": own["autodiff.clip"],
        "training.train_self_s": (own["training.train"] + own["training.loss_term"]
                                  + own["training.validation"]),
        "training.validation_s": inclusive["training.validation"],
        "evaluation.evaluate_s": inclusive["evaluation.evaluate"],
        "evaluation.test_mae_norm": test_mae,
        "evaluation.baseline_mae_norm": baseline_mae,
        "trace.overhead_ratio": overhead,
        "trace.wall_s": wall,
        "trace.glue_s": wall - top,
        "trace.bookkeeping_s": own[BOOKKEEPING],
        "trace.missing": len(tracer.missing),
        "share.glue": (wall - top) / wall,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = sum(
            t for name, t in own.items() if name.split(".")[0] == layer) / wall
    return metrics


@dataclass
class RunResult:
    metrics: dict[str, float]
    tally: Tally
    missing: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> RunResult:
    """Generate the workload's inputs from `seed`, measure, and check."""
    data_dir = generate(workload, seed, work_dir / "data")
    tally = Tally()
    if not trace:
        plan = Plan(seconds, workload.min_rounds, workload.setups, workload.evaluates,
                    workload.predicts)
        with Speedometer() as speed:
            result = run_pass(workload, data_dir, plan, tally, seed)
        check_predictions(workload, result, data_dir, tally)
        return RunResult(end_to_end_metrics(result, speed), tally)

    # plain and traced passes alternate, so that a slow stretch of the
    # machine does not land on one side of the overhead ratio only
    plan = Plan(0.0, 1, 1, 1, workload.trace_predicts)
    plain = [run_pass(workload, data_dir, plan, Tally(), seed)]
    with Tracer() as tracer:
        traced = run_pass(workload, data_dir, plan, tally, seed)
    plain.append(run_pass(workload, data_dir, plan, Tally(), seed))
    with Tracer():
        traced_again = run_pass(workload, data_dir, plan, Tally(), seed)
    overhead = (traced.wall_s + traced_again.wall_s) / sum(p.wall_s for p in plain)
    check_predictions(workload, traced, data_dir, tally)
    # quality diagnostics of the model the traced round trained; not gated
    triples = getattr(traced.split, workload.eval_split)
    report = evaluation.evaluate(traced.model, traced.kg, triples,
                                 seed=traced.model.config.seed)
    baseline = evaluation.train_mean_baseline(traced.model, traced.kg, triples)
    metrics = per_layer_metrics(tracer, traced, overhead, report.average_mae_norm,
                                baseline.average_mae_norm)
    return RunResult(metrics, tally, tracer.missing, tracer.spans)
