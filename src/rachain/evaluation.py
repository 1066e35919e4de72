"""Evaluation: per-attribute error metrics, the train-mean baseline, the
component-ablation harness, and a composition audit of the chain filter.

Native metrics (MAE, RMSE) are in each attribute's own units. The averaged
metrics normalize every error by the attribute's training span first and then
weight each attribute equally, so wide-range attributes cannot drown out
narrow ones. Predictions and the filter audit run one chunk of
config.batch_size queries at a time: one retrieval, one selection and (for
predictions) one forward per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .kg import DatasetSplit, KnowledgeGraph, Query
from .model import Model
from .training import TrainResult, scoped_queries, seed_for, train


@dataclass
class AttributeMetrics:
    attribute: int
    name: str
    count: int
    mae: float
    rmse: float
    mae_norm: float
    rmse_norm: float
    fallbacks: int


@dataclass
class MetricsReport:
    rows: list[AttributeMetrics]
    average_mae_norm: float
    average_rmse_norm: float
    n_queries: int
    skipped_attributes: list[str] = field(default_factory=list)


def _report_from_errors(kg: KnowledgeGraph, per_attr: dict[int, list[tuple[float, int]]],
                        spans: dict[int, float], skipped: list[str]) -> MetricsReport:
    rows = []
    for attr in sorted(per_attr):
        pairs = per_attr[attr]
        errs = np.array([e for e, _ in pairs])
        span = spans[attr]
        rows.append(AttributeMetrics(
            attribute=attr,
            name=kg.attribute_names[attr],
            count=len(errs),
            mae=float(np.mean(errs)),
            rmse=float(np.sqrt(np.mean(errs ** 2))),
            mae_norm=float(np.mean(errs) / span),
            rmse_norm=float(np.sqrt(np.mean(errs ** 2)) / span),
            fallbacks=sum(f for _, f in pairs),
        ))
    avg_mae = float(np.mean([r.mae_norm for r in rows])) if rows else float("nan")
    avg_rmse = float(np.mean([r.rmse_norm for r in rows])) if rows else float("nan")
    return MetricsReport(rows=rows, average_mae_norm=avg_mae,
                         average_rmse_norm=avg_rmse,
                         n_queries=sum(r.count for r in rows),
                         skipped_attributes=skipped)


def _split_queries(kg: KnowledgeGraph, model: Model, triples) -> tuple[list[Query], list[str]]:
    queries = scoped_queries(kg, triples, model)
    seen = {q.attribute for q in queries}
    all_attrs = {a for _, a, _ in triples}
    skipped = [kg.attribute_names[a] for a in sorted(all_attrs - seen)
               if not model.stats.usable(a)]
    return queries, skipped


def evaluate(model: Model, kg: KnowledgeGraph, triples, seed: int = 0) -> MetricsReport:
    """Predict every query in `triples` (`Model.predict_batch`, query i with
    channel-3 seed i) and score against its held-out value."""
    queries, skipped = _split_queries(kg, model, triples)
    per_attr: dict[int, list[tuple[float, int]]] = {}
    spans: dict[int, float] = {}
    seeds = [seed_for(seed, 3, 0, i) for i in range(len(queries))]
    for q, trace in zip(queries, model.predict_batch(kg, queries, seeds)):
        err = abs(trace.predicted_value - q.target)
        per_attr.setdefault(q.attribute, []).append((err, int(trace.fallback is not None)))
        spans[q.attribute] = float(model.stats.maxs[q.attribute] - model.stats.mins[q.attribute])
    return _report_from_errors(kg, per_attr, spans, skipped)


def train_mean_baseline(model: Model, kg: KnowledgeGraph, triples) -> MetricsReport:
    """Score the constant predictor that answers each attribute's training mean."""
    queries, skipped = _split_queries(kg, model, triples)
    per_attr: dict[int, list[tuple[float, int]]] = {}
    spans: dict[int, float] = {}
    for q in queries:
        err = abs(float(model.means[q.attribute]) - q.target)
        per_attr.setdefault(q.attribute, []).append((err, 0))
        spans[q.attribute] = float(model.stats.maxs[q.attribute] - model.stats.mins[q.attribute])
    return _report_from_errors(kg, per_attr, spans, skipped)


def format_metrics(report: MetricsReport) -> str:
    lines = [f"{'attribute':<28} {'count':>6} {'MAE':>12} {'RMSE':>12} "
             f"{'MAE/span':>10} {'RMSE/span':>10} {'fallback':>8}"]
    for r in report.rows:
        lines.append(f"{r.name:<28} {r.count:>6} {r.mae:>12.4f} {r.rmse:>12.4f} "
                     f"{r.mae_norm:>10.4f} {r.rmse_norm:>10.4f} {r.fallbacks:>8}")
    lines.append("")
    lines.append(f"average normalized MAE  {report.average_mae_norm:.4f}")
    lines.append(f"average normalized RMSE {report.average_rmse_norm:.4f}")
    for name in report.skipped_attributes:
        lines.append(f"skipped {name}: no usable training scale")
    return "\n".join(lines) + "\n"


def metrics_to_csv(report: MetricsReport) -> str:
    lines = ["attribute,count,mae,rmse,mae_norm,rmse_norm,fallbacks"]
    for r in report.rows:
        lines.append(f"{r.name},{r.count},{r.mae:.8f},{r.rmse:.8f},"
                     f"{r.mae_norm:.8f},{r.rmse_norm:.8f},{r.fallbacks}")
    lines.append(f"AVERAGE,{report.n_queries},,,"
                 f"{report.average_mae_norm:.8f},{report.average_rmse_norm:.8f},")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ablations

ABLATIONS = {
    "full": {},
    "no_projection": {"mode": "direct"},
    "no_weighting": {"use_chain_weighting": False},
    "no_filter": {"use_filter": False},
    "no_chain_encoder": {"use_chain_encoder": False},
    "no_numerical_aware": {"use_numerical_aware": False},
}


@dataclass
class AblationOutcome:
    name: str
    report: MetricsReport
    result: TrainResult


def run_ablations(kg: KnowledgeGraph, split: DatasetSplit, base_config: TrainConfig,
                  stats, means, variants=("full", "no_projection", "no_weighting",
                                          "no_filter"),
                  progress=None) -> dict[str, AblationOutcome]:
    """Train one model per variant from the same seed and score the test split."""
    outcomes: dict[str, AblationOutcome] = {}
    for name in variants:
        if name not in ABLATIONS:
            raise ValueError(f"unknown ablation {name!r}; pick from {sorted(ABLATIONS)}")
        overrides = ABLATIONS[name]
        config = TrainConfig(**{**base_config.to_dict(), **overrides})
        model = Model(kg.n_relations, kg.n_attributes, stats, means, config)
        tr = train(model, kg, split, progress=progress)
        report = evaluate(model, kg, split.test, seed=config.seed)
        outcomes[name] = AblationOutcome(name=name, report=report, result=tr)
    return outcomes


# ---------------------------------------------------------------------------
# filter composition audit


@dataclass
class FilterAudit:
    attribute: int
    name: str
    queries: int
    tree_chains: int
    kept_chains: int
    tree_same_attribute: float   # fraction of sampled chains sourced from the
    kept_same_attribute: float   # query's own attribute, before/after filtering


def filter_composition(model: Model, kg: KnowledgeGraph, triples,
                       seed: int = 0) -> list[FilterAudit]:
    """How strongly selection concentrates on same-attribute sources; one
    retrieval and one selection per chunk of config.batch_size queries."""
    queries, _ = _split_queries(kg, model, triples)
    acc: dict[int, dict[str, float]] = {}
    size = model.config.batch_size
    for lo in range(0, len(queries), size):
        chunk = range(lo, min(lo + size, len(queries)))
        tocs = model.retrieve(kg, [queries[i] for i in chunk],
                              [seed_for(seed, 4, 0, i) for i in chunk])
        etocs = model.select(tocs, [seed_for(seed, 5, 0, i) for i in chunk])
        for i, toc, etoc in zip(chunk, tocs, etocs):
            q = queries[i]
            slot = acc.setdefault(q.attribute, {"q": 0, "tree": 0, "kept": 0,
                                                "tree_same": 0, "kept_same": 0})
            slot["q"] += 1
            slot["tree"] += len(toc)
            slot["kept"] += len(etoc)
            slot["tree_same"] += int(np.sum(toc.source_attribute == q.attribute))
            slot["kept_same"] += int(np.sum(etoc.source_attribute == q.attribute))
    audits = []
    for attr in sorted(acc):
        s = acc[attr]
        audits.append(FilterAudit(
            attribute=attr,
            name=kg.attribute_names[attr],
            queries=int(s["q"]),
            tree_chains=int(s["tree"]),
            kept_chains=int(s["kept"]),
            tree_same_attribute=s["tree_same"] / max(s["tree"], 1),
            kept_same_attribute=s["kept_same"] / max(s["kept"], 1),
        ))
    return audits


def format_filter_audit(audits: list[FilterAudit]) -> str:
    lines = [f"{'attribute':<28} {'queries':>7} {'tree':>8} {'kept':>8} "
             f"{'same-attr(tree)':>15} {'same-attr(kept)':>15}"]
    for a in audits:
        lines.append(f"{a.name:<28} {a.queries:>7} {a.tree_chains:>8} {a.kept_chains:>8} "
                     f"{a.tree_same_attribute:>15.3f} {a.kept_same_attribute:>15.3f}")
    return "\n".join(lines) + "\n"
