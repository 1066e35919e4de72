"""Evaluation: per-attribute error metrics, the train-mean baseline, the
component-ablation harness, a composition audit of the chain filter, and the
chain-pattern explanation (`explain`).

Every report groups per-query arrays by attribute id, in ascending order.
Native metrics (MAE, RMSE) are in each attribute's own units. The averaged
metrics normalize every error by the attribute's training span first and then
weight each attribute equally, so wide-range attributes cannot drown out
narrow ones. Predictions and the filter audit run one chunk of
config.batch_size queries at a time: one retrieval, one selection and (for
predictions) one forward per chunk. Query i is seeded from `seed_for`
channel 3 (evaluate), 4 and 5 (audit retrieval, selection) or 6 (explain).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .kg import AttributeStats, DatasetSplit, KnowledgeGraph, Query
from .model import Model
from .reasoner import top_patterns
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


def _attributes(queries: list[Query]) -> np.ndarray:
    return np.array([q.attribute for q in queries], dtype=np.int64)


def _report(kg: KnowledgeGraph, stats: AttributeStats, queries: list[Query],
            predicted, fallback, skipped: list[str]) -> MetricsReport:
    """Score predicted[i] against queries[i].target; fallback is a bool per query."""
    attrs = _attributes(queries)
    errors = np.abs(np.asarray(predicted, dtype=np.float64) - [q.target for q in queries])
    rows = []
    for attr in np.unique(attrs):
        mask = attrs == attr
        errs = errors[mask]
        span = float(stats.maxs[attr] - stats.mins[attr])
        mae, rmse = np.mean(errs), np.sqrt(np.mean(errs ** 2))
        rows.append(AttributeMetrics(
            attribute=int(attr), name=kg.attribute_names[attr], count=len(errs),
            mae=float(mae), rmse=float(rmse),
            mae_norm=float(mae / span), rmse_norm=float(rmse / span),
            fallbacks=int(np.count_nonzero(fallback[mask]))))
    avg_mae = float(np.mean([r.mae_norm for r in rows])) if rows else float("nan")
    avg_rmse = float(np.mean([r.rmse_norm for r in rows])) if rows else float("nan")
    return MetricsReport(rows=rows, average_mae_norm=avg_mae,
                         average_rmse_norm=avg_rmse, n_queries=len(queries),
                         skipped_attributes=skipped)


def _split_queries(kg: KnowledgeGraph, model: Model, triples) -> tuple[list[Query], list[str]]:
    """The scoped queries, and the split's attributes that lack a value scale."""
    queries = scoped_queries(kg, triples, model)
    unusable = np.unique(triples["attribute"][~model.stats.usable(triples["attribute"])])
    return queries, [kg.attribute_names[a] for a in unusable.tolist()]


def evaluate(model: Model, kg: KnowledgeGraph, triples, seed: int = 0) -> MetricsReport:
    """Predict every query in `triples` (`Model.predict_batch`, query i with
    channel-3 seed i) and score against its held-out value."""
    queries, skipped = _split_queries(kg, model, triples)
    predictions = model.predict_batch(kg, queries, seed_for(seed, 3, 0, range(len(queries))))
    return _report(kg, model.stats, queries, predictions.predicted_value,
                   predictions.fallback, skipped)


def train_mean_baseline(model: Model, kg: KnowledgeGraph, triples) -> MetricsReport:
    """Score the constant predictor that answers each attribute's training mean."""
    queries, skipped = _split_queries(kg, model, triples)
    return _report(kg, model.stats, queries, model.means[_attributes(queries)],
                   np.zeros(len(queries), dtype=bool), skipped)


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
# filter composition audit, and explanation


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
    queries = scoped_queries(kg, triples, model)
    # per query: tree chains, kept chains, and those sourced from its attribute
    counts = np.zeros((len(queries), 4), dtype=np.int64)
    for c in model.chunks(len(queries)):
        chunk = range(len(queries))[c]
        toc = model.retrieve(kg, queries[c], seed_for(seed, 4, 0, chunk))
        etoc = model.select(toc, seed_for(seed, 5, 0, chunk))
        for j, t in enumerate((toc, etoc)):  # tree, then kept: columns j and 2 + j
            same = t.source_attribute == t.query_attributes[t.tree]
            counts[c, j] = t.sizes
            counts[c, 2 + j] = np.bincount(t.tree[same], minlength=len(chunk))
    attrs = _attributes(queries)
    audits = []
    for attr in np.unique(attrs):
        mask = attrs == attr
        tree, kept, tree_same, kept_same = map(int, counts[mask].sum(axis=0))
        audits.append(FilterAudit(
            attribute=int(attr), name=kg.attribute_names[attr],
            queries=int(np.count_nonzero(mask)),
            tree_chains=tree, kept_chains=kept,
            tree_same_attribute=tree_same / max(tree, 1),
            kept_same_attribute=kept_same / max(kept, 1)))
    return audits


def format_filter_audit(audits: list[FilterAudit]) -> str:
    lines = [f"{'attribute':<28} {'queries':>7} {'tree':>8} {'kept':>8} "
             f"{'same-attr(tree)':>15} {'same-attr(kept)':>15}"]
    for a in audits:
        lines.append(f"{a.name:<28} {a.queries:>7} {a.tree_chains:>8} {a.kept_chains:>8} "
                     f"{a.tree_same_attribute:>15.3f} {a.kept_same_attribute:>15.3f}")
    return "\n".join(lines) + "\n"


def explain(model: Model, kg: KnowledgeGraph, triples,
            seed: int = 0) -> list[tuple[tuple, float, int]]:
    """Chain patterns ranked by total attention weight over the scoped
    queries of `triples` (`reasoner.top_patterns`)."""
    queries = scoped_queries(kg, triples, model)
    if not queries:
        raise ValueError("no queries to explain")
    return top_patterns(model.predict_batch(kg, queries,
                                            seed_for(seed, 6, 0, range(len(queries)))))
