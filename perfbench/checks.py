"""Correctness checks; each returns the problems it found (empty when correct).

Chains are checked against the generated TSV files rather than against the
program's own graph structures, so the check stays independent of how the
graph is stored.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


class GraphOracle:
    """Edges and training facts of the generated dataset, in the graph's ids."""

    def __init__(self, kg, data_dir: Path, inverse_suffix: str):
        ent, rel, att = kg.entity_index, kg.relation_index, kg.attribute_index
        self.edges: set[tuple[int, int, int]] = set()
        for line in (data_dir / "relational.tsv").read_text(encoding="utf-8").splitlines():
            h, r, t = line.split("\t")
            self.edges.add((ent[h], rel[r], ent[t]))
            self.edges.add((ent[t], rel[r + inverse_suffix], ent[h]))
        self.facts: set[tuple[int, int, float]] = set()
        for line in (data_dir / "train.tsv").read_text(encoding="utf-8").splitlines():
            e, a, v = line.split("\t")
            self.facts.add((ent[e], att[a], float(v)))

    def chain_problems(self, chain, query) -> list[str]:
        path = chain.entity_path
        if path[-1] != query.entity or chain.query_attribute != query.attribute:
            return ["chain does not end at the query"]
        if len(set(path)) != len(path) or len(path) != len(chain.relations) + 1:
            return ["chain path is not simple"]
        for i, r in enumerate(chain.relations):
            if (path[i], r, path[i + 1]) not in self.edges:
                return ["chain hop is not a graph edge"]
        if (path[0], chain.source_attribute, chain.source_value) not in self.facts:
            return ["chain source is not a training fact"]
        return []


def prediction_problems(trace, query, oracle: GraphOracle) -> list[str]:
    """Finite, inside [0, 1], omega sums to 1, value is sum(omega * proposal),
    and every contributing chain is a valid chain for the query."""
    norm = trace.predicted_norm
    if not (math.isfinite(norm) and math.isfinite(trace.predicted_value)):
        return ["prediction is not finite"]
    problems = []
    if not -TOLERANCE <= norm <= 1.0 + TOLERANCE:
        problems.append("predicted_norm outside [0, 1]")
    if trace.contributions:
        omega = np.array([c.weight for c in trace.contributions])
        proposals = np.array([c.proposal_norm for c in trace.contributions])
        if abs(omega.sum() - 1.0) > TOLERANCE:
            problems.append("omega does not sum to 1")
        if abs(float(np.sum(omega * proposals)) - norm) > TOLERANCE:
            problems.append("prediction differs from sum(omega * proposal)")
        for c in trace.contributions:
            chain_issue = oracle.chain_problems(c.chain, query)
            if chain_issue:
                problems += chain_issue
                break
    elif trace.fallback is None:
        problems.append("no contributions and no fallback")
    return problems


def _fingerprint(trace) -> tuple:
    return (trace.predicted_norm, trace.predicted_value, trace.fallback,
            tuple((c.chain, c.weight, c.proposal_norm) for c in trace.contributions))


def repeat_problems(first, second) -> list[str]:
    """A repeat prediction with the same seed must be bit-identical."""
    return [] if _fingerprint(first) == _fingerprint(second) else [
        "repeat prediction is not bit-identical"]


def epoch_problems(stats) -> list[str]:
    return [] if math.isfinite(stats.train_loss) else ["non-finite epoch loss"]


def report_problems(report, expected_queries: int) -> list[str]:
    problems = []
    if report.n_queries != expected_queries:
        problems.append("evaluate scored a different number of queries")
    if not math.isfinite(report.average_mae_norm):
        problems.append("evaluate MAE is not finite")
    return problems
