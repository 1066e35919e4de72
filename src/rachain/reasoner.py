"""Per-chain value projection and attention-weighted aggregation.

Each selected chain proposes a value for the query attribute by transforming
its source value in normalized space (translation, scaling, both, or a direct
readout), then a second transformer attends across the chain set (no
positional encoding; a learned length embedding is added instead) and a
masked softmax turns its outputs into mixture weights. The chain sets of a
mini-batch run as one (B, k, dim) pass whose key mask hides the pad slots of
smaller sets. The prediction is the weight-averaged proposal (`aggregate`),
the one sum training optimizes and `Predictions` reports, denormalized
under the query attribute's training scale. A batch's results are one
`Predictions` record of arrays and the used chains' `TreeOfChains`;
`Predictions.trace(i)` builds the trace of the one query that is shown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    add,
    clip,
    linear,
    mul,
    relu,
    reshape,
    softmax,
    take_rows,
    tensor_sum,
)
from .config import PROJECTION_MODES
from .encoder import TransformerParams, _normal, transformer_stack
from .kg import AttributeStats, Query
from .retrieval import RAChain, TreeOfChains, chain_lengths, distinct_rows


@dataclass
class HeadParams:
    """Small readout d -> 64 -> 1; opens at a constant via zero final weights."""

    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, tag: str, bias_init: float,
               hidden: int = 64):
        return cls(
            w1=Parameter(_normal(rng, (dim, hidden), 0.05), name=f"{tag}.w1"),
            b1=Parameter(np.zeros(hidden), name=f"{tag}.b1"),
            w2=Parameter(np.zeros((hidden, 1)), name=f"{tag}.w2"),
            b2=Parameter(np.full(1, bias_init), name=f"{tag}.b2"),
        )

    def __call__(self, x: Tensor) -> Tensor:
        m = x.shape[0]
        return reshape(linear(relu(linear(x, self.w1, self.b1)), self.w2, self.b2), (m,))


@dataclass
class ProjectionHeads:
    alpha: HeadParams | None = None
    beta: HeadParams | None = None
    direct: HeadParams | None = None

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, mode: str):
        if mode not in PROJECTION_MODES:
            raise ValueError(f"unknown projection mode {mode!r}; pick from {PROJECTION_MODES}")
        heads = cls()
        if mode in ("scaling", "combined"):
            heads.alpha = HeadParams.create(rng, dim, "proj.alpha", bias_init=1.0)
        if mode in ("translation", "combined"):
            heads.beta = HeadParams.create(rng, dim, "proj.beta", bias_init=0.0)
        if mode == "direct":
            heads.direct = HeadParams.create(rng, dim, "proj.direct", bias_init=0.5)
        return heads


def project_values(transferred: Tensor, source_norm: np.ndarray,
                   heads: ProjectionHeads) -> Tensor:
    """Per-chain proposals in normalized space, clamped to [0, 1]: the
    direct head's readout if there is one, else alpha * (n + beta) over the
    source values n, a missing head left out of the formula."""
    if heads.direct is not None:
        return clip(heads.direct(transferred), 0.0, 1.0)
    alpha = None if heads.alpha is None else heads.alpha(transferred)
    out = Tensor(np.asarray(source_norm, dtype=np.float64))
    if heads.beta is not None:
        out = add(out, heads.beta(transferred))
    if alpha is not None:
        out = mul(alpha, out)
    return clip(out, 0.0, 1.0)


@dataclass
class TreeformerParams:
    length_table: Parameter  # (max_hops, dim), row length-1
    stack: TransformerParams
    w_out: Parameter

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_layers: int, heads: int,
               max_hops: int):
        return cls(
            length_table=Parameter(_normal(rng, (max_hops, dim)), name="tree.lengths"),
            stack=TransformerParams.create(rng, dim, n_layers, heads, tag="tree"),
            w_out=Parameter(_normal(rng, (dim, 1), 0.05), name="tree.w_out"),
        )


def weight_chains(chain_reps: Tensor, lengths: np.ndarray, params: TreeformerParams,
                  key_mask: np.ndarray | None = None) -> Tensor:
    """Attention weights (..., k) over chain sets of k slots, summing to 1
    over each set.

    chain_reps is (..., k, dim) and lengths (..., k); key_mask (..., k),
    when given, marks the real chains, and the other slots get weight
    exactly 0. Chains of every length sit in one set, told apart by a
    learned length embedding. Permuting the chains of a set permutes its
    weights identically (the stack sees the chains as a set).
    """
    lengths = np.asarray(lengths)
    x = add(chain_reps, take_rows(params.length_table, lengths - 1))
    out = transformer_stack_rows(x, params, key_mask)
    logits = reshape(linear(out, params.w_out), lengths.shape)
    return softmax(logits, mask=key_mask)


def transformer_stack_rows(x: Tensor, params: TreeformerParams,
                           key_mask: np.ndarray | None = None) -> Tensor:
    """Run the treeformer stack over chain sets x (..., k, dim), each set
    attending only to its unmasked slots."""
    k, dim = x.shape[-2:]
    mask = None if key_mask is None else key_mask.reshape(-1, k)
    out = transformer_stack(reshape(x, (-1, k, dim)), params.stack, key_mask=mask)
    return reshape(out, x.shape)


def aggregate(omega: Tensor, proposals: Tensor) -> Tensor:
    """Weighted mixture of each set's proposals over the last axis
    (normalized space)."""
    return tensor_sum(mul(omega, proposals), axis=-1)


# ---------------------------------------------------------------------------
# explainability


@dataclass(slots=True)
class ChainContribution:
    chain: RAChain
    weight: float
    proposal_norm: float
    proposal_value: float


@dataclass
class PredictionTrace:
    query: Query
    predicted_norm: float
    predicted_value: float
    contributions: list[ChainContribution] = field(default_factory=list)
    fallback: str | None = None


@dataclass
class Predictions:
    """Predictions for n queries as arrays. Query i used tree i of `chains`
    (no rows on a fallback to its attribute's training mean); their weights
    and normalized proposals, in row order, are omega and proposals over
    chains.offsets[i]:chains.offsets[i + 1]."""

    chains: TreeOfChains         # n trees
    predicted_norm: np.ndarray   # (n,)
    predicted_value: np.ndarray  # (n,)
    fallback: np.ndarray         # (n,) bool
    omega: np.ndarray            # (len(chains),)
    proposals: np.ndarray        # (len(chains),)
    stats: AttributeStats

    def __len__(self) -> int:
        return len(self.chains.queries)

    @classmethod
    def concatenate(cls, parts: list["Predictions"]) -> "Predictions":
        """The predictions of `parts` (at least one) one after another."""
        arrays = [np.concatenate([getattr(p, name) for p in parts]) for name in
                  ("predicted_norm", "predicted_value", "fallback", "omega", "proposals")]
        return cls(TreeOfChains.concatenate([p.chains for p in parts]), *arrays, parts[0].stats)

    def trace(self, i: int) -> PredictionTrace:
        """Query i's trace: its used chains, largest weight first."""
        toc = self.chains if len(self) == 1 else self.chains.trees([i])  # one query: no gather
        used, query = slice(*self.chains.offsets[i:i + 2]), toc.queries[0]
        omega, proposals = self.omega[used], self.proposals[used]
        # a fallback query's attribute may have no scale to denormalize with
        values = (self.stats.denormalize(query.attribute, proposals).tolist()
                  if len(toc) else [])
        contributions = [ChainContribution(*row) for row in zip(
            toc.chains, omega.tolist(), proposals.tolist(), values)]
        contributions.sort(key=lambda c: -c.weight)
        return PredictionTrace(query, float(self.predicted_norm[i]),
                               float(self.predicted_value[i]), contributions,
                               "attribute-mean" if self.fallback[i] else None)


def top_patterns(predictions: Predictions) -> list[tuple[tuple, float, int]]:
    """Chain patterns (source attribute, relations) ranked by total weight,
    ties in first-seen order. Chains are taken query by query and each
    query's by descending weight (stable), the order the totals add up in."""
    if not predictions.omega.size:
        return []
    chains = predictions.chains
    order = np.lexsort((-predictions.omega, chains.tree))
    src, relations = chains.source_attribute[order], chains.relations[order]
    first, inverse = distinct_rows([src, *relations.T])
    totals = np.bincount(inverse, weights=predictions.omega[order])
    ranked = np.lexsort((first, -totals))
    rows, lengths = first[ranked], chain_lengths(relations)
    return [((a, tuple(rels[:n])), w, c) for a, rels, n, w, c in zip(
        src[rows].tolist(), relations[rows].tolist(), lengths[rows].tolist(),
        totals[ranked].tolist(), np.bincount(inverse)[ranked].tolist())]


def format_pattern_report(patterns, relation_names: list[str],
                          attribute_names: list[str], limit: int = 20) -> str:
    lines = [f"{'total weight':>12}  {'chains':>7}  pattern"]
    for pat, w, n in patterns[:limit]:
        src, rels = pat
        path = " -> ".join(relation_names[r] for r in rels)
        lines.append(f"{w:>12.4f}  {n:>7}  [{attribute_names[src]}] {path}")
    return "\n".join(lines) + "\n"
