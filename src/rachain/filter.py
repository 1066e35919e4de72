"""Hyperbolic chain filter.

Relations and attributes own points of a shared Poincare ball. A chain folds
into one point by Mobius-adding its relation embeddings left to right; its
affinity score mixes two geodesic distances to the query attribute,

    score = lam * d(source_attr, query_attr) + (1 - lam) * d(fold, query_attr).

Scores are distances, so lower means more relevant and selection keeps the
k smallest by default (keep_largest flips the orientation). Ties break on
(length, entity path, relations, source attribute) so selection is a total
order and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter
from .hyperbolic import distance_raw, mobius_add_raw, random_ball_rows
from .kg import Query
from .retrieval import RAChain, TreeOfChains


@dataclass
class FilterEmbeddings:
    relations: Parameter  # (n_relations, dim), rows inside the ball
    attributes: Parameter  # (n_attributes, dim)
    curvature: float = 1.0

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_relations: int,
        n_attributes: int,
        dim: int,
        curvature: float = 1.0,
        init_radius: float = 0.1,
    ) -> "FilterEmbeddings":
        rel = random_ball_rows(rng, n_relations, dim, curvature, init_radius)
        att = random_ball_rows(rng, n_attributes, dim, curvature, init_radius)
        return cls(
            relations=Parameter(rel, name="filter.relations", ball=curvature),
            attributes=Parameter(att, name="filter.attributes", ball=curvature),
            curvature=curvature,
        )

    @property
    def dim(self) -> int:
        return self.relations.data.shape[1]


def fold_relations(rel_rows: np.ndarray, curvature: float = 1.0) -> np.ndarray:
    """Left fold by Mobius addition along axis -2: ((r1 (+) r2) (+) r3) ..."""
    acc = rel_rows[..., 0, :]
    for i in range(1, rel_rows.shape[-2]):
        acc = mobius_add_raw(acc, rel_rows[..., i, :], curvature)
    return acc


def embed_chain(chain: RAChain, embeddings: FilterEmbeddings) -> np.ndarray:
    rows = embeddings.relations.data[list(chain.relations)]
    return fold_relations(rows[None], embeddings.curvature)[0]


def affinity_score(
    chain: RAChain, query_attribute: int, embeddings: FilterEmbeddings, lam: float = 0.5
) -> float:
    aq = embeddings.attributes.data[query_attribute]
    ap = embeddings.attributes.data[chain.source_attribute]
    hc = embed_chain(chain, embeddings)
    c = embeddings.curvature
    d_attr = float(distance_raw(ap, aq, c))
    d_fold = float(distance_raw(hc, aq, c))
    return lam * d_attr + (1.0 - lam) * d_fold


def chain_scores(
    chains: list[RAChain],
    query_attribute: int,
    embeddings: FilterEmbeddings,
    lam: float = 0.5,
) -> np.ndarray:
    """Affinity score per chain; chains sharing a pattern share one computation.

    All patterns fold at once over relation rows left-padded with the origin,
    which is exact because 0 (+) x == x.
    """
    if not chains:
        return np.empty(0)
    pattern_slots: dict[tuple, list[int]] = {}
    for i, ch in enumerate(chains):
        pattern_slots.setdefault(ch.pattern, []).append(i)

    rel_table = embeddings.relations.data
    pad_row = rel_table.shape[0]
    longest = max(len(rels) for _, rels in pattern_slots)
    rel_ids = np.full((len(pattern_slots), longest), pad_row, dtype=np.int64)
    for i, (_, rels) in enumerate(pattern_slots):
        rel_ids[i, longest - len(rels):] = rels
    src_ids = np.array([src for src, _ in pattern_slots], dtype=np.int64)

    c = embeddings.curvature
    aq = embeddings.attributes.data[query_attribute]
    padded = np.concatenate([rel_table, np.zeros((1, rel_table.shape[1]))])
    folded = fold_relations(padded[rel_ids], c)
    d_attr = distance_raw(embeddings.attributes.data[src_ids], aq, c)
    d_fold = distance_raw(folded, aq, c)
    pattern_score = lam * d_attr + (1.0 - lam) * d_fold

    scores = np.empty(len(chains))
    for slots, s in zip(pattern_slots.values(), pattern_score):
        scores[slots] = s
    return scores


@dataclass
class EnhancedToC:
    """The filtered tree: selected chains with their scores, best first."""

    query: Query
    chains: list[RAChain]
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.chains)


def top_k_order(
    scores: np.ndarray, chains: list[RAChain], k: int, keep_largest: bool = False
) -> list[int]:
    """Indices of the k best chains, best first, with deterministic ties."""
    sign = -1.0 if keep_largest else 1.0

    def key(i: int):
        ch = chains[i]
        return (sign * scores[i], ch.length, ch.entity_path, ch.relations,
                ch.source_attribute)

    return sorted(range(len(chains)), key=key)[:k]


def select_top_k(
    toc: TreeOfChains,
    embeddings: FilterEmbeddings,
    k: int,
    lam: float = 0.5,
    keep_largest: bool = False,
) -> EnhancedToC:
    if toc.is_empty:
        return EnhancedToC(toc.query, [], np.empty(0))
    scores = chain_scores(toc.chains, toc.query.attribute, embeddings, lam)
    order = top_k_order(scores, toc.chains, k, keep_largest)
    return EnhancedToC(toc.query, [toc.chains[i] for i in order], scores[order])


def select_random_k(toc: TreeOfChains, k: int, seed: int) -> EnhancedToC:
    """Uniform selection without scores (the filter-off variant)."""
    if toc.is_empty:
        return EnhancedToC(toc.query, [], np.empty(0))
    rng = np.random.default_rng(seed)
    n = len(toc.chains)
    idx = rng.permutation(n)[: min(k, n)]
    return EnhancedToC(toc.query, [toc.chains[i] for i in idx], np.zeros(len(idx)))
