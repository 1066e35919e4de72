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
from .retrieval import TreeOfChains


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


def chain_scores(toc: TreeOfChains, embeddings: FilterEmbeddings,
                 lam: float = 0.5) -> np.ndarray:
    """Affinity score of every chain of the set against its query attribute.

    Every row folds at once over its relation ids, the -1 pads indexing an
    appended origin row; that is exact because x (+) 0 == x.
    """
    c, rel, att = embeddings.curvature, embeddings.relations.data, embeddings.attributes.data
    folded = fold_relations(np.concatenate([rel, np.zeros((1, rel.shape[1]))])[toc.relations], c)
    aq = att[toc.query.attribute]
    d_attr, d_fold = distance_raw(att[toc.source_attribute], aq, c), distance_raw(folded, aq, c)
    return lam * d_attr + (1.0 - lam) * d_fold


def top_k_order(scores: np.ndarray, toc: TreeOfChains, k: int,
                keep_largest: bool = False) -> np.ndarray:
    """Row indices of the k best chains, best first, with deterministic ties
    (one stable sort on score, length, entity path, relations, source
    attribute)."""
    sign = -1.0 if keep_largest else 1.0
    # np.lexsort sorts by its last key first
    keys = ([toc.source_attribute] + list(toc.relations.T[::-1])
            + list(toc.entity_path.T[::-1]) + [toc.lengths, sign * scores])
    return np.lexsort(keys)[:k]


def select_top_k(toc: TreeOfChains, embeddings: FilterEmbeddings, k: int, lam: float = 0.5,
                 keep_largest: bool = False) -> TreeOfChains:
    """The k best-scoring chains, best first, with their scores."""
    scores = chain_scores(toc, embeddings, lam)
    order = top_k_order(scores, toc, k, keep_largest)
    return toc.take(order, scores[order])


def select_random_k(toc: TreeOfChains, k: int, seed: int) -> TreeOfChains:
    """Uniform selection with zero scores (the filter-off variant)."""
    idx = np.random.default_rng(seed).permutation(len(toc))[:k]
    return toc.take(idx, np.zeros(len(idx)))
