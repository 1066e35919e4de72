"""Hyperbolic chain filter.

Relations and attributes own points of a shared Poincare ball. A chain folds
into one point by Mobius-adding its relation embeddings left to right; its
affinity score mixes two geodesic distances to the query attribute,

    score = lam * d(source_attr, query_attr) + (1 - lam) * d(fold, query_attr).

Both distances and the fold are functions of inner products alone (see
`hyperbolic`), so `chain_scores` works from the Gram matrix of the
vocabulary rows [relations; attributes; zero] that the call's rows use:
U^2 filter_dim multiply-adds once per call, U the number of those rows (at
most the vocabulary size, and at most hops + 2 per row), then a few dozen
scalar operations per row, with no vector of filter_dim ever formed per
row. A -1 pad reads
the zero row, which leaves the fold's scalars exactly unchanged, as
x (+) 0 == x leaves the point.

Scores are distances, so lower means more relevant and selection keeps the
k smallest. Ties break on (length, entity path, relations, source
attribute) so selection is a total order and reproducible.
`select_top_k_batch` selects for a chunk's record of trees at once: one
score per distinct pattern of the chunk, ranked once as integers, then one
integer sort of (tree, rank) keys whose k-th key per tree is read at the
record's offsets, and one tie-break sort over the rows that can be kept,
with the tree index as the primary key. `select_top_k` is its traced
one-query name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter
from .hyperbolic import gram_distance, mobius_scalars, random_ball_rows
from .retrieval import TreeOfChains, chain_lengths


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


def chain_scores(source_attribute: np.ndarray, relations: np.ndarray, query_attribute,
                 embeddings: FilterEmbeddings, lam: float = 0.5) -> np.ndarray:
    """Affinity score of chain rows (source attribute, -1-padded relations)
    against their query attributes, one per row or one for all rows.

    Both distances and the fold are read from the Gram matrix of the
    vocabulary rows [relations; attributes; zero] that the rows use, built
    once per call by np.einsum, which uses no BLAS: each entry is one sum
    over the coordinates in one order, whichever other rows the matrix
    holds, so the matrix is exactly symmetric, the same at any BLAS thread
    count, and its entries do not depend on the call's other rows. A row
    gathers the block of its ids
    (relations, query attribute, source attribute), a -1 pad reading the
    zero row, and folds as a scalar recursion: with x (+) y = (a x + b y)
    / den (`mobius_scalars`), ||acc||^2 and acc's dot products with the
    row's ids follow from the old ones and the block. A pad leaves them
    unchanged exactly (a = den = 1 and its dot products are 0), as
    x (+) 0 == x does. `gram_distance` then gives both distances. A row's
    score depends only on its own ids, so scoring rows and scoring their
    distinct patterns agree bit for bit.
    """
    c, rel, att = embeddings.curvature, embeddings.relations.data, embeddings.attributes.data
    vocab = np.concatenate([rel, att, np.zeros((1, rel.shape[1]))])
    hops = relations.shape[1]
    q, s = hops, hops + 1
    # each row's vocabulary ids: its relations (a -1 pad, as -1 % V, is the
    # zero row), its query attribute and its source attribute
    ids = np.empty((len(relations), hops + 2), dtype=np.int64)
    np.remainder(relations, len(vocab), out=ids[:, :hops])
    ids[:, q], ids[:, s] = query_attribute, source_attribute
    ids[:, q:] += len(rel)
    # the Gram matrix of the used rows only, ids renumbered into it
    used = np.zeros(len(vocab), dtype=bool)
    used[ids] = True
    ids = (np.cumsum(used) - 1).take(ids)
    vocab = vocab[used]
    n = len(vocab)
    gram = np.einsum("id,jd->ij", vocab, vocab).ravel()
    block = gram.take(ids[:, :, None] * n + ids[:, None])
    # the fold so far, r_1: its squared norm and its dot product with each id
    xx, dots = block[:, 0, 0], block[:, 0]
    for i in range(1, hops):
        xy = dots[:, i]
        a, b, den = mobius_scalars(xx, xy, block[:, i, i], c)
        a /= den
        b /= den
        dots = a[:, None] * dots + b[:, None] * block[:, i]
        xx = a * (a * xx + b * xy) + b * dots[:, i]
    # the source attribute's and the fold's distance to the query attribute
    d_attr, d_fold = gram_distance(np.stack([block[:, s, s], xx]),
                                   np.stack([block[:, s, q], dots[:, q]]), block[:, q, q], c)
    return lam * d_attr + (1.0 - lam) * d_fold


def top_k_rows(rank: np.ndarray, offsets: np.ndarray, source_attribute: np.ndarray,
               relations: np.ndarray, entity_path: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the k best rows of every tree, trees in ascending order
    and best first within each, with deterministic ties: per tree, the order
    of one stable sort on score, length, entity path, relations, source
    attribute. `rank` holds each row's score as a non-negative integer in
    score order, equal scores one rank; tree i holds rows
    offsets[i]:offsets[i + 1].

    One integer sort of the (tree, rank) keys leaves tree i's keys in rows
    offsets[i]:offsets[i + 1], so its k-th best key is one read, at
    offsets[i] + min(k, size_i) - 1. Only the rows at or better than it can
    be among a tree's k best, since score is the primary key, so only they
    take the full tie-break sort.
    """
    sizes = offsets[1:] - offsets[:-1]
    tree = np.repeat(np.arange(sizes.size), sizes)
    key = tree * len(rank) + rank  # ranks are below the row count
    # the sorted keys behind a -1, so the k-th best key of tree i is entry
    # offsets[i] + min(k, size_i); a tree that keeps nothing (k = 0, or no
    # rows) reads an entry below all of its keys: an earlier tree's, or the -1
    kth = np.concatenate(([-1], np.sort(key)))[offsets[:-1] + np.minimum(sizes, k)]
    rows = np.flatnonzero(key <= kth[tree])
    relations = relations.take(rows, axis=0)
    # np.lexsort sorts by its last key first
    keys = ([source_attribute.take(rows)] + list(relations.T[::-1])
            + list(entity_path.take(rows, axis=0).T[::-1])
            + [chain_lengths(relations), key.take(rows)])
    order = rows[np.lexsort(keys)]
    grouped = tree[order]
    return order[np.arange(order.size) - np.searchsorted(grouped, grouped) < k]


def select_top_k_batch(toc: TreeOfChains, embeddings: FilterEmbeddings, k: int,
                       lam: float = 0.5) -> TreeOfChains:
    """Each tree's k best-scoring chains, best first, in one pass over the
    record. A score depends only on the chain's pattern (source attribute,
    relations, query attribute), so it is computed once per distinct
    pattern (`TreeOfChains.patterns`), ranked among the patterns' scores
    (equal scores one rank, NaN after every number, as a sort places it)
    and the rank gathered back to every chain that has it. Tree i's result
    does not depend on the other trees."""
    patterns, inverse = toc.patterns()
    scores = chain_scores(*patterns, embeddings, lam)
    rank = np.searchsorted(np.sort(scores), scores)
    rows = top_k_rows(rank[inverse], toc.offsets, toc.source_attribute, toc.relations,
                      toc.entity_path, k)
    return toc.take(rows)


# The one-query name: a single prediction's selection is traced under it.
select_top_k = select_top_k_batch


def select_random_k(toc: TreeOfChains, k: int, seeds) -> TreeOfChains:
    """Uniform selection (the filter-off variant): k rows of tree i drawn
    with seeds[i]."""
    rows = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        start + np.random.default_rng(seed).permutation(size)[:k]
        for seed, start, size in zip(seeds, toc.offsets.tolist(), toc.sizes.tolist())])
    return toc.take(rows)
