"""Chain retrieval by random walk.

A chain ties a known numerical fact (source entity, attribute, value) to the
query entity through a path of relations. Walks start at the query entity and
move outward over the graph's CSR edge arrays, truncating when they would
revisit an entity; every attributed entity along the way yields one chain per
attribute it carries (so one walk can emit chains of several lengths). Chains
are stored in source -> query orientation: the walked path is reversed and
each traversed relation replaced by its inverse, which keeps every stored hop
a real edge of the graph.

`sample_trees` samples the trees of a chunk of queries in one array pass
(walks, slots and dedupe are described there) into one `TreeOfChains`
record; `sample_tree` remains only as the one-query name a single
prediction is traced under. A tree is the one the sequential loop (walk by
walk, hop by hop, reading the same uniforms) would give, chain order
included. The uniforms replaced one `rng.integers` call per hop, so a given
seed now samples a different tree than it did under that stream. What the
walks read of the graph beyond its CSR arrays is derived once, when the
graph is built (see `kg`): each edge's canonical edge, which names parallel
edges, and each entity's first fact of each attribute. Every integer dedupe
is one `first_occurrences` (it lives in `kg`, which builds those tables with
it), and `TreeOfChains.patterns` builds the chain pattern key that the
filter and the encoder share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .kg import KnowledgeGraph, Query, _check_packable, first_occurrences


@dataclass(frozen=True, slots=True)
class RAChain:
    """Relation path from an attributed source entity to the query entity."""

    source_attribute: int
    relations: tuple[int, ...]  # oriented source -> query
    query_attribute: int
    source_value: float
    entity_path: tuple[int, ...]  # source first, query last

    def __post_init__(self):
        if len(self.relations) < 1:
            raise ValueError("a chain needs at least one relation")
        if len(self.entity_path) != len(self.relations) + 1:
            raise ValueError(
                f"entity path of {len(self.entity_path)} does not fit "
                f"{len(self.relations)} relations"
            )
        if len(set(self.entity_path)) != len(self.entity_path):
            raise ValueError("entity path revisits an entity")

    @property
    def length(self) -> int:
        return len(self.relations)

    @property
    def source_entity(self) -> int:
        return self.entity_path[0]


@dataclass(eq=False)
class TreeOfChains:
    """The chain sets (trees) of n queries as parallel arrays, one row per
    chain, tree after tree: tree i belongs to queries[i] and holds rows
    offsets[i]:offsets[i + 1], none for a query with no chain. Rows run
    source -> query and are padded on the right with -1: a chain of length l
    fills relations[r, :l] (source-adjacent relation first) and
    entity_path[r, :l + 1] (source first, query last); every row has a
    relation at least. Every field after `offsets` has one entry per row.
    RAChain objects are built only by `chains`.
    """

    queries: list[Query]          # (n,)
    offsets: np.ndarray           # (n + 1,) int64
    source_attribute: np.ndarray  # (rows,) int64
    source_value: np.ndarray      # (rows,) float64
    relations: np.ndarray         # (rows, max_hops) int64
    entity_path: np.ndarray       # (rows, max_hops + 1) int64

    def __len__(self) -> int:
        return len(self.source_attribute)

    @property
    def sizes(self) -> np.ndarray:
        """Each tree's number of rows."""
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def tree(self) -> np.ndarray:
        """Each row's tree index."""
        return np.repeat(np.arange(len(self.queries)), self.sizes)

    @cached_property
    def query_attributes(self) -> np.ndarray:
        """Each tree's query attribute, built once per record; `take` hands
        it on, since the trees keep their queries."""
        return np.array([q.attribute for q in self.queries], dtype=np.int64)

    @property
    def lengths(self) -> np.ndarray:
        return chain_lengths(self.relations)

    def patterns(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
        """The distinct chain patterns (source attribute, relations, query
        attribute), in ascending lexicographic order, and each row's pattern
        index; a chain's filter score and encoding depend only on these."""
        query_attribute = np.repeat(self.query_attributes, self.sizes)
        first, inverse = distinct_rows([self.source_attribute, *self.relations.T, query_attribute])
        return (self.source_attribute[first], self.relations[first],
                query_attribute[first]), inverse

    def take(self, rows) -> "TreeOfChains":
        """The chains of `rows` (ascending tree, any order within one), in
        that order; every tree keeps its slot."""
        tree = self.offsets.searchsorted(rows, "right") - 1  # each row's tree
        offsets = tree.searchsorted(np.arange(len(self.queries) + 1))
        taken = self._gather(self.queries, offsets, rows)
        taken.query_attributes = self.query_attributes
        return taken

    def trees(self, index) -> "TreeOfChains":
        """Trees `index` (in that order, repeats allowed) with all their rows."""
        sizes = self.sizes.take(index)
        offsets = np.append(0, np.cumsum(sizes))
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets.take(index) - offsets[:-1], sizes)
        return self._gather([self.queries[i] for i in index], offsets, rows)

    def _gather(self, queries, offsets, rows) -> "TreeOfChains":
        return TreeOfChains(queries, offsets, *(getattr(self, f.name).take(rows, axis=0)
                                                for f in fields(self)[2:]))

    @classmethod
    def concatenate(cls, parts: list["TreeOfChains"]) -> "TreeOfChains":
        """The trees of `parts` (at least one) one after another; a lone
        part is returned as it is."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.append(0, np.cumsum(np.concatenate([p.sizes for p in parts])))
        return cls([q for p in parts for q in p.queries], offsets,
                   *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)[2:]))

    @property
    def chains(self) -> list[RAChain]:
        """The rows as RAChain objects, tree after tree, for display and checks."""
        return [RAChain(a, tuple(rels[:n]), qa, v, tuple(path[:n + 1]))
                for qa, a, v, rels, path, n in zip(
                    np.repeat(self.query_attributes, self.sizes).tolist(),
                    self.source_attribute.tolist(), self.source_value.tolist(),
                    self.relations.tolist(), self.entity_path.tolist(), self.lengths.tolist())]


def chain_lengths(relations: np.ndarray) -> np.ndarray:
    """Each row's chain length: its relation ids that are not the -1 pad."""
    return sum(relations[:, j] >= 0 for j in range(relations.shape[1]))


def distinct_rows(columns: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """For rows given as 1-D integer key columns (at least one, all of one
    length, entries >= -1): the index of the first occurrence of each
    distinct row, rows in ascending lexicographic order, and for every row
    the position of its row among those. Each row packs into one int64,
    column by column in mixed radix over the columns' spans (max + 2, the -1
    pad being digit 0), for one `first_occurrences`; raises OverflowError if
    the spans' product passes int64."""
    spans = [int(column.max(initial=-1)) + 2 for column in columns]
    _check_packable(*spans)
    packed = columns[0] + 1
    for column, span in zip(columns[1:], spans[1:]):
        packed *= span
        packed += column
        packed += 1
    return first_occurrences(packed, math.prod(spans))


def _check_rows(relations: np.ndarray, entity_path: np.ndarray) -> None:
    """RAChain's checks on every row at once: a relation at least, one more
    entity than relations, and no entity visited twice (each column against
    the columns after it), ORed into one mask by 1-D column compares."""
    n_rel = chain_lengths(relations)
    columns = list(np.ascontiguousarray(entity_path.T))
    bad = n_rel < 1
    bad |= sum(column >= 0 for column in columns) != n_rel + 1
    for i, column in enumerate(columns[:-1]):
        revisit = column == columns[i + 1]
        for later in columns[i + 2:]:
            revisit |= column == later
        revisit &= column >= 0
        bad |= revisit
    if bad.any():
        raise ValueError("a sampled chain is not a simple path of its relations")


def sample_tree(kg: KnowledgeGraph, query: Query, walks: int, max_hops: int,
                seed: int) -> TreeOfChains:
    """One query's case of `sample_trees`, the name a prediction is traced under."""
    return sample_trees(kg, [query], walks, max_hops, [seed])


def sample_trees(kg: KnowledgeGraph, queries: list[Query], walks: int, max_hops: int,
                 seeds) -> TreeOfChains:
    """Run `walks` random walks of up to max_hops steps from each query's
    entity, the walks of all queries in one array pass. Query i's tree
    depends only on (queries[i], seeds[i]), not on the other queries.

    Query i draws its uniforms at once, u[i] = rng(seeds[i]).random((max_hops,
    walks)): at hop h, its walk w takes edge floor(u[i, h, w] * degree) of its
    entity's edge list (parallel edges count separately). A walk ends at a
    dead end or where it would revisit an entity. All walks advance together,
    one hop at a time, each carrying only its prefix id; a prefix holds its
    walk's row (entities and relations back to the query). A walk's slot at
    a hop is prefix * width + the offset of its edge, width being the
    largest degree on the frontier. One `first_occurrences` gives the hop's
    distinct slots, each one's first walk and each walk's slot (a table, or
    a sort when a hub is on the frontier). The edge gathers and the revisit
    check run once per distinct slot, and each kept slot becomes a new prefix;
    slots of one prefix whose parallel edges share a canonical edge
    (`kg.edge_canon`: same relation and tail) become one, found by the first
    of their walks; that merge is a dedupe of (prefix, canonical offset) in
    the hop's slot space, run only at a hop where some kept edge is not its
    own canonical edge. Every walk's prefix starts at its query's index, so
    the prefixes of two queries never merge, even for the same query twice.
    Each prefix yields one chain per attribute of its end entity, from the
    entity's first facts (`kg.first_fact`: the first in file order when an
    attribute repeats). A tree's chains come out in first-found order (walk,
    then hop, then fact index) and stop at `walks`, so a tree has at most
    `walks` rows. Every row is checked by `_check_rows` before it is returned.
    """
    n_entities, n_relations = kg.n_entities, kg.n_relations
    n_walks = len(queries) * walks
    # prefix ids restart at every hop, so a parent id is below n_walks; the
    # pass has at most n_walks * max_hops prefixes
    _check_packable(n_walks, n_relations, n_entities)
    _check_packable(n_walks * max_hops, kg.n_attributes)
    # query i's uniforms, u[i, h, w] for its walk w at hop h
    u = np.empty((len(queries), max_hops, walks))
    for seed, block in zip(seeds, u):
        np.random.default_rng(seed).random(out=block)
    indptr, edge_rel, edge_tail = kg.edge_indptr, kg.edge_rel, kg.edge_tail
    # walk g (query g // walks's) stands on prefix[g]; a walk that stopped
    # stands on the last prefix id, one past the real ones, whose degree is 0
    prefix = np.arange(n_walks) // walks
    # each prefix's row: its walk read backwards, alternating entity and
    # relation from its end to its query (end, relation oriented toward the
    # query, entity, ..., query), -1 padded; at hop 0 the prefixes are the
    # queries
    path = np.full((len(queries), 2 * max_hops + 1), -1, dtype=np.int64)
    path[:, 0] = [q.entity for q in queries]
    # per hop, each new prefix's first walk and its row
    finder, paths = [], []
    for hop in range(max_hops):
        end = path[:, 0]
        lo = indptr[end]
        degree = np.zeros(len(path) + 1, dtype=np.int64)
        np.subtract(indptr[end + 1], lo, out=degree[:-1])
        width = int(degree.max())
        if width == 0:
            break
        # a walk's slot: its prefix and the offset of the edge it takes
        slot = (u[:, hop] * degree[prefix].reshape(u[:, hop].shape)).astype(np.int64).ravel()
        slot += prefix * width
        # the distinct slots, ascending, with each one's first walk (a walk's
        # index is its id)
        n_slots = len(degree) * width
        _check_packable(n_slots)
        first_walk, inverse = first_occurrences(slot, n_slots)
        distinct = slot[first_walk]
        # once per slot: its edge, and whether it is a dead end, the stopped
        # walks' slot (its prefix has no row, so reads of it are clipped) or
        # a revisit
        owner, offset = np.divmod(distinct, width)
        edge = lo.take(owner, mode="clip") + offset
        nxt = edge_tail.take(edge, mode="clip")
        kept = degree[owner] > 0
        for entity in path[:, :2 * hop + 1:2].T:
            kept &= entity.take(owner, mode="clip") != nxt
        kept = kept.nonzero()[0]
        if kept.size == 0:
            break
        owner, nxt, first_walk, edge = owner[kept], nxt[kept], first_walk[kept], edge[kept]
        rel = edge_rel[edge]
        # parallel edges: the slots of one prefix whose edges share a
        # canonical edge (same relation and tail) are one new prefix, found
        # by the first of their walks; a hop seldom has any
        canon = kg.edge_canon[edge]
        new_prefix = np.arange(kept.size)
        if (canon != edge).any():
            first, new_prefix = first_occurrences(owner * width + canon - lo[owner], n_slots)
            owner, rel, nxt, slot_walk = owner[first], rel[first], nxt[first], first_walk
            first_walk = np.full(first.size, n_walks)
            np.minimum.at(first_walk, new_prefix, slot_walk)
        prev = path.take(owner, axis=0)
        path = np.concatenate((nxt[:, None], kg.invert_relation(rel)[:, None], prev[:, :-2]),
                              axis=1)
        finder.append(first_walk)
        paths.append(path)
        if hop + 1 == max_hops:
            break
        # each walk moves to its slot's new prefix, or stops (on the id one
        # past the new prefixes)
        to = np.full(distinct.size, len(path))
        to[kept] = new_prefix
        prefix = to[inverse]

    path = np.concatenate([path[:0]] + paths)
    walk = np.concatenate([prefix[:0]] + finder)
    hop = np.repeat(np.arange(len(finder)), [f.size for f in finder])
    order = np.argsort(walk * max_hops + hop)  # a walk finds one prefix per hop at most
    walk = walk[order]
    end = path[:, 0].take(order)
    lo = kg.first_fact_indptr[end]
    count = kg.first_fact_indptr[end + 1] - lo
    owner = np.repeat(np.arange(end.size), count)   # first facts of each prefix's end
    fact = kg.first_fact[np.arange(owner.size) + (lo + count - np.cumsum(count))[owner]]
    # the first `walks` chains of each tree; a tree's chains are contiguous
    tree = walk[owner] // walks
    starts = tree.searchsorted(np.arange(len(queries) + 1))
    keep = np.arange(owner.size) - starts[tree] < walks
    owner, fact = owner[keep], fact[keep]
    offsets = np.append(0, np.cumsum(np.minimum(np.diff(starts), walks)))

    rows = order[owner]
    entity_path = path[:, ::2].take(rows, axis=0)
    relations = path[:, 1::2].take(rows, axis=0)
    _check_rows(relations, entity_path)
    return TreeOfChains(list(queries), offsets, kg.fact_attr[fact], kg.fact_value[fact],
                        relations, entity_path)

