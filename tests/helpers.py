"""Shared test utilities: independent scalar oracles, the array origin log map,
the single-value bit codec, validated single-point geometry, the vector-form
fold and chain scores and per-chain filter scoring, hand-built chain sets,
the row-generator graph loader and stable-argsort CSR, a graph's out-edges
and facts, the exhaustive chain enumerator, the sequential chain sampler,
the sort-based row check, the np.unique row dedupe, the per-tree top-k
selection, test-only autodiff ops, the layer norm node and the composite
forms of the fused layers, the per-token chain tokens, the unfused
full-row transformer, the per-row and the composite grouped affine
transfers, a forced and a recorded transfer plan and the augmenting-path
maximum matching that sizes a minimum cover, the per-query model forward,
the hand-written parameter lists, the per-query prediction traces and
dict-accumulator pattern ranking, predictions that used no chain, the
per-triple attribute statistics and query scoping, the dict-accumulator
evaluation reports and filter audit, and finite differences."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from rachain import autodiff as ad
from rachain import encoder as E
from rachain import evaluation as EV
from rachain.encoder import AffineNets, encode_values, key_groups
from rachain.filter import FilterEmbeddings, chain_scores, top_k_rows
from rachain.hyperbolic import BALL_MARGIN, distance_raw, mobius_add_raw, project_rows
from rachain.kg import (
    FACT,
    INVERSE_SUFFIX,
    DatasetFormatError,
    DatasetSplit,
    KnowledgeGraph,
    Query,
    as_facts,
)
from rachain.reasoner import (
    ChainContribution,
    PredictionTrace,
    Predictions,
    aggregate,
    project_values,
)
from rachain.retrieval import RAChain, TreeOfChains, chain_lengths
from rachain.training import seed_for


# ---------------------------------------------------------------------------
# scalar geometry oracles (pure python, no shared code with the package)


def oracle_mobius(x, y, c=1.0):
    x = [float(v) for v in x]
    y = [float(v) for v in y]
    xy = sum(a * b for a, b in zip(x, y))
    xx = sum(a * a for a in x)
    yy = sum(b * b for b in y)
    den = 1.0 + 2.0 * c * xy + c * c * xx * yy
    cx = 1.0 + 2.0 * c * xy + c * yy
    cy = 1.0 - c * xx
    return [(cx * a + cy * b) / den for a, b in zip(x, y)]


def oracle_distance(x, y, c=1.0):
    neg = [-float(v) for v in x]
    d = oracle_mobius(neg, y, c)
    norm = math.sqrt(sum(v * v for v in d))
    return (2.0 / math.sqrt(c)) * math.atanh(math.sqrt(c) * norm)


def oracle_arcosh_distance(x, y):
    dd = sum((a - b) ** 2 for a, b in zip(x, y))
    ax = 1.0 - sum(a * a for a in x)
    ay = 1.0 - sum(b * b for b in y)
    return math.acosh(1.0 + 2.0 * dd / (ax * ay))


def oracle_log_map(x, c=1.0):
    n = math.sqrt(sum(v * v for v in x))
    if n == 0.0:
        return [0.0 for _ in x]
    s = math.atanh(math.sqrt(c) * n) / (math.sqrt(c) * n)
    return [s * float(v) for v in x]


def random_inball(rng: np.random.Generator, n: int, dim: int, radius: float = 0.85):
    """Points with norm <= radius (well inside the unit ball)."""
    direction = rng.standard_normal((n, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    r = radius * rng.random((n, 1)) ** (1.0 / dim)
    return direction * r


def distance_arcosh_raw(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit-ball (c = 1) distance in arcosh form.

        d(x, y) = arcosh(1 + 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2)))

    Evaluated as log1p(t + sqrt(t (t + 2))) with t the fraction term, which is
    exact near t = 0 where arcosh(1 + t) loses precision.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dd = np.sum((x - y) ** 2, axis=-1)
    ax = 1.0 - np.sum(x * x, axis=-1)
    ay = 1.0 - np.sum(y * y, axis=-1)
    t = 2.0 * dd / (ax * ay)
    return np.log1p(t + np.sqrt(t * (t + 2.0)))


def log_map_origin_raw(x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Tangent-space coordinates at the origin: arctanh(sqrt(c)|x|) x / (sqrt(c)|x|).

    Exact zeros for the origin itself.
    """
    x = np.asarray(x, dtype=np.float64)
    sc = np.sqrt(c)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    scale = np.arctanh(np.minimum(sc * n, 1.0 - 1e-15)) / (sc * safe)
    return np.where(n > 0.0, scale * x, 0.0)


# ---------------------------------------------------------------------------
# single-value bit codec (struct-based oracle of encoder.encode_values)


def encode_value(value: float) -> np.ndarray:
    """The 64 bits of the value's IEEE-754 double encoding, sign bit first."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value}")
    raw = struct.pack(">d", value)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8)).astype(np.float64)


def decode_value(bits: np.ndarray) -> float:
    bits = np.asarray(bits)
    if bits.shape != (64,):
        raise ValueError(f"expected 64 bits, got shape {bits.shape}")
    if not np.all((bits == 0.0) | (bits == 1.0)):
        raise ValueError("bits must be 0 or 1")
    raw = np.packbits(bits.astype(np.uint8)).tobytes()
    return struct.unpack(">d", raw)[0]


# ---------------------------------------------------------------------------
# validated single points of the ball


@dataclass(frozen=True, eq=False)
class PoincareVector:
    """A validated point of the open c-ball."""

    coords: np.ndarray
    curvature: float = 1.0

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 1:
            raise ValueError(f"expected a single vector, got shape {coords.shape}")
        if self.curvature <= 0.0:
            raise ValueError(f"curvature must be positive, got {self.curvature}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        if self.curvature * float(coords @ coords) >= 1.0:
            raise ValueError(
                f"point with squared norm {float(coords @ coords):.6g} lies outside "
                f"the open ball of curvature {self.curvature}"
            )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def _check_pair(a: PoincareVector, b: PoincareVector) -> None:
    if a.curvature != b.curvature:
        raise ValueError(f"curvature mismatch: {a.curvature} vs {b.curvature}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def mobius_add(a: PoincareVector, b: PoincareVector) -> PoincareVector:
    _check_pair(a, b)
    out = mobius_add_raw(a.coords, b.coords, a.curvature)
    return PoincareVector(out, a.curvature)


def distance(a: PoincareVector, b: PoincareVector) -> float:
    _check_pair(a, b)
    return float(distance_raw(a.coords, b.coords, a.curvature))


def project_to_ball(
    coords: np.ndarray, curvature: float = 1.0, margin: float = BALL_MARGIN
) -> PoincareVector:
    return PoincareVector(project_rows(coords, curvature, margin), curvature)


# ---------------------------------------------------------------------------
# filter oracles: the vector-form fold and scores, and one chain at a time


def fold_relations(rel_rows: np.ndarray, curvature: float = 1.0) -> np.ndarray:
    """Left fold by Mobius addition along axis -2: ((r1 (+) r2) (+) r3) ..."""
    acc = rel_rows[..., 0, :]
    for i in range(1, rel_rows.shape[-2]):
        acc = mobius_add_raw(acc, rel_rows[..., i, :], curvature)
    return acc


def reference_chain_scores(source_attribute: np.ndarray, relations: np.ndarray,
                           query_attribute, embeddings: FilterEmbeddings,
                           lam: float = 0.5) -> np.ndarray:
    """`chain_scores` on vectors, the form the Gram-matrix scores replaced:
    every row folds its relation rows at once, the -1 pads indexing an
    appended origin row (exact, since x (+) 0 == x), and both distances are
    `distance_raw` of the points."""
    c, rel, att = embeddings.curvature, embeddings.relations.data, embeddings.attributes.data
    folded = fold_relations(np.concatenate([rel, np.zeros((1, rel.shape[1]))])[relations], c)
    aq = att[query_attribute]
    d_attr, d_fold = distance_raw(att[source_attribute], aq, c), distance_raw(folded, aq, c)
    return lam * d_attr + (1.0 - lam) * d_fold


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


# ---------------------------------------------------------------------------
# hand-built chain sets


def chain_sets(queries, sets, max_hops: int = 3) -> TreeOfChains:
    """Per-query lists of RAChain objects as one record of trees in the
    sampler's array layout, tree i holding sets[i] for queries[i]. A tree's
    query supplies its chains' query attribute, as it does for sampled
    trees."""
    chains = [ch for chain_list in sets for ch in chain_list]
    n = len(chains)
    relations = np.full((n, max_hops), -1, dtype=np.int64)
    entity_path = np.full((n, max_hops + 1), -1, dtype=np.int64)
    for i, ch in enumerate(chains):
        relations[i, :ch.length] = ch.relations
        entity_path[i, :ch.length + 1] = ch.entity_path
    return TreeOfChains(list(queries), np.cumsum([0] + [len(c) for c in sets]),
                        np.array([ch.source_attribute for ch in chains], dtype=np.int64),
                        np.array([ch.source_value for ch in chains], dtype=np.float64),
                        relations, entity_path)


def chain_set(query, chains, max_hops: int = 3) -> TreeOfChains:
    """RAChain objects as one query's tree (the record's n = 1 case)."""
    return chain_sets([query], [chains], max_hops)


def each_tree(toc: TreeOfChains) -> list[TreeOfChains]:
    """The trees of a record, each gathered as a one-query record."""
    return [toc.trees([i]) for i in range(len(toc.queries))]


def tree_arrays(toc: TreeOfChains, i: int) -> tuple:
    """Tree i's row arrays, sliced by the record's offsets."""
    rows = slice(toc.offsets[i], toc.offsets[i + 1])
    return tuple(a[rows] for a in (
        toc.source_attribute, toc.source_value, toc.relations, toc.entity_path))


def assert_same_tree(got: tuple, want: tuple) -> None:
    """Two trees' row arrays are equal, dtypes and shapes included."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the row-generator graph loader (stable argsort CSR, setdefault interning)


def reference_csr(rows: np.ndarray, n_rows: int, *columns: np.ndarray):
    """Row offsets, and `columns` ordered by a stable argsort of `rows`."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    return indptr, tuple(c[order] for c in columns)


def reference_edge_canon(kg) -> np.ndarray:
    """Per entity, each out-edge's first edge of the same (relation, tail),
    by a dict over the entity's edge list."""
    canon = []
    for e in range(kg.n_entities):
        first: dict[tuple[int, int], int] = {}
        for i in range(kg.edge_indptr[e], kg.edge_indptr[e + 1]):
            canon.append(first.setdefault((int(kg.edge_rel[i]), int(kg.edge_tail[i])), int(i)))
    return np.array(canon, dtype=np.int64)


def reference_first_facts(kg) -> tuple[np.ndarray, np.ndarray]:
    """Per entity, the index of its first training fact of each attribute in
    file order, as (offsets, indices), by a set over the entity's facts."""
    indptr, first = [0], []
    for e in range(kg.n_entities):
        seen: set[int] = set()
        for i in range(kg.fact_indptr[e], kg.fact_indptr[e + 1]):
            if int(kg.fact_attr[i]) not in seen:
                seen.add(int(kg.fact_attr[i]))
                first.append(int(i))
        indptr.append(len(first))
    return np.array(indptr, dtype=np.int64), np.array(first, dtype=np.int64)


def _reference_parse_rows(lines, n_cols: int, source: str):
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise DatasetFormatError(
                f"{source}:{lineno}: expected {n_cols} tab-separated columns, got {len(cols)}"
            )
        if "" in cols:
            raise DatasetFormatError(f"{source}:{lineno}: empty column")
        yield lineno, cols


def _reference_read_numerical(path) -> list[tuple[int, str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(lineno, e, a, v) for lineno, (e, a, v)
                in _reference_parse_rows(fh, 3, str(path))]


def _reference_build_dataset(relational_rows, train_rows, valid_rows, test_rows, sources):
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    attributes: dict[str, int] = {}
    base = np.fromiter((i for h, r, t in relational_rows
                        for i in (entities.setdefault(h, len(entities)),
                                  relations.setdefault(r, len(relations)),
                                  entities.setdefault(t, len(entities)))),
                       dtype=np.int64).reshape(-1, 3)
    n_base = len(relations)
    for name in list(relations):
        if name + INVERSE_SUFFIX in relations:
            raise DatasetFormatError(f"relation {name + INVERSE_SUFFIX!r} has the name "
                                     f"of the inverse of relation {name!r}")
        relations[name + INVERSE_SUFFIX] = len(relations)
    edges = np.stack([base, base[:, ::-1] + [0, n_base, 0]], axis=1).reshape(-1, 3)

    def resolve_split(rows, label):
        for row in rows:
            lineno, (e, a, v) = (row[0], row[1:]) if len(row) == 4 else ("?", row)
            if e not in entities:
                raise DatasetFormatError(
                    f"{label}:{lineno}: entity {e!r} does not appear in the relational graph"
                )
            try:
                value = float(v)
            except ValueError:
                raise DatasetFormatError(f"{label}:{lineno}: bad value {v!r}") from None
            if not np.isfinite(value):
                raise DatasetFormatError(f"{label}:{lineno}: non-finite value {v!r}")
            yield entities[e], attributes.setdefault(a, len(attributes)), value

    train, valid, test = (np.fromiter(resolve_split(rows, label), dtype=FACT) for rows, label
                          in zip((train_rows, valid_rows, test_rows), sources))
    kg = KnowledgeGraph(entity_names=list(entities), relation_names=list(relations),
                        attribute_names=list(attributes), edges=edges, train_facts=train,
                        num_base_relations=n_base, entity_index=entities,
                        relation_index=relations, attribute_index=attributes)
    kg.edge_indptr, (kg.edge_rel, kg.edge_tail) = reference_csr(
        edges[:, 0], kg.n_entities, edges[:, 1], edges[:, 2])
    kg.fact_indptr, (kg.fact_attr, kg.fact_value) = reference_csr(
        train["entity"], kg.n_entities, train["attribute"], train["value"])
    kg.edge_canon = reference_edge_canon(kg)
    kg.first_fact_indptr, kg.first_fact = reference_first_facts(kg)
    return kg, DatasetSplit(train=train, valid=valid, test=test)


def reference_load_dataset(relational_path, train_path, valid_path=None, test_path=None):
    """(graph, split) as `rachain.kg.load_dataset` gives them, by the row-generator
    loader: relational rows through two generator layers, numerical files read
    whole, `setdefault` interning, CSR arrays from `reference_csr` and the
    derived tables from `reference_edge_canon` and `reference_first_facts`."""
    paths = (train_path, valid_path, test_path)
    with open(relational_path, encoding="utf-8") as fh:
        return _reference_build_dataset(
            (row for _, row in _reference_parse_rows(fh, 3, str(relational_path))),
            *(_reference_read_numerical(p) if p is not None else [] for p in paths),
            sources=tuple(map(str, paths)),
        )


# ---------------------------------------------------------------------------
# retrieval oracles (plain python over per-entity lists)


def raw_graph(n_entities, n_base, triples, facts):
    """A graph built straight from id triples: edges need not come with their
    inverses, so entities can be dead ends or fully isolated."""
    return KnowledgeGraph(
        entity_names=[f"e{i}" for i in range(n_entities)],
        relation_names=[f"r{i}" for i in range(n_base)]
        + [f"r{i}_inv" for i in range(n_base)],
        attribute_names=["a0", "a1", "a2"],
        edges=triples,
        train_facts=as_facts(facts),
        num_base_relations=n_base,
    )


def out_edges(kg, entity: int) -> tuple[np.ndarray, np.ndarray]:
    """(relations, tails) of the entity's out-edges, in input order."""
    lo, hi = kg.edge_indptr[entity], kg.edge_indptr[entity + 1]
    return kg.edge_rel[lo:hi], kg.edge_tail[lo:hi]


def facts(kg, entity: int) -> tuple[np.ndarray, np.ndarray]:
    """(attributes, values) of the entity's training facts, in file order."""
    lo, hi = kg.fact_indptr[entity], kg.fact_indptr[entity + 1]
    return kg.fact_attr[lo:hi], kg.fact_value[lo:hi]


def enumerate_all_chains(kg, query, max_hops: int, max_paths: int = 1_000_000) -> list[RAChain]:
    """Deterministic DFS over every simple path of <= max_hops edges.

    Ground truth for the sampler on small graphs; raises if the path count
    passes max_paths.
    """
    chains: list[RAChain] = []
    steps = 0

    def visit(cur: int, path: list[int], rels: list[int], visited: set[int]) -> None:
        nonlocal steps
        if len(rels) >= max_hops:
            return
        for rel, nxt in zip(*(col.tolist() for col in out_edges(kg, cur))):
            if nxt in visited:
                continue
            steps += 1
            if steps > max_paths:
                raise RuntimeError(f"chain enumeration exceeded {max_paths} paths")
            path.append(nxt)
            rels.append(rel)
            visited.add(nxt)
            rev_path = tuple(reversed(path))
            rev_rels = tuple(kg.invert_relation(r) for r in reversed(rels))
            for attr, value in zip(*(col.tolist() for col in facts(kg, nxt))):
                chains.append(RAChain(attr, rev_rels, query.attribute, value, rev_path))
            visit(nxt, path, rels, visited)
            path.pop()
            rels.pop()
            visited.remove(nxt)

    visit(query.entity, [query.entity], [], {query.entity})
    return chains


def reference_sample_tree(kg, query, walks: int, max_hops: int, seed: int) -> TreeOfChains:
    """The sequential walk loop that `sample_tree` vectorises: walk by walk,
    hop by hop, over python lists of each entity's `out_edges` and
    `facts`. Walk w takes neighbour int(u[h, w] * degree) at hop h,
    reading the same `rng.random((max_hops, walks))` matrix as `sample_tree`."""
    adjacency = [list(zip(*(col.tolist() for col in out_edges(kg, e))))
                 for e in range(kg.n_entities)]
    entity_facts = [list(zip(*(col.tolist() for col in facts(kg, e))))
                    for e in range(kg.n_entities)]
    u = np.random.default_rng(seed).random((max_hops, walks))
    seen: set[tuple] = set()
    chains: list[RAChain] = []
    for w in range(walks):
        cur = query.entity
        path = [cur]
        rels: list[int] = []
        visited = {cur}
        for hop in range(max_hops):
            nbrs = adjacency[cur]
            if not nbrs:
                break
            rel, nxt = nbrs[int(u[hop, w] * len(nbrs))]
            if nxt in visited:
                break
            path.append(nxt)
            rels.append(rel)
            visited.add(nxt)
            cur = nxt
            if not entity_facts[nxt]:
                continue
            rev_path = tuple(reversed(path))
            rev_rels = tuple(kg.invert_relation(r) for r in reversed(rels))
            for attr, value in entity_facts[nxt]:
                key = (attr, rev_path, rev_rels)
                if key in seen:
                    continue
                seen.add(key)
                chains.append(RAChain(attr, rev_rels, query.attribute, value, rev_path))
                if len(chains) >= walks:
                    return chain_set(query, chains, max_hops)
        if len(chains) >= walks:
            break
    return chain_set(query, chains, max_hops)


def reference_check_rows(relations: np.ndarray, entity_path: np.ndarray) -> None:
    """The sort-based row check that `retrieval._check_rows` replaced: every
    row's entity path sorted, then adjacent equal entities are a revisit."""
    n_rel = (relations >= 0).sum(axis=1)
    ordered = np.sort(entity_path, axis=1)
    if (np.any(n_rel < 1) or np.any((entity_path >= 0).sum(axis=1) != n_rel + 1)
            or np.any((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0))):
        raise ValueError("a sampled chain is not a simple path of its relations")


def reference_distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique over the rows, the oracle of `retrieval.distinct_rows`: the
    first index of each distinct row, rows in ascending lexicographic order,
    and each row's position among them."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    return first, inverse.ravel()


def score_ranks(scores: np.ndarray) -> np.ndarray:
    """The ranks `top_k_rows` takes: each score's position among the sorted
    scores, equal scores (and every NaN) one rank."""
    return np.searchsorted(np.sort(scores), scores)


def top_k_order(scores: np.ndarray, toc: TreeOfChains, k: int) -> np.ndarray:
    """`top_k_rows` on one tree: the row indices of its k best chains."""
    return top_k_rows(score_ranks(scores), np.array([0, len(toc)]), toc.source_attribute,
                      toc.relations, toc.entity_path, k)


def reference_select_top_k(toc: TreeOfChains, embeddings: FilterEmbeddings, k: int,
                           lam: float = 0.5) -> TreeOfChains:
    """The per-tree selection that `select_top_k_batch` batches: every row of
    the tree scored against the tree's query attribute, then one stable sort
    of all rows on score, length, entity path, relations, source attribute."""
    scores = chain_scores(toc.source_attribute, toc.relations, toc.queries[0].attribute,
                          embeddings, lam)
    keys = ([toc.source_attribute] + list(toc.relations.T[::-1])
            + list(toc.entity_path.T[::-1]) + [toc.lengths, scores])
    return toc.take(np.lexsort(keys)[:k])


def chain_is_valid(chain: RAChain, kg, query) -> bool:
    """Every stored hop is a graph edge, the source fact exists, the path ends
    at the query entity, and no entity repeats."""
    if chain.entity_path[-1] != query.entity:
        return False
    if chain.query_attribute != query.attribute:
        return False
    if len(set(chain.entity_path)) != len(chain.entity_path):
        return False
    for i, rel in enumerate(chain.relations):
        rels, tails = out_edges(kg, chain.entity_path[i])
        if not np.any((rels == rel) & (tails == chain.entity_path[i + 1])):
            return False
    attrs, values = facts(kg, chain.source_entity)
    return bool(np.any((attrs == chain.source_attribute) & (values == chain.source_value)))


# ---------------------------------------------------------------------------
# autodiff oracles: test-only ops, and the fused layers built from primitives


def exp(a):
    """Elementwise exp as a tape node."""
    a = ad._as_tensor(a)
    out = np.exp(a.data)
    return ad._make(out, (a,), lambda g: ad._accumulate(a, g * out))


def log(a):
    """Elementwise natural log as a tape node."""
    a = ad._as_tensor(a)
    return ad._make(np.log(a.data), (a,), lambda g: ad._accumulate(a, g / a.data))


def div(a, b):
    """Elementwise a / b as a tape node."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)

    def backward_fn(g):
        ad._accumulate(a, ad._unbroadcast(g / b.data, a.data.shape))
        ad._accumulate(b, ad._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return ad._make(a.data / b.data, (a, b), backward_fn)


def sqrt(a):
    """Elementwise square root as a tape node."""
    a = ad._as_tensor(a)
    out = np.sqrt(a.data)
    return ad._make(out, (a,), lambda g: ad._accumulate(a, g * 0.5 / out))


def arctanh(a):
    """Elementwise arctanh as a tape node."""
    a = ad._as_tensor(a)
    return ad._make(np.arctanh(a.data), (a,),
                    lambda g: ad._accumulate(a, g / (1.0 - a.data * a.data)))


def broadcast_to(a, shape):
    """numpy broadcasting to `shape` as a tape node."""
    a = ad._as_tensor(a)
    return ad._make(np.broadcast_to(a.data, shape).copy(), (a,),
                    lambda g: ad._accumulate(a, ad._unbroadcast(g, a.data.shape)))


def matmul(a, b):
    """Matrix product with broadcasting over leading batch axes (operands >= 2-D)
    as a tape node."""
    a, b = ad._as_tensor(a), ad._as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs >= 2-D operands, got {a.shape} @ {b.shape}")

    def backward_fn(g):
        ad._accumulate(a, ad._unbroadcast(g @ np.moveaxis(b.data, -1, -2), a.data.shape))
        ad._accumulate(b, ad._unbroadcast(np.moveaxis(a.data, -1, -2) @ g, b.data.shape))

    return ad._make(a.data @ b.data, (a, b), backward_fn)


def swapaxes(a, ax1: int, ax2: int):
    """Swap two axes (a numpy view) as a tape node; the backward swaps them back."""
    a = ad._as_tensor(a)
    return ad._make(np.swapaxes(a.data, ax1, ax2), (a,),
                    lambda g: ad._accumulate(a, np.swapaxes(g, ax1, ax2)))


def mean(a, axis=None, keepdims: bool = False):
    """Mean over `axis` (all axes when None) as a sum times 1/count."""
    a = ad._as_tensor(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return ad.mul(ad.tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


def composite_linear(x, w, b=None):
    out = matmul(x, w)
    return out if b is None else ad.add(out, b)


def layer_norm(x, gain, bias, eps: float = 1e-5):
    """Normalize the last axis to zero mean and unit variance, then scale by
    gain and shift by bias, as one tape node: the layer norm that
    `ad.post_norm` and `ad.ffn_post_norm` fuse with the sums before it, the
    oracle of their bit-identity."""
    x, gain, bias = ad._as_tensor(x), ad._as_tensor(gain), ad._as_tensor(bias)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat /= std
    rstd = 1.0 / std

    def backward_fn(g):
        axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            ad._accumulate(gain, (g * xhat).sum(axis=axes))
        if bias.requires_grad:
            ad._accumulate(bias, g.sum(axis=axes))
        if x.requires_grad:
            gx = g * gain.data
            corr = gx * xhat  # then mean(gx) + xhat * mean(gx * xhat), in place
            np.multiply(xhat, corr.mean(axis=-1, keepdims=True), out=corr)
            corr += gx.mean(axis=-1, keepdims=True)
            gx -= corr
            gx *= rstd
            ad._accumulate(x, gx)

    out_data = xhat * gain.data
    out_data += bias.data
    return ad._make(out_data, (x, gain, bias), backward_fn)


def composite_post_norm(residual, h, w, b, gain, bias):
    """The composite form of `ad.post_norm`: `linear`, `add` and `layer_norm`."""
    return layer_norm(ad.add(residual, ad.linear(h, w, b)), gain, bias)


def composite_ffn_post_norm(x, w1, b1, w2, b2, gain, bias):
    """The composite form of `ad.ffn_post_norm`: `linear`, `relu`, `linear`,
    `add` and `layer_norm`."""
    hidden = ad.relu(ad.linear(x, w1, b1))
    return layer_norm(ad.add(x, ad.linear(hidden, w2, b2)), gain, bias)


def composite_layer_norm(x, gain, bias, eps: float = 1e-5):
    mu = mean(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = mean(ad.square(centered), axis=-1, keepdims=True)
    xhat = div(centered, sqrt(ad.add(var, eps)))
    return ad.add(ad.mul(xhat, gain), bias)


def reference_attention(q, k, v, heads: int, key_mask=None, scale: float = 1.0):
    """The composite form of `ad.attention`: the rows split into heads by
    reshape and swapaxes, two matmuls, a scale and a masked softmax per
    head, and the heads merged back by swapaxes and reshape."""
    b, lq, dim = q.shape

    def split(t):
        return swapaxes(ad.reshape(t, (b, t.shape[1], heads, dim // heads)), 1, 2)

    scores = ad.mul(matmul(split(q), swapaxes(split(k), -1, -2)), scale)
    mask = None if key_mask is None else key_mask[:, None, None, :]
    ctx = matmul(ad.softmax(scores, mask=mask), split(v))
    return ad.reshape(swapaxes(ctx, 1, 2), (b, lq, dim))


def composite_log_map(x, curvature: float = 1.0):
    """The composite form of `ad.log_map`: the floored norm, its scale by
    sqrt(c), arctanh, a divide and a multiply, one tape node each."""
    n = sqrt(ad.add(ad.tensor_sum(ad.square(x), axis=-1, keepdims=True), 1e-30))
    sn = ad.mul(n, float(np.sqrt(curvature)))
    return ad.mul(x, div(arctanh(sn), sn))


# ---------------------------------------------------------------------------
# model oracles: the unfused full-row transformer, the per-row affine
# transfer, one query per forward


def reference_transformer_stack(x, params, key_mask=None, attend=reference_attention,
                                last_only: bool = False):
    """`encoder.transformer_stack` with unfused post-norm blocks (the
    composites of `ad.post_norm` and `ad.ffn_post_norm`) and the attention
    `attend`, composite by default; every layer computes every row unless
    last_only, which slices the final layer's rows as the encoder does."""
    for i, layer in enumerate(params.layers):
        rows = x
        if last_only and i == len(params.layers) - 1:
            rows = ad.getitem(x, (slice(None), slice(-1, None)))
        ctx = attend(ad.linear(rows, layer.wq), ad.linear(x, layer.wk),
                     ad.linear(x, layer.wv), params.heads, key_mask,
                     1.0 / np.sqrt(params.dim))
        x = composite_post_norm(rows, ctx, layer.wo, None, layer.ln1_gain, layer.ln1_bias)
        x = composite_ffn_post_norm(x, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2,
                                    layer.ffn_b2, layer.ln2_gain, layer.ln2_bias)
    return x


def reference_chain_tokens(source_attribute, relations, query_attributes, embeddings,
                           params, include_end: bool = True):
    """The per-token form of `encoder.chain_tokens`: the ball rows gathered
    token by token into (m, L + 2, filter_dim), the composite log map and
    the lift run on every gathered token, and the end token broadcast to
    every chain and concatenated last."""
    m = len(source_attribute)
    lengths = chain_lengths(relations)
    longest = int(lengths.max())
    n_rel = embeddings.relations.shape[0]
    ids = np.full((m, longest + 2), -1, dtype=np.int64)
    for i, length in enumerate(lengths.tolist()):
        first = longest - length
        ids[i, first] = n_rel + source_attribute[i]
        ids[i, first + 1:-1] = relations[i, length - 1::-1]
        ids[i, -1] = n_rel + np.broadcast_to(query_attributes, (m,))[i]
    key_mask = np.arange(longest + 3) >= (longest - lengths)[:, None]
    table = ad.concat([embeddings.relations, embeddings.attributes,
                       ad.Tensor(np.zeros((1, embeddings.dim)))])
    ball = ad.reshape(ad.take_rows(table, ids.reshape(-1)),
                      (m, longest + 2, embeddings.dim))
    tangent = composite_log_map(ball, embeddings.curvature)
    if params.lift is not None:
        tangent = ad.linear(tangent, params.lift)
    if not include_end:
        return tangent, key_mask[:, :-1]
    dim = params.stack.dim
    end = broadcast_to(ad.reshape(params.end_token, (1, 1, dim)), (m, 1, dim))
    return ad.concat([tangent, end], axis=1), key_mask


def reference_encode_chains(source_attribute, relations, query_attributes, embeddings,
                            params):
    """`encoder.encode_chains` over per-token tokens and the full stack:
    every layer computes every token, then the end token's row is read."""
    tokens, key_mask = reference_chain_tokens(source_attribute, relations,
                                              query_attributes, embeddings, params)
    out = reference_transformer_stack(tokens, params.stack, key_mask)
    return ad.getitem(out, (slice(None), -1))


def per_row_affine_transfer(chain_reps, values, nets: AffineNets):
    """The per-row transfer that `encoder.affine_transfer` groups: one E_a
    (d, d) and one E_b built from every row's own bit stream."""
    m = chain_reps.shape[0]
    d = nets.dim
    bits = ad.Tensor(encode_values(values))
    ha = ad.relu(ad.linear(bits, nets.w1a, nets.b1a))
    ea = ad.reshape(ad.linear(ha, nets.w2a, nets.b2a), (m, d, d))
    hb = ad.relu(ad.linear(bits, nets.w1b, nets.b1b))
    eb = ad.linear(hb, nets.w2b, nets.b2b)
    transferred = ad.reshape(matmul(ad.reshape(chain_reps, (m, 1, d)), ea), (m, d))
    return ad.add(transferred, eb)


def reference_affine_transfer(chain_reps, pattern, values, nets: AffineNets, side: str):
    """The grouped transfer as composite tape ops, on the given side.

    side="value": both hidden layers and E_b run once per distinct value
    (key_groups of the values' bits) and are gathered to the value groups,
    where E_a is built and applied with one batched matmul; the fused node
    repeats this arithmetic bit for bit. side="pattern": the rows grouped by
    pattern, e^T W2a and e^T B built once per pattern group (from its first
    row) and both hidden layers run per slot. Pad slots read row 0; their
    output is never gathered back."""
    d = nets.dim
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if side == "value":
        keys, group_value, source, slot = key_groups(values.view(np.int64))
        g = len(group_value)
        bits = ad.Tensor(encode_values(keys.view(np.float64)))
        ha = ad.take_rows(ad.relu(ad.linear(bits, nets.w1a, nets.b1a)), group_value)
        ea = ad.reshape(ad.linear(ha, nets.w2a, nets.b2a), (g, d, d))
        eb = ad.linear(ad.relu(ad.linear(bits, nets.w1b, nets.b1b)), nets.w2b, nets.b2b)
        eb = ad.reshape(ad.take_rows(eb, group_value), (g, 1, d))
        grouped = ad.add(matmul(ad.take_rows(chain_reps, source), ea), eb)
    else:
        _, _, source, slot = key_groups(pattern)
        g = len(source)
        bits = ad.Tensor(encode_values(values[source]).reshape(source.shape + (64,)))
        ha = ad.relu(ad.linear(bits, nets.w1a, nets.b1a))
        eb = ad.linear(ad.relu(ad.linear(bits, nets.w1b, nets.b1b)), nets.w2b, nets.b2b)
        e = ad.take_rows(chain_reps, source[:, 0])
        # W2a as (d, H d): row i holds row i of every W_k
        w = ad.reshape(swapaxes(ad.reshape(nets.w2a, (-1, d, d)), 0, 1), (d, -1))
        y = ad.reshape(ad.linear(e, w), (g, -1, d))
        eb = ad.add(eb, ad.reshape(ad.linear(e, ad.reshape(nets.b2a, (d, d))), (g, 1, d)))
        grouped = ad.add(matmul(ha, y), eb)
    return ad.take_rows(ad.reshape(grouped, (source.size, d)), slot)


def force_transfer_plan(monkeypatch, plan: str) -> None:
    """Make `encoder.affine_transfer` take one plan at any map counts:
    "value", "pattern", or "split" (the rows split as cover_rows says; a
    cover that holds only values or only patterns still runs one side)."""
    monkeypatch.setattr(E, "MAP_ALLOWANCE", 10**9 if plan == "value" else -10**9)
    if plan == "pattern":
        monkeypatch.setattr(E, "cover_rows", lambda value, pattern: np.zeros(len(value), bool))


def recorded_plans(monkeypatch) -> list:
    """A list that the fused node of `encoder.affine_transfer` appends its
    plan to when it runs: "value" or "pattern" when it gets only that part,
    "split" when it gets both."""
    ran = []
    fused = E._transfer

    def recording(chain_reps, value_layout, value_part, pattern_part, nets):
        ran.append("pattern" if value_part is None else
                   "value" if pattern_part is None else "split")
        return fused(chain_reps, value_layout, value_part, pattern_part, nets)
    monkeypatch.setattr(E, "_transfer", recording)
    return ran


def maximum_matching(value, pattern) -> int:
    """The size of a maximum matching of the distinct (value, pattern) row
    pairs, by augmenting paths (Kuhn); by Koenig's theorem it is the size of
    a minimum vertex cover of the same bipartite graph."""
    partners: dict[int, list[int]] = {}
    for v, p in sorted(set(zip(np.asarray(value).tolist(), np.asarray(pattern).tolist()))):
        partners.setdefault(v, []).append(p)
    matched: dict[int, int] = {}  # pattern -> value

    def augment(v, seen) -> bool:
        for p in partners[v]:
            if p not in seen:
                seen.add(p)
                if p not in matched or augment(matched[p], seen):
                    matched[p] = v
                    return True
        return False

    return sum(augment(v, set()) for v in partners)


def reference_forward(model, etoc, i: int = 0):
    """The per-query forward that `Model.forward` batches: the usable chains
    of tree i of the record `etoc` as one left-padded chain set and an
    unpadded treeformer pass. Returns the prediction scalar, omega (m,) and
    proposals (m,) as tensors and the m used chains as RAChain objects, or
    None when no chain is usable."""
    cfg = model.config
    tree = etoc.trees([i])
    keep = [r for r, ch in enumerate(tree.chains) if model.stats.usable(ch.source_attribute)]
    if not keep:
        return None
    usable = tree.take(keep)
    chains = usable.chains
    m = len(chains)
    qa = tree.queries[0].attribute
    values_norm = np.array(
        [model.stats.normalize(ch.source_attribute, ch.source_value) for ch in chains])
    lengths = np.array([ch.length for ch in chains], dtype=np.int64)
    if cfg.use_chain_encoder:
        reps = reference_encode_chains(usable.source_attribute, usable.relations, qa,
                                       model.embeddings, model.encoder)
    else:
        tokens, key_mask = reference_chain_tokens(usable.source_attribute, usable.relations,
                                                  qa, model.embeddings, model.encoder,
                                                  include_end=False)
        reps = ad.mul(ad.tensor_sum(tokens, axis=1),
                      1.0 / key_mask.sum(axis=1, keepdims=True))
    transferred = (per_row_affine_transfer(reps, values_norm, model.affine)
                   if cfg.use_numerical_aware else reps)
    proposals = project_values(transferred, values_norm, model.heads)
    if cfg.use_chain_weighting:
        x = ad.add(reps, ad.take_rows(model.tree.length_table, lengths - 1))
        out = reference_transformer_stack(ad.reshape(x, (1,) + x.shape), model.tree.stack)
        omega = ad.softmax(ad.reshape(ad.linear(out, model.tree.w_out), (m,)))
    else:
        omega = ad.Tensor(np.full(m, 1.0 / m))
    return aggregate(omega, proposals), omega, proposals, chains


def reference_parameters(model, trained: bool) -> list:
    """The model's parameter lists written out by hand, part by part: what
    `Model.parameters()` (trained=True) and `Model.all_parameters()`
    (trained=False) return by walking the parts' dataclass fields."""
    cfg = model.config

    def stack(params):
        return [p for layer in params.layers
                for p in (layer.wq, layer.wk, layer.wv, layer.wo, layer.ln1_gain,
                          layer.ln1_bias, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2,
                          layer.ffn_b2, layer.ln2_gain, layer.ln2_bias)]

    enc, nets, tree = model.encoder, model.affine, model.tree
    lift = [] if enc.lift is None else [enc.lift]
    encoder = stack(enc.stack) + [enc.end_token] + lift
    affine = [nets.w1a, nets.b1a, nets.w2a, nets.b2a,
              nets.w1b, nets.b1b, nets.w2b, nets.b2b]
    heads = [p for head in (model.heads.alpha, model.heads.beta, model.heads.direct)
             if head is not None for p in (head.w1, head.b1, head.w2, head.b2)]
    weighting = [tree.length_table] + stack(tree.stack) + [tree.w_out]
    out = [model.embeddings.relations, model.embeddings.attributes]
    if not trained:
        return out + encoder + affine + heads + weighting
    out += encoder if cfg.use_chain_encoder else lift
    if cfg.use_numerical_aware:
        out += affine
    out += heads
    if cfg.use_chain_weighting:
        out += weighting
    return out


# ---------------------------------------------------------------------------
# prediction oracles: a trace per query from its chains' slice of the
# forward, and the pattern ranking over traces with dict accumulators


def reference_traces(model, etoc) -> list[PredictionTrace]:
    """What `Model.predict_trees(...).trace(i)` gives for every i: one
    forward over the record of selected sets without gradients, and a trace
    per set from its chains' slice of omega and proposals, with the forward's
    prediction; a set with no usable chain falls back to its attribute's
    training mean."""
    with ad.no_grad():
        result = model.forward(etoc)
    predictions = iter(() if result is None else result.prediction.data.tolist())
    traces = []
    for i, query in enumerate(etoc.queries):
        if result is not None and result.chains.sizes[i]:
            rows = slice(*result.chains.offsets[i:i + 2])
            traces.append(reference_trace(query, result.chains.trees([i]).chains,
                                          result.omega[rows], result.proposals[rows],
                                          model.stats, next(predictions)))
            continue
        value = float(model.means[query.attribute])
        norm = (model.stats.normalize(query.attribute, value)
                if model.stats.usable(query.attribute) else float("nan"))
        traces.append(PredictionTrace(query=query, predicted_norm=norm,
                                      predicted_value=value, fallback="attribute-mean"))
    return traces


def reference_trace(query, chains, omega, proposals_norm, stats,
                    predicted_norm: float | None = None) -> PredictionTrace:
    """The trace of one query's m used chains with their weights and
    proposals, largest weight first. The prediction is their own sum, or
    predicted_norm when given, which must equal that sum within 1e-12."""
    final_norm = float(np.sum(omega * proposals_norm))
    if predicted_norm is not None:
        assert abs(predicted_norm - final_norm) <= 1e-12, (predicted_norm, final_norm)
        final_norm = predicted_norm
    values = stats.denormalize(query.attribute, proposals_norm)
    contributions = [
        ChainContribution(chain=ch, weight=w, proposal_norm=p, proposal_value=v)
        for ch, w, p, v in zip(chains, omega.tolist(), proposals_norm.tolist(),
                               values.tolist())
    ]
    contributions.sort(key=lambda c: -c.weight)
    return PredictionTrace(
        query=query,
        predicted_norm=final_norm,
        predicted_value=float(stats.denormalize(query.attribute, final_norm)),
        contributions=contributions,
    )


def reference_top_patterns(traces) -> list[tuple[tuple, float, int]]:
    """Chain patterns ranked by total attention weight across traces, one
    contribution at a time into dicts; ties keep first-seen order."""
    weight: dict[tuple, float] = {}
    count: dict[tuple, int] = {}
    for trace in traces:
        for contrib in trace.contributions:
            pat = (contrib.chain.source_attribute, contrib.chain.relations)
            weight[pat] = weight.get(pat, 0.0) + contrib.weight
            count[pat] = count.get(pat, 0) + 1
    ranked = sorted(weight, key=lambda p: -weight[p])
    return [(p, weight[p], count[p]) for p in ranked]


def chainless_predictions(queries, values, fallback, stats, norm: float = 0.0) -> Predictions:
    """Predictions that used no chain: one value and fallback flag per
    query, and `norm` as every normalized prediction."""
    return Predictions(chain_sets(queries, [[]] * len(queries)), np.full(len(queries), norm),
                       np.asarray(values, dtype=np.float64), np.asarray(fallback, dtype=bool),
                       np.empty(0), np.empty(0), stats)


# ---------------------------------------------------------------------------
# statistics and evaluation oracles: one triple or query at a time, with
# per-attribute dict accumulators


def reference_attribute_stats(triples, n_attributes: int):
    """(mins, maxs, counts, means) per attribute, one triple at a time."""
    mins = np.full(n_attributes, np.inf)
    maxs = np.full(n_attributes, -np.inf)
    counts = np.zeros(n_attributes, dtype=np.int64)
    sums = np.zeros(n_attributes)
    for _, attr, value in triples.tolist():
        mins[attr] = min(mins[attr], value)
        maxs[attr] = max(maxs[attr], value)
        counts[attr] += 1
        sums[attr] += value
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return mins, maxs, counts, means


def reference_scoped_queries(kg, triples, model):
    """`training.scoped_queries` one (entity, attribute, value) tuple at a
    time, with the scope as a set of ids."""
    names = model.config.attributes
    unknown = [name for name in names or () if name not in kg.attribute_index]
    if unknown:
        raise ValueError(f"unknown attribute {unknown[0]!r} in config scope")
    scope = None if names is None else {kg.attribute_index[name] for name in names}
    return [q for q in (Query(entity=e, attribute=a, target=v) for e, a, v in triples.tolist())
            if model.stats.usable(q.attribute) and (scope is None or q.attribute in scope)]


def _reference_queries(kg, model, triples):
    queries = reference_scoped_queries(kg, triples, model)
    seen = {q.attribute for q in queries}
    skipped = [kg.attribute_names[a]
               for a in sorted({a for _, a, _ in triples.tolist()} - seen)
               if not model.stats.usable(a)]
    return queries, skipped


def _reference_report(kg, model, per_attr, skipped):
    rows = []
    for attr in sorted(per_attr):
        pairs = per_attr[attr]
        errs = np.array([e for e, _ in pairs])
        span = float(model.stats.maxs[attr] - model.stats.mins[attr])
        rows.append(EV.AttributeMetrics(
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
    return EV.MetricsReport(rows=rows, average_mae_norm=avg_mae,
                            average_rmse_norm=avg_rmse,
                            n_queries=sum(r.count for r in rows),
                            skipped_attributes=skipped)


def reference_evaluate(model, kg, triples, seed: int = 0):
    queries, skipped = _reference_queries(kg, model, triples)
    per_attr = {}
    seeds = [seed_for(seed, 3, 0, i) for i in range(len(queries))]
    predictions = model.predict_batch(kg, queries, seeds)
    for q, value, fallback in zip(queries, predictions.predicted_value.tolist(),
                                  predictions.fallback.tolist()):
        per_attr.setdefault(q.attribute, []).append((abs(value - q.target), int(fallback)))
    return _reference_report(kg, model, per_attr, skipped)


def reference_train_mean_baseline(model, kg, triples):
    queries, skipped = _reference_queries(kg, model, triples)
    per_attr = {}
    for q in queries:
        err = abs(float(model.means[q.attribute]) - q.target)
        per_attr.setdefault(q.attribute, []).append((err, 0))
    return _reference_report(kg, model, per_attr, skipped)


def reference_filter_composition(model, kg, triples, seed: int = 0):
    queries, _ = _reference_queries(kg, model, triples)
    acc = {}
    size = model.config.batch_size
    for lo in range(0, len(queries), size):
        chunk = range(lo, min(lo + size, len(queries)))
        toc = model.retrieve(kg, [queries[i] for i in chunk],
                             [seed_for(seed, 4, 0, i) for i in chunk])
        etoc = model.select(toc, [seed_for(seed, 5, 0, i) for i in chunk])
        for j, i in enumerate(chunk):
            q = queries[i]
            tree, kept = toc.trees([j]), etoc.trees([j])
            slot = acc.setdefault(q.attribute, {"q": 0, "tree": 0, "kept": 0,
                                                "tree_same": 0, "kept_same": 0})
            slot["q"] += 1
            slot["tree"] += len(tree)
            slot["kept"] += len(kept)
            slot["tree_same"] += int(np.sum(tree.source_attribute == q.attribute))
            slot["kept_same"] += int(np.sum(kept.source_attribute == q.attribute))
    return [EV.FilterAudit(
        attribute=attr,
        name=kg.attribute_names[attr],
        queries=s["q"],
        tree_chains=s["tree"],
        kept_chains=s["kept"],
        tree_same_attribute=s["tree_same"] / max(s["tree"], 1),
        kept_same_attribute=s["kept_same"] / max(s["kept"], 1),
    ) for attr, s in sorted(acc.items())]


# ---------------------------------------------------------------------------
# finite differences


def numeric_grad(f, arrays: dict[str, np.ndarray], eps: float = 1e-5):
    """Central-difference gradient of scalar f(arrays) per named array."""
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def check_gradients(build, arrays: dict[str, np.ndarray], tol: float = 1e-4) -> float:
    """build(params: dict[str, Tensor]) -> scalar Tensor. Returns worst rel err."""
    params = {k: ad.Parameter(v.copy(), name=k) for k, v in arrays.items()}
    out = build(params)
    ad.backward(out)
    analytic = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    def evaluate(values: dict[str, np.ndarray]) -> float:
        frozen = {k: ad.Parameter(v.copy(), name=k) for k, v in values.items()}
        return float(build(frozen).data)

    numeric = numeric_grad(evaluate, {k: v.copy() for k, v in arrays.items()})
    worst = max(max_rel_err(analytic[k], numeric[k]) for k in arrays)
    assert worst < tol, f"gradient mismatch {worst:.3e} >= {tol:.0e}"
    return worst


# ---------------------------------------------------------------------------
# the primitive-op inventory checked against finite differences


def grad_cases(rng: np.random.Generator):
    """(name, arrays, build) triples covering every differentiable primitive
    and fused layer, and the test-only ops above.

    Shapes stay small (<= 16 per axis) and inputs avoid kinks (relu/abs/clip
    boundaries) so central differences are trustworthy.
    """

    def away_from_zero(shape, low=0.2, high=1.0):
        mag = rng.uniform(low, high, shape)
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        return mag * sign

    cases = []

    def case(name, arrays, build):
        cases.append((name, arrays, build))

    case("add_broadcast",
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4,))},
         lambda p: ad.tensor_sum(ad.mul(ad.add(p["a"], p["b"]), rng_const_34)))
    case("sub",
         {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))},
         lambda p: ad.tensor_sum(ad.square(ad.sub(p["a"], p["b"]))))
    case("mul_broadcast",
         {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((3, 1))},
         lambda p: ad.tensor_sum(ad.mul(p["a"], p["b"])))
    case("div",
         {"a": rng.standard_normal((3, 4)), "b": away_from_zero((3, 4), 0.5, 2.0)},
         lambda p: ad.tensor_sum(div(p["a"], p["b"])))
    case("matmul",
         {"a": rng.standard_normal((3, 5)), "b": rng.standard_normal((5, 4))},
         lambda p: ad.tensor_sum(ad.square(matmul(p["a"], p["b"]))))
    case("matmul_batched",
         {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((2, 4, 3))},
         lambda p: ad.tensor_sum(matmul(p["a"], p["b"])))
    case("matmul_broadcast",
         {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((4, 5))},
         lambda p: ad.tensor_sum(ad.square(matmul(p["a"], p["b"]))))
    case("reshape_swap",
         {"a": rng.standard_normal((2, 3, 4))},
         lambda p: ad.tensor_sum(ad.square(
             swapaxes(ad.reshape(p["a"], (2, 12, 1)), 0, 1))))
    swapped = rng.standard_normal((4, 3, 2))
    case("swapaxes",
         {"a": rng.standard_normal((2, 3, 4))},
         lambda p: ad.tensor_sum(ad.mul(swapaxes(p["a"], 0, 2), swapped)))
    case("broadcast_to",
         {"a": rng.standard_normal((1, 4))},
         lambda p: ad.tensor_sum(ad.square(broadcast_to(p["a"], (3, 4)))))
    case("concat",
         {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((4, 3))},
         lambda p: ad.tensor_sum(ad.square(ad.concat([p["a"], p["b"]], axis=0))))
    case("getitem",
         {"a": rng.standard_normal((4, 5))},
         lambda p: ad.tensor_sum(ad.square(ad.getitem(p["a"], np.s_[1:3, ::2]))))
    case("take_rows_repeated",
         {"a": rng.standard_normal((5, 3))},
         lambda p: ad.tensor_sum(ad.square(
             ad.take_rows(p["a"], np.array([0, 2, 2, 4, 0])))))
    case("relu",
         {"a": away_from_zero((3, 4))},
         lambda p: ad.tensor_sum(ad.relu(p["a"])))
    case("exp",
         {"a": rng.standard_normal((3, 4))},
         lambda p: ad.tensor_sum(exp(p["a"])))
    case("log",
         {"a": rng.uniform(0.5, 2.0, (3, 4))},
         lambda p: ad.tensor_sum(log(p["a"])))
    case("sqrt",
         {"a": rng.uniform(0.5, 2.0, (3, 4))},
         lambda p: ad.tensor_sum(sqrt(p["a"])))
    case("square",
         {"a": rng.standard_normal((3, 4))},
         lambda p: ad.tensor_sum(ad.square(p["a"])))
    case("absolute",
         {"a": away_from_zero((3, 4))},
         lambda p: ad.tensor_sum(ad.absolute(p["a"])))
    case("arctanh",
         {"a": rng.uniform(-0.8, 0.8, (3, 4))},
         lambda p: ad.tensor_sum(arctanh(p["a"])))
    case("clip_interior",
         {"a": rng.uniform(0.2, 0.8, (3, 4))},
         lambda p: ad.tensor_sum(ad.square(ad.clip(p["a"], 0.0, 1.0))))
    case("sum_axis",
         {"a": rng.standard_normal((3, 4, 2))},
         lambda p: ad.tensor_sum(ad.square(ad.tensor_sum(p["a"], axis=1))))
    case("mean_keepdims",
         {"a": rng.standard_normal((3, 4))},
         lambda p: ad.tensor_sum(ad.square(mean(p["a"], axis=-1, keepdims=True))))
    case("softmax",
         {"a": rng.standard_normal((3, 5))},
         lambda p: ad.tensor_sum(ad.mul(ad.softmax(p["a"]), rng_const_35)))
    mask = np.array([[True, True, False, True, False],
                     [True, False, True, True, True],
                     [False, True, True, False, True]])
    case("softmax_masked",
         {"a": rng.standard_normal((3, 5))},
         lambda p: ad.tensor_sum(ad.mul(ad.softmax(p["a"], mask=mask), rng_const_35)))
    case("layer_norm",
         {"a": rng.standard_normal((3, 6)),
          "g": rng.uniform(0.5, 1.5, 6),
          "b": rng.standard_normal(6)},
         lambda p: ad.tensor_sum(ad.square(layer_norm(p["a"], p["g"], p["b"]))))
    case("layer_norm_3d",
         {"a": rng.standard_normal((2, 3, 6)),
          "g": rng.uniform(0.5, 1.5, 6),
          "b": rng.standard_normal(6)},
         lambda p: ad.tensor_sum(ad.mul(layer_norm(p["a"], p["g"], p["b"]),
                                        rng_const_236)))
    case("linear",
         {"x": rng.standard_normal((3, 4)), "w": rng.standard_normal((4, 2)),
          "b": rng.standard_normal(2)},
         lambda p: ad.tensor_sum(ad.square(ad.linear(p["x"], p["w"], p["b"]))))
    case("linear_no_bias",
         {"x": rng.standard_normal((3, 4)), "w": rng.standard_normal((4, 2))},
         lambda p: ad.tensor_sum(ad.square(ad.linear(p["x"], p["w"]))))
    case("linear_3d",
         {"x": rng.standard_normal((2, 3, 4)), "w": rng.standard_normal((4, 2)),
          "b": rng.standard_normal(2)},
         lambda p: ad.tensor_sum(ad.square(ad.linear(p["x"], p["w"], p["b"]))))
    case("linear_3d_no_bias",
         {"x": rng.standard_normal((2, 3, 4)), "w": rng.standard_normal((4, 2))},
         lambda p: ad.tensor_sum(ad.square(ad.linear(p["x"], p["w"]))))
    key_mask = np.array([[True, True, False, True],
                         [False, True, True, True]])
    case("attention",
         {"q": rng.standard_normal((2, 4, 6)), "k": rng.standard_normal((2, 4, 6)),
          "v": rng.standard_normal((2, 4, 6))},
         lambda p: ad.tensor_sum(ad.mul(ad.attention(p["q"], p["k"], p["v"], 2, key_mask, 0.5),
                                        rng_const_246)))
    case("attention_one_query",
         {"q": rng.standard_normal((2, 1, 6)), "k": rng.standard_normal((2, 4, 6)),
          "v": rng.standard_normal((2, 4, 6))},
         lambda p: ad.tensor_sum(ad.mul(ad.attention(p["q"], p["k"], p["v"], 2, key_mask, 0.5),
                                        rng_const_246[:, -1:])))
    rows = random_inball(rng, 6, 3, radius=0.9)
    rows[0] *= 0.9 / np.linalg.norm(rows[0])  # sqrt(c) |x| = 0.805
    case("log_map",
         {"a": rows},
         lambda p: ad.tensor_sum(ad.mul(ad.log_map(p["a"], 0.8), rng_const_63)))

    def norm_params(dim):
        return {"g": rng.uniform(0.5, 1.5, dim), "beta": rng.standard_normal(dim)}

    case("post_norm",
         {"r": rng.standard_normal((3, 6)), "h": rng.standard_normal((3, 4)),
          "w": rng.standard_normal((4, 6)), "b": rng.standard_normal(6), **norm_params(6)},
         lambda p: ad.tensor_sum(ad.mul(ad.post_norm(p["r"], p["h"], p["w"], p["b"],
                                                     p["g"], p["beta"]), rng_const_36)))
    case("post_norm_one_row_no_bias",
         {"r": rng.standard_normal((2, 1, 6)), "h": rng.standard_normal((2, 1, 6)),
          "w": rng.standard_normal((6, 6)), **norm_params(6)},
         lambda p: ad.tensor_sum(ad.mul(ad.post_norm(p["r"], p["h"], p["w"], None,
                                                     p["g"], p["beta"]), rng_const_216)))
    ffn = {"x": rng.standard_normal((2, 3, 6)), "w1": rng.standard_normal((6, 5)),
           "b1": rng.standard_normal(5), "w2": rng.standard_normal((5, 6)),
           "b2": rng.standard_normal(6), **norm_params(6)}
    pre = ffn["x"] @ ffn["w1"] + ffn["b1"]
    # both ReLU sides, each slot beyond the finite-difference step of the kink
    assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3
    case("ffn_post_norm_3d", ffn,
         lambda p: ad.tensor_sum(ad.mul(ad.ffn_post_norm(p["x"], p["w1"], p["b1"], p["w2"],
                                                         p["b2"], p["g"], p["beta"]),
                                        rng_const_236)))
    return cases


# fixed mixing constants so reductions see non-uniform output gradients
_mix_rng = np.random.default_rng(12345)
rng_const_34 = _mix_rng.standard_normal((3, 4))
rng_const_35 = _mix_rng.standard_normal((3, 5))
rng_const_236 = _mix_rng.standard_normal((2, 3, 6))
rng_const_246 = _mix_rng.standard_normal((2, 4, 6))
rng_const_63 = _mix_rng.standard_normal((6, 3))
rng_const_36 = _mix_rng.standard_normal((3, 6))
rng_const_216 = _mix_rng.standard_normal((2, 1, 6))
