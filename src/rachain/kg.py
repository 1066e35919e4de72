"""Knowledge-graph storage.

Relational facts are (head, relation, tail) triples; numerical facts are
(entity, attribute, value) triples, each split one (n,) structured array of
dtype `FACT` in file order (`as_facts` converts other rows). Loading streams
each file through one loop that interns names to dense ids in order of first
appearance, then synthesizes one inverse per base relation (ids R..2R-1 for
base ids 0..R-1), named `name + "_inv"`, and rejects a base relation already
named so. Only training-split numerical facts enter the graph; validation
and test values stay outside it so retrieval can never see a held-out answer.

The graph is stored once, in CSR (compressed sparse row) form, one offset
array per table: the out-edges of entity e are `edge_rel[i]`, `edge_tail[i]`
for `i` in `edge_indptr[e]:edge_indptr[e + 1]`, and its facts are
`fact_attr[i]`, `fact_value[i]` for `i` in `fact_indptr[e]:fact_indptr[e + 1]`.
`KnowledgeGraph` is built from an (n, 3) array of (head, relation, tail) ids
and the training FACT array, and keeps only these arrays. Rows are sorted
stably by head, so each entity keeps input order: every relational row's edge
followed by its inverse, and the training facts in file order. Duplicate
rows stay as separate entries. `len(kg.edge_tail)` counts the edges,
inverses included, and `len(kg.fact_attr)` the training facts.
"""

from __future__ import annotations

from array import array
from dataclasses import InitVar, dataclass, field
from math import isfinite

import numpy as np

INVERSE_SUFFIX = "_inv"
FACT = np.dtype([("entity", np.int64), ("attribute", np.int64), ("value", np.float64)])


class DatasetFormatError(ValueError):
    """Malformed input rows (wrong arity, unknown entity, bad value)."""


class StatsUnavailableError(ValueError):
    """Attribute has no training values; its value scale is undefined."""


class DegenerateAttributeError(ValueError):
    """Attribute whose training min equals its max; min-max scale is undefined."""


@dataclass(frozen=True)
class Query:
    """Ask for the value of `attribute` on `entity`; target kept for scoring."""

    entity: int
    attribute: int
    target: float | None = None


def as_facts(rows) -> np.ndarray:
    """(entity, attribute, value) tuples, or a FACT array, as one (n,) FACT array."""
    facts = np.asarray(rows, dtype=FACT)
    if facts.ndim != 1:
        raise ValueError(f"expected (entity, attribute, value) tuples, got shape {facts.shape}")
    return facts


@dataclass
class DatasetSplit:
    """The numerical facts of each split, each one (n,) FACT array."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.train, self.valid, self.test = map(as_facts, (self.train, self.valid, self.test))


@dataclass
class AttributeStats:
    """Per-attribute training-value ranges used for min-max normalization;
    `usable` and `normalize` work elementwise on arrays of ids."""

    mins: np.ndarray
    maxs: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_triples(cls, triples: np.ndarray, n_attributes: int) -> "AttributeStats":
        attrs, values = _attribute_ids(triples, n_attributes), triples["value"]
        mins, maxs = np.full(n_attributes, np.inf), np.full(n_attributes, -np.inf)
        np.minimum.at(mins, attrs, values)
        np.maximum.at(maxs, attrs, values)
        return cls(mins, maxs, np.bincount(attrs, minlength=n_attributes))

    @property
    def n_attributes(self) -> int:
        return len(self.counts)

    def _check(self, attribute) -> None:
        if np.any(self.counts[attribute] == 0):
            raise StatsUnavailableError(f"attribute {attribute} has no training values")
        if np.any(self.mins[attribute] == self.maxs[attribute]):
            raise DegenerateAttributeError(
                f"attribute {attribute} has a single training value "
                f"{self.mins[attribute]}; min-max scale undefined"
            )

    def normalize(self, attribute, value):
        self._check(attribute)
        return (value - self.mins[attribute]) / (self.maxs[attribute] - self.mins[attribute])

    def denormalize(self, attribute, value):
        self._check(attribute)
        return value * (self.maxs[attribute] - self.mins[attribute]) + self.mins[attribute]

    def usable(self, attribute):
        return (self.counts[attribute] > 0) & (self.mins[attribute] < self.maxs[attribute])


@dataclass
class KnowledgeGraph:
    entity_names: list[str]
    relation_names: list[str]  # base relations first, then their inverses
    attribute_names: list[str]
    edges: InitVar[np.ndarray]  # (n, 3) head, relation, tail ids, inverses included
    train_facts: InitVar[np.ndarray]  # training-split FACT array
    num_base_relations: int
    entity_index: dict[str, int] = field(default_factory=dict)
    relation_index: dict[str, int] = field(default_factory=dict)
    attribute_index: dict[str, int] = field(default_factory=dict)
    edge_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    edge_rel: np.ndarray = field(init=False, repr=False, compare=False)
    edge_tail: np.ndarray = field(init=False, repr=False, compare=False)
    fact_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    fact_attr: np.ndarray = field(init=False, repr=False, compare=False)
    fact_value: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, edges, train_facts):
        for names, index in ((self.entity_names, self.entity_index),
                             (self.relation_names, self.relation_index),
                             (self.attribute_names, self.attribute_index)):
            if not index:
                index.update((n, i) for i, n in enumerate(names))
        n = self.n_entities
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.edge_indptr, (self.edge_rel, self.edge_tail) = _csr(edges[:, 0], n, *edges[:, 1:].T)
        self.fact_indptr, (self.fact_attr, self.fact_value) = _csr(
            train_facts["entity"], n, train_facts["attribute"], train_facts["value"])

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_names)

    def invert_relation(self, relation):
        """The inverse relation id; elementwise on an array of ids."""
        r = self.num_base_relations
        return (relation + r) % (2 * r)


def _csr(rows: np.ndarray, n_rows: int, *columns: np.ndarray):
    """Row offsets, and `columns` stably sorted by `rows`."""
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    # one sort of (row, position) keys packed into int64s (both must fit 63
    # bits together): the position breaks ties, as a stable argsort would
    bits = len(rows).bit_length()
    order = np.sort((rows << bits) | np.arange(len(rows))) & ((1 << bits) - 1)
    return indptr, tuple(c[order] for c in columns)


class _Ids(dict):
    """Name -> id; looking up an unseen name gives it the next id."""

    def __missing__(self, name):
        self[name] = i = len(self)
        return i


def _parse_rows(path, numbered: bool):
    """The 3 tab-separated columns of each non-blank line of `path`, streamed:
    a list, or a (lineno, *columns) tuple if `numbered`."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            cols = line.rstrip("\r\n").split("\t")
            if len(cols) != 3 or "" in cols:
                if cols == [""]:
                    continue  # a blank line, still counted
                raise DatasetFormatError(f"{path}:{lineno}: " + (
                    f"expected 3 tab-separated columns, got {len(cols)}"
                    if len(cols) != 3 else "empty column"))
            yield (lineno, *cols) if numbered else cols


def build_dataset(relational_rows, train_rows, valid_rows=(), test_rows=(),
                  sources: tuple[str, str, str] = ("<train>", "<valid>", "<test>"),
                  ) -> tuple[KnowledgeGraph, DatasetSplit]:
    """Assemble a graph and splits from name-level rows, one row at a time.

    relational_rows: iterable of (head, relation, tail) strings.
    *_rows: iterables of (entity, attribute, value) strings, or of
    (lineno, entity, attribute, value) when line context is available.
    """
    entities, relations, attributes = _Ids(), _Ids(), _Ids()
    ids = array("q")
    add = ids.append
    for h, r, t in relational_rows:
        add(entities[h])
        add(relations[r])
        add(entities[t])
    base = np.frombuffer(ids, dtype=np.int64).reshape(-1, 3)

    n_base = len(relations)
    for name in list(relations):
        if name + INVERSE_SUFFIX in relations:
            raise DatasetFormatError(f"relation {name + INVERSE_SUFFIX!r} has the name "
                                     f"of the inverse of relation {name!r}")
        relations[name + INVERSE_SUFFIX] = len(relations)

    # each edge, then its inverse (t, r + n_base, h): this order is each
    # entity's out-edge order, which fixes the tree a seed samples
    edges = np.stack([base, base[:, ::-1] + [0, n_base, 0]], axis=1).reshape(-1, 3)

    def resolve_split(rows, label):
        facts = []
        for row in rows:
            e, a, v = row[-3:]
            entity = entities.get(e)
            try:
                value = float(v)
            except ValueError:
                value = None
            if entity is None or value is None or not isfinite(value):
                raise DatasetFormatError(f"{label}:{row[0] if len(row) == 4 else '?'}: " + (
                    f"entity {e!r} does not appear in the relational graph" if entity is None
                    else f"bad value {v!r}" if value is None else f"non-finite value {v!r}"))
            facts.append((entity, attributes[a], value))
        return np.fromiter(facts, dtype=FACT, count=len(facts))

    train, valid, test = (resolve_split(rows, label) for rows, label
                          in zip((train_rows, valid_rows, test_rows), sources))
    kg = KnowledgeGraph(entity_names=list(entities), relation_names=list(relations),
                        attribute_names=list(attributes), edges=edges, train_facts=train,
                        num_base_relations=n_base, entity_index=dict(entities),
                        relation_index=dict(relations), attribute_index=dict(attributes))
    return kg, DatasetSplit(train=train, valid=valid, test=test)


def load_dataset(relational_path, train_path, valid_path=None, test_path=None):
    """Load TSV files (head<TAB>relation<TAB>tail / entity<TAB>attribute<TAB>value),
    each opened when build_dataset reaches it and streamed row by row."""
    paths = (train_path, valid_path, test_path)
    return build_dataset(_parse_rows(relational_path, False),
                         *(() if p is None else _parse_rows(p, True) for p in paths),
                         sources=tuple(map(str, paths)))


def queries_from_triples(triples: np.ndarray) -> list[Query]:
    return [Query(entity=e, attribute=a, target=v) for e, a, v in triples.tolist()]


def _attribute_ids(facts: np.ndarray, n_attributes: int) -> np.ndarray:
    """The attribute column of `facts`, checked to lie in [0, n_attributes)."""
    attrs = facts["attribute"]
    if np.any((attrs < 0) | (attrs >= n_attributes)):
        raise ValueError(f"attribute ids must lie in [0, {n_attributes})")
    return attrs


def attribute_means(triples: np.ndarray, n_attributes: int) -> np.ndarray:
    """Mean training value per attribute (nan where an attribute has none)."""
    attrs = _attribute_ids(triples, n_attributes)
    counts = np.bincount(attrs, minlength=n_attributes)
    sums = np.bincount(attrs, weights=triples["value"], minlength=n_attributes)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def format_stats_report(kg: KnowledgeGraph, stats: AttributeStats) -> str:
    lines = [
        f"entities            {kg.n_entities}",
        f"base relations      {kg.num_base_relations}",
        f"relations (w/ inv)  {kg.n_relations}",
        f"attributes          {kg.n_attributes}",
        f"relational triples  {len(kg.edge_tail)}",
        f"numerical triples   {len(kg.fact_attr)}",
        "",
        f"{'attribute':<32} {'count':>8} {'min':>14} {'max':>14}",
    ]
    for a, name in enumerate(kg.attribute_names):
        if stats.counts[a] == 0:
            lines.append(f"{name:<32} {0:>8} {'-':>14} {'-':>14}  (no training values)")
            continue
        flag = "  (degenerate: min == max)" if stats.mins[a] == stats.maxs[a] else ""
        lines.append(f"{name:<32} {stats.counts[a]:>8} {stats.mins[a]:>14.4f} "
                     f"{stats.maxs[a]:>14.4f}{flag}")
    return "\n".join(lines) + "\n"
