"""Knowledge-graph storage.

Relational facts are (head, relation, tail) triples; numerical facts are
(entity, attribute, value) triples. Loading interns names to dense ids and
synthesizes one inverse per base relation (ids R..2R-1 for base ids 0..R-1).
Only training-split numerical facts enter the graph; validation/test values
stay outside it so retrieval can never see a held-out answer.

The graph is stored once, in CSR (compressed sparse row) form, one offset
array per table: the out-edges of entity e are `edge_rel[i]`, `edge_tail[i]`
for `i` in `edge_indptr[e]:edge_indptr[e + 1]`, and its facts are
`fact_attr[i]`, `fact_value[i]` for `i` in `fact_indptr[e]:fact_indptr[e + 1]`.
`KnowledgeGraph` is built from an (n, 3) array of (head, relation, tail) ids
and the training facts, and keeps only these arrays. Rows are sorted stably
by head, so each entity keeps input order: every relational row's edge
followed by its inverse, and the training facts in file order. Duplicate
rows stay as separate entries. `len(kg.edge_tail)` counts the edges,
inverses included, and `len(kg.fact_attr)` the training facts.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

INVERSE_SUFFIX = "_inv"


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


@dataclass
class DatasetSplit:
    train: list[tuple[int, int, float]]
    valid: list[tuple[int, int, float]]
    test: list[tuple[int, int, float]]


@dataclass
class AttributeStats:
    """Per-attribute training-value ranges used for min-max normalization;
    `usable` and `normalize` work elementwise on arrays of ids."""

    mins: np.ndarray
    maxs: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_triples(cls, triples, n_attributes: int) -> "AttributeStats":
        attrs, values = _attribute_columns(triples, n_attributes)
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
    train_facts: InitVar[list[tuple[int, int, float]]]  # training-split facts
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
        if not self.entity_index:
            self.entity_index = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_index:
            self.relation_index = {n: i for i, n in enumerate(self.relation_names)}
        if not self.attribute_index:
            self.attribute_index = {n: i for i, n in enumerate(self.attribute_names)}
        n = self.n_entities
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        self.edge_indptr, (self.edge_rel, self.edge_tail) = _csr(
            edges[:, 0], n, edges[:, 1], edges[:, 2])
        facts = np.asarray(train_facts, dtype=np.float64).reshape(-1, 3)
        self.fact_indptr, (self.fact_attr, self.fact_value) = _csr(
            facts[:, 0].astype(np.int64), n, facts[:, 1].astype(np.int64), facts[:, 2])

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
    order = np.argsort(rows, kind="stable")
    return indptr, tuple(c[order] for c in columns)


def _parse_rows(lines, n_cols: int, source: str):
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != n_cols:
            raise DatasetFormatError(
                f"{source}:{lineno}: expected {n_cols} tab-separated columns, got {len(cols)}"
            )
        if any(not c for c in cols):
            raise DatasetFormatError(f"{source}:{lineno}: empty column")
        yield lineno, cols


def _read_numerical(path) -> list[tuple[int, str, str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [(lineno, e, a, v) for lineno, (e, a, v) in _parse_rows(fh, 3, str(path))]


def _intern(name: str, index: dict[str, int], names: list[str]) -> int:
    if name not in index:
        index[name] = len(names)
        names.append(name)
    return index[name]


def build_dataset(
    relational_rows,
    train_rows,
    valid_rows=(),
    test_rows=(),
    sources: tuple[str, str, str] = ("<train>", "<valid>", "<test>"),
) -> tuple[KnowledgeGraph, DatasetSplit]:
    """Assemble a graph and splits from name-level rows.

    relational_rows: iterable of (head, relation, tail) strings.
    *_rows: iterables of (entity, attribute, value) strings, or of
    (lineno, entity, attribute, value) when line context is available.
    """
    entity_names: list[str] = []
    entity_index: dict[str, int] = {}
    relation_names: list[str] = []
    relation_index: dict[str, int] = {}
    attribute_names: list[str] = []
    attribute_index: dict[str, int] = {}

    # one row at a time, so a streamed file is never held whole
    base = np.fromiter((i for h, r, t in relational_rows
                        for i in (_intern(h, entity_index, entity_names),
                                  _intern(r, relation_index, relation_names),
                                  _intern(t, entity_index, entity_names))),
                       dtype=np.int64).reshape(-1, 3)

    n_base = len(relation_names)
    for name in list(relation_names):
        relation_index[name + INVERSE_SUFFIX] = len(relation_names)
        relation_names.append(name + INVERSE_SUFFIX)

    # each edge, then its inverse (t, r + n_base, h): this order is each
    # entity's out-edge order, which fixes the tree a seed samples
    edges = np.stack([base, base[:, ::-1] + [0, n_base, 0]], axis=1).reshape(-1, 3)

    def resolve_split(rows, label):
        triples = []
        for row in rows:
            lineno, (e, a, v) = (row[0], row[1:]) if len(row) == 4 else ("?", row)
            if e not in entity_index:
                raise DatasetFormatError(
                    f"{label}:{lineno}: entity {e!r} does not appear in the relational graph"
                )
            try:
                value = float(v)
            except ValueError:
                raise DatasetFormatError(f"{label}:{lineno}: bad value {v!r}") from None
            if not np.isfinite(value):
                raise DatasetFormatError(f"{label}:{lineno}: non-finite value {v!r}")
            aid = _intern(a, attribute_index, attribute_names)
            triples.append((entity_index[e], aid, value))
        return triples

    train = resolve_split(train_rows, sources[0])
    valid = resolve_split(valid_rows, sources[1])
    test = resolve_split(test_rows, sources[2])

    kg = KnowledgeGraph(
        entity_names=entity_names,
        relation_names=relation_names,
        attribute_names=attribute_names,
        edges=edges,
        train_facts=train,
        num_base_relations=n_base,
        entity_index=entity_index,
        relation_index=relation_index,
        attribute_index=attribute_index,
    )
    return kg, DatasetSplit(train=train, valid=valid, test=test)


def load_dataset(relational_path, train_path, valid_path=None, test_path=None):
    """Load TSV files (head<TAB>relation<TAB>tail / entity<TAB>attribute<TAB>value).

    The relational file is streamed into build_dataset row by row."""
    with open(relational_path, encoding="utf-8") as fh:
        return build_dataset(
            (row for _, row in _parse_rows(fh, 3, str(relational_path))),
            _read_numerical(train_path) if train_path is not None else [],
            _read_numerical(valid_path) if valid_path is not None else [],
            _read_numerical(test_path) if test_path is not None else [],
            sources=(str(train_path), str(valid_path), str(test_path)),
        )


def queries_from_triples(triples) -> list[Query]:
    return [Query(entity=e, attribute=a, target=v) for e, a, v in triples]


def _attribute_columns(triples, n_attributes: int) -> tuple[np.ndarray, np.ndarray]:
    """The attribute ids and values of (entity, attribute, value) triples."""
    attrs = np.fromiter((a for _, a, _ in triples), dtype=np.int64)
    if np.any((attrs < 0) | (attrs >= n_attributes)):
        raise ValueError(f"attribute ids must lie in [0, {n_attributes})")
    return attrs, np.fromiter((v for _, _, v in triples), dtype=np.float64)


def attribute_means(triples, n_attributes: int) -> np.ndarray:
    """Mean training value per attribute (nan where an attribute has none)."""
    attrs, values = _attribute_columns(triples, n_attributes)
    counts = np.bincount(attrs, minlength=n_attributes)
    sums = np.bincount(attrs, weights=values, minlength=n_attributes)
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
        lines.append(
            f"{name:<32} {stats.counts[a]:>8} {stats.mins[a]:>14.4f} {stats.maxs[a]:>14.4f}{flag}"
        )
    return "\n".join(lines) + "\n"
