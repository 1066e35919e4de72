"""Chain encoder.

A chain stored source -> query as relations (r_1, ..., r_l), r_1 leaving
the source and r_l reaching the query entity, becomes the token sequence
[source_attr, r_l, ..., r_1, query_attr, end]: the query-adjacent relation
follows the source token and the source-adjacent one precedes the query
token, and a learned end-of-chain token is appended. The vocabulary is
embedded once per batch: the ball rows of every relation and attribute are
pulled into the tangent space at the origin by the fused `log_map` node,
linearly lifted when the filter dimension differs from the encoder
dimension, and stacked with the end token and a zero row into one table, so
a batch's tokens are one gather from it. The chains of a whole mini-batch,
of mixed lengths and queries, are one batch: shorter chains are left-padded
with zero tokens that the attention masks out.
An encoder-only transformer (post-norm, residual, multi-head attention
scaled by 1/sqrt(model_dim)) contextualizes the sequence. A layer is six
tape nodes: the q, k and v projections, one fused `attention` node that
splits the rows into heads and merges them back itself, one `post_norm`
node for the output projection, residual sum and layer norm, and one
`ffn_post_norm` node for the feed-forward block, its residual sum and
layer norm. The end token's output is the chain representation. Only that
output is read, so the last layer computes the end token alone: its keys
and values still come from every token, but its query, residual, layer
norms and feed-forward run on one row per chain.

The numerical-aware affine transfer conditions that representation on the
source value: the value's Float64 big-endian bit pattern (64 zeros/ones)
drives two MLPs producing a matrix E_a and shift E_b, giving
E_a^T e_chain + E_b. At initialization E_a is the identity and E_b zero.
E_a is bilinear in the value's hidden activation and the chain's pattern
representation, so each row can be served on either side: rows that share
a value share E_a, built once per value group, and rows that share a
pattern share e^T W2a, built once per pattern group. A call runs on the
value side, on the pattern side when the value side would build more than
MAP_ALLOWANCE maps more, or split between the sides by a cover of its
(value, pattern) pairs (cover_rows) when the cover holds more than
MAP_ALLOWANCE fewer values and patterns than the side so picked
(affine_transfer). Rows are grouped by an integer key (key_groups) and each
group applied in one batched matmul, never as a per-row (m, d, d) tensor.
Every plan is the same fused tape node (_transfer), given the rows of each
side; its backward keeps only what it reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _accumulate,
    _make,
    attention,
    concat,
    ffn_post_norm,
    getitem,
    linear,
    log_map,
    post_norm,
    reshape,
    take_rows,
)
from .filter import FilterEmbeddings
from .retrieval import chain_lengths

# ---------------------------------------------------------------------------
# Float64 bit-stream


def encode_values(values) -> np.ndarray:
    """The 64 bits of each value's IEEE-754 double encoding, sign bit first,
    as one (n, 64) array for n values."""
    values = np.asarray(values, dtype=np.float64)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(f"cannot encode non-finite value {bad[0]}")
    raw = values.astype(">f8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, axis=1).astype(np.float64)


# ---------------------------------------------------------------------------
# transformer


def _normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return rng.standard_normal(shape) * std


@dataclass
class LayerParams:
    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    ln1_gain: Parameter
    ln1_bias: Parameter
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, ffn_dim: int, tag: str):
        def p(name, shape, std=0.02):
            return Parameter(_normal(rng, shape, std), name=f"{tag}.{name}")

        return cls(
            wq=p("wq", (dim, dim)),
            wk=p("wk", (dim, dim)),
            wv=p("wv", (dim, dim)),
            wo=p("wo", (dim, dim)),
            ln1_gain=Parameter(np.ones(dim), name=f"{tag}.ln1_gain"),
            ln1_bias=Parameter(np.zeros(dim), name=f"{tag}.ln1_bias"),
            ffn_w1=p("ffn_w1", (dim, ffn_dim)),
            ffn_b1=Parameter(np.zeros(ffn_dim), name=f"{tag}.ffn_b1"),
            ffn_w2=p("ffn_w2", (ffn_dim, dim)),
            ffn_b2=Parameter(np.zeros(dim), name=f"{tag}.ffn_b2"),
            ln2_gain=Parameter(np.ones(dim), name=f"{tag}.ln2_gain"),
            ln2_bias=Parameter(np.zeros(dim), name=f"{tag}.ln2_bias"),
        )


@dataclass
class TransformerParams:
    layers: list[LayerParams]
    heads: int
    dim: int

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_layers: int, heads: int,
               ffn_dim: int | None = None, tag: str = "enc"):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by {heads} heads")
        ffn_dim = 2 * dim if ffn_dim is None else ffn_dim
        layers = [LayerParams.create(rng, dim, ffn_dim, f"{tag}.layer{i}")
                  for i in range(n_layers)]
        return cls(layers=layers, heads=heads, dim=dim)


def transformer_stack(x: Tensor, params: TransformerParams,
                      key_mask: np.ndarray | None = None,
                      last_only: bool = False) -> Tensor:
    """Post-norm encoder: x = LN(x + attn(x)); x = LN(x + ffn(x)) per layer,
    attn projecting q, k and v, running the fused multi-head `attention`
    node and projecting its merged heads with wo; each block's residual sum
    and norm are fused into its last node (`post_norm`, `ffn_post_norm`).

    A row depends on the other rows only through the keys and values, so
    with last_only the final layer computes only the last row of x (its
    keys and values still come from every row) and the result is
    (b, 1, dim), equal to the last row of the full result.
    """
    for i, layer in enumerate(params.layers):
        rows = x
        if last_only and i == len(params.layers) - 1:
            rows = getitem(x, (slice(None), slice(-1, None)))
        heads = attention(linear(rows, layer.wq), linear(x, layer.wk), linear(x, layer.wv),
                          params.heads, key_mask, 1.0 / np.sqrt(params.dim))
        x = post_norm(rows, heads, layer.wo, None, layer.ln1_gain, layer.ln1_bias)
        x = ffn_post_norm(x, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2,
                          layer.ln2_gain, layer.ln2_bias)
    return x


# ---------------------------------------------------------------------------
# tokenization and encoding


@dataclass
class ChainEncoderParams:
    stack: TransformerParams
    end_token: Parameter
    lift: Parameter | None  # maps filter_dim -> dim when they differ

    @classmethod
    def create(cls, rng: np.random.Generator, filter_dim: int, dim: int,
               n_layers: int, heads: int):
        lift = None
        if filter_dim != dim:
            lift = Parameter(_normal(rng, (filter_dim, dim), 1.0 / np.sqrt(filter_dim)),
                             name="enc.lift")
        return cls(
            stack=TransformerParams.create(rng, dim, n_layers, heads, tag="enc"),
            end_token=Parameter(_normal(rng, (dim,)), name="enc.end_token"),
            lift=lift,
        )


def chain_tokens(source_attribute: np.ndarray, relations: np.ndarray, query_attributes,
                 embeddings: FilterEmbeddings, params: ChainEncoderParams,
                 include_end: bool = True) -> tuple[Tensor, np.ndarray]:
    """Left-padded, masked tokens (m, L + 3, dim) and key mask (m, L + 3) for
    m chains given as rows of a chain set (`retrieval.TreeOfChains` layout:
    relations right-padded with -1), L the longest chain length.

    query_attributes is one attribute for every chain or one per chain. The
    tokens are one gather from one table: the log-mapped (and lifted)
    relation and attribute rows, the end token, then a zero row. A chain of
    length l >= 1 fills the last l + 3 slots; the L - l leading pad slots
    read the zero row and are masked out, so the end token is always last.
    include_end=False drops the end-of-chain token (m, L + 2, dim) and
    leaves it out of the table, for the transformer-free variant that
    mean-pools the tokens.
    """
    m = len(source_attribute)
    lengths = chain_lengths(relations)
    longest = int(lengths.max())
    n_rel = embeddings.relations.shape[0]

    # rows of [relations; attributes; end; zero], so a -1 pad id reads the
    # zero row; read backwards, right-padded relations are left-padded in
    # token order, the query-adjacent relation first
    ids = np.full((m, longest + 3), -1, dtype=np.int64)
    ids[:, 1:-2] = relations[:, longest - 1::-1]
    first = longest - lengths  # each row's first unmasked slot, its source
    ids[np.arange(m), first] = n_rel + source_attribute
    ids[:, -2] = n_rel + np.asarray(query_attributes)
    ids[:, -1] = n_rel + embeddings.attributes.shape[0]
    key_mask = np.arange(longest + 3) >= first[:, None]

    words = log_map(concat([embeddings.relations, embeddings.attributes]),
                    embeddings.curvature)
    if params.lift is not None:
        words = linear(words, params.lift)
    dim = params.stack.dim
    rows = [words]
    if include_end:
        rows.append(reshape(params.end_token, (1, dim)))
    else:
        ids, key_mask = ids[:, :-1], key_mask[:, :-1]
    table = concat(rows + [Tensor(np.zeros((1, dim)))])
    return take_rows(table, ids), key_mask


def encode_chains(source_attribute: np.ndarray, relations: np.ndarray, query_attributes,
                  embeddings: FilterEmbeddings, params: ChainEncoderParams) -> Tensor:
    """Chain representations (m, dim): the end token's contextualized output,
    from one masked pass over the left-padded chain set (see chain_tokens
    for the arguments)."""
    tokens, key_mask = chain_tokens(source_attribute, relations, query_attributes,
                                    embeddings, params)
    out = transformer_stack(tokens, params.stack, key_mask=key_mask, last_only=True)
    return reshape(out, (len(source_attribute), params.stack.dim))


# ---------------------------------------------------------------------------
# numerical-aware affine transfer


@dataclass
class AffineNets:
    """Two bit-stream-driven MLPs: 64 -> hidden -> dim*dim and 64 -> hidden -> dim."""

    w1a: Parameter
    b1a: Parameter
    w2a: Parameter
    b2a: Parameter
    w1b: Parameter
    b1b: Parameter
    w2b: Parameter
    b2b: Parameter
    dim: int

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, hidden: int = 256):
        # final layers start at zero so the transfer opens as the identity map
        return cls(
            w1a=Parameter(_normal(rng, (64, hidden), 0.05), name="affine.w1a"),
            b1a=Parameter(np.zeros(hidden), name="affine.b1a"),
            w2a=Parameter(np.zeros((hidden, dim * dim)), name="affine.w2a"),
            b2a=Parameter(np.eye(dim).reshape(-1), name="affine.b2a"),
            w1b=Parameter(_normal(rng, (64, hidden), 0.05), name="affine.w1b"),
            b1b=Parameter(np.zeros(hidden), name="affine.b1b"),
            w2b=Parameter(np.zeros((hidden, dim)), name="affine.w2b"),
            b2b=Parameter(np.zeros(dim), name="affine.b2b"),
            dim=dim,
        )


def key_groups(keys, map_cost: int | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by an integer key for a batched per-group product.

    With n distinct keys among m rows and width = ceil(m / n), each key's
    rows, in row order, are cut into groups of at most `width`, so there are
    G <= 2n groups and fewer than 3m slots in the (G, width) layout;
    all-distinct keys give width 1 and G = m. Given map_cost, a group's
    cost in slots, the width is instead the largest count (one group per
    key) when that makes G * (map_cost + width) smaller. Returns (distinct
    (n,) keys, group_key (G,) index of each group's key in distinct,
    source (G, width) the row in each slot, row 0 in pad slots, slot (m,)
    each row's flat index into source).
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1)
    m = len(keys)
    # a set is the cheapest test at prediction size
    if len(set(keys.tolist())) == m:
        rows = np.arange(m)
        return keys, rows, rows.reshape(m, 1), rows
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # bounds of each key's run of rows in sorted order, then m
    is_bound = np.empty(m + 1, dtype=bool)
    is_bound[0] = is_bound[m] = True
    np.not_equal(ordered[1:], ordered[:-1], out=is_bound[1:m])
    bounds = np.flatnonzero(is_bound)
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    width = -(-m // len(starts))
    groups = (counts + (width - 1)) // width
    if map_cost is not None:
        widest = int(counts.max())
        if len(starts) * (map_cost + widest) < groups.sum() * (map_cost + width):
            width, groups = widest, np.ones_like(counts)
    # a key's r-th row takes slot r of its first group: its sorted position
    # shifted by the pad slots of the keys before it
    pad_before = (np.cumsum(groups) - groups) * width - starts
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.arange(m) + np.repeat(pad_before, counts)
    group_key = np.repeat(np.arange(len(starts)), groups)
    source = np.zeros((len(group_key), width), dtype=np.int64)
    source.reshape(-1)[slot] = np.arange(m)
    return ordered[starts], group_key, source, slot


# A call leaves the value side only for a plan that builds more than this many
# maps fewer: the pattern side, counted in groups, and then a split by the
# cover, counted in the distinct values and patterns it holds against the
# picked side's. Either pays a fixed cost per call that the maps it saves
# must outweigh: per-slot gathers of the hidden activations and, for a
# split, the cover and a second grouping of the rows. On the benchmark
# graphs (seed 7) train_small calls take the pattern side, whose 86-184
# patterns the cover beats by at most 18, and predict_dense calls take it
# with the cover no smaller; train_wide training batches split (cover
# 190-240 against 298-389 values) and so does its evaluate chunk (198
# against 334). A call of at most MAP_ALLOWANCE + 1 value groups cannot
# leave the value side (neither plan saves more than G - 1 maps), so it
# returns before grouping the patterns: every one-query forward of
# train_small and predict_dense does (top_k 16 rows). train_wide's wider
# one-query forwards keep the value side too: the cover saves at most 14
# maps there. The matching bound, which spares computing the cover, allows
# at most 14 there and 24 on train_small calls.
MAP_ALLOWANCE = 32


def affine_transfer(chain_reps: Tensor, pattern, values, nets: AffineNets) -> Tensor:
    """E_a(value)^T e_chain + E_b(value), batched over m chains; rows with
    one pattern index (pattern (m,), in [0, P)) hold one representation.

    E_a^T e = sum_k h_k e^T W_k + e^T B is bilinear in e and the value's
    hidden activation h = relu(bits W1a + b1a) (W_k is row k of W2a and B
    is b2a, each as a (d, d) matrix), so a row can be served by its value's
    map E_a (d, d) or by its pattern's map e^T W2a (H, d), each H d^2
    multiply-adds. The rows are grouped by their values' bits (key_groups;
    -0.0 and 0.0 stay apart) into G groups, and by pattern into G' groups;
    each side builds one map per group. A call of G <= MAP_ALLOWANCE + 1
    stays on the value side before the patterns are grouped: the pattern
    side saves G - G' <= G - 1 maps and a cover at most (distinct values)
    - 1 <= G - 1, neither more than MAP_ALLOWANCE. Otherwise the pattern
    side is picked when G - G' > MAP_ALLOWANCE. Then, unless a cheap bound
    (_matching_size) shows that it cannot, the rows are split by
    cover_rows, a small set of values and patterns whose maps serve every
    row. The call splits when that cover holds more than MAP_ALLOWANCE
    fewer values and patterns than the picked side has distinct keys.

    Every plan runs the one fused tape node _transfer: a single side gets
    the layout its rule was decided on as its part, over every row; a split
    groups each part's rows again (key_groups, weighing a map against its
    slots), since the cover's values and patterns hold the most rows and
    one group per key, one map per cover member, usually costs less than
    narrower groups.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    pattern = np.asarray(pattern, dtype=np.int64).reshape(-1)
    value_layout = key_groups(values.view(np.int64))
    every = slice(None)
    if len(value_layout[1]) <= MAP_ALLOWANCE + 1:
        return _transfer(chain_reps, value_layout, (every, *value_layout[1:]), None, nets)
    pattern_layout = key_groups(pattern)
    on_pattern = len(value_layout[1]) - len(pattern_layout[1]) > MAP_ALLOWANCE
    picked = len((pattern_layout if on_pattern else value_layout)[0])
    if picked - 1 > MAP_ALLOWANCE:  # a cover holds at least one value or pattern
        row_value, row_pattern = _row_keys(value_layout), _row_keys(pattern_layout)
        bound = _matching_size(row_value, row_pattern, len(pattern_layout[0]))
        if picked - bound > MAP_ALLOWANCE:
            on_value = cover_rows(row_value, row_pattern)
            maps = _distinct(row_value[on_value]) + _distinct(row_pattern[~on_value])
            if picked - maps > MAP_ALLOWANCE:
                if on_value.any() and not on_value.all():
                    # a value group's map costs H d^2 and each slot d^2; a
                    # pattern group's map H d^2 and each slot H d
                    vrows, prows = np.flatnonzero(on_value), np.flatnonzero(~on_value)
                    vkeys, vgroup, vsource, vslot = key_groups(row_value[vrows],
                                                               map_cost=nets.w2a.shape[0])
                    pkeys, pgroup, psource, pslot = key_groups(row_pattern[prows],
                                                               map_cost=nets.dim)
                    return _transfer(chain_reps, value_layout,
                                     (vrows, vkeys[vgroup], vrows[vsource], vslot),
                                     (prows, pkeys[pgroup], prows[psource], pslot), nets)
                on_pattern = not on_value.any()
    if on_pattern:
        return _transfer(chain_reps, value_layout, None, (every, *pattern_layout[1:]), nets)
    return _transfer(chain_reps, value_layout, (every, *value_layout[1:]), None, nets)


def _row_keys(layout) -> np.ndarray:
    """Each row's key as an index into the distinct keys of its key_groups layout."""
    _, group_key, source, slot = layout
    return group_key[slot // source.shape[1]]


def _distinct(ids: np.ndarray) -> int:
    return int(np.count_nonzero(np.bincount(ids)))


def _matching_size(value: np.ndarray, pattern: np.ndarray, n_pattern: int) -> int:
    """The size of one matching of the (value, pattern) row pairs, a lower
    bound on the size of any cover: each pattern takes its row whose value
    has the fewest rows (the first such row), and each value so taken counts
    once."""
    m = len(value)
    best = np.full(n_pattern, m * m + m)
    np.minimum.at(best, pattern, np.bincount(value)[value] * m + np.arange(m))
    return _distinct(value[best % m])


def cover_rows(value: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """For each row (value (m,) and pattern (m,) indices from 0) whether its
    value's map serves it (True) or its pattern's map (False).

    The values and patterns whose maps are built form a vertex cover of the
    bipartite graph of distinct (value, pattern) pairs, found by leaf
    peeling in rounds. In a round, every value or pattern with one remaining
    partner hands its rows to that partner, and rows whose value and pattern
    are both taken stay on the value side (so does a value and pattern pair
    with no other partner). A round with no such leaf takes the value or
    pattern with the most remaining rows (values first on ties, then the
    lowest index). The partners of leaves all belong to one minimum cover,
    so the cover is minimum on forests; elsewhere it can exceed the minimum
    (the size of a maximum matching, by Koenig's theorem). It is
    deterministic, a function of the indices alone. A round costs O(pairs),
    and a round with no leaf removes one value or pattern.
    """
    n_pattern = int(pattern.max()) + 1
    edges, row_edge = np.unique(value * n_pattern + pattern, return_inverse=True)
    edge_value, edge_pattern = np.divmod(edges, n_pattern)
    edge_rows = np.bincount(row_edge)
    on_value = np.zeros(len(edges), dtype=bool)
    live = np.arange(len(edges))
    while live.size:
        v, p = edge_value[live], edge_pattern[live]
        value_degree, pattern_degree = np.bincount(v), np.bincount(p)
        value_leaf, pattern_leaf = value_degree[v] == 1, pattern_degree[p] == 1
        taken_value = np.zeros(len(value_degree), dtype=bool)
        taken_pattern = np.zeros(len(pattern_degree), dtype=bool)
        if value_leaf.any() or pattern_leaf.any():
            taken_value[v[pattern_leaf]] = True
            taken_pattern[p[value_leaf]] = True
        else:
            value_rows = np.bincount(v, edge_rows[live])
            pattern_rows = np.bincount(p, edge_rows[live])
            if value_rows.max() >= pattern_rows.max():
                taken_value[value_rows.argmax()] = True
            else:
                taken_pattern[pattern_rows.argmax()] = True
        by_value = taken_value[v]
        on_value[live[by_value]] = True
        live = live[~(by_value | taken_pattern[p])]
    return on_value[row_edge]


def _hidden(bits: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """relu(bits @ w + b), as `linear` and `relu` compute it."""
    h = bits @ w.data
    h += b.data
    return np.maximum(h, 0.0, out=h)


def _output_grads(h: np.ndarray, g: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """Accumulate the gradients of w and b in h @ w + b for its gradient g
    (rows, p); returns the gradient of h."""
    _accumulate(w, h.T @ g)
    _accumulate(b, g.sum(axis=0))
    return g @ w.data.T


def _hidden_grads(bits: np.ndarray, h: np.ndarray, dh: np.ndarray, w: Tensor,
                  b: Tensor) -> None:
    """Accumulate the gradients of w and b in h = relu(bits @ w + b)."""
    dpre = dh * (h > 0.0)
    _accumulate(w, bits.T @ dpre)
    _accumulate(b, dpre.sum(axis=0))


def _slotted(g: np.ndarray, slot: np.ndarray, groups: int, width: int) -> np.ndarray:
    """The (m, d) row gradient g in a (groups, width, d) layout, zero in pad slots."""
    out = np.zeros((groups * width, g.shape[1]))
    out[slot] = g
    return out.reshape(groups, width, -1)


def _value_maps(ha: np.ndarray, nets: AffineNets) -> np.ndarray:
    """E_a (rows, d, d) for hidden activations ha (rows, H)."""
    ea = ha @ nets.w2a.data
    ea += nets.b2a.data
    return ea.reshape(len(ha), nets.dim, nets.dim)


def _key_starts(group_key: np.ndarray) -> np.ndarray:
    """The first group of each key, its groups being consecutive."""
    is_start = np.ones(len(group_key), dtype=bool)
    np.not_equal(group_key[1:], group_key[:-1], out=is_start[1:])
    return np.flatnonzero(is_start)


def _transfer(chain_reps: Tensor, value_layout, value_part, pattern_part,
              nets: AffineNets) -> Tensor:
    """The transfer of every plan as one tape node.

    value_layout is the key_groups layout of the rows' values. Each part is
    None or (rows, group key, source rows, slot): the rows it serves (an
    index array, or a slice for all of them) in a key_groups layout whose
    source holds row ids and whose slot gives each of those rows' flat
    index into source. The value part's groups each build E_a from the
    distinct value their group key indexes and apply it with one
    (G, width, d) @ (G, d, d) matmul. The pattern part's groups each build
    y = e^T W_k for all k from their first row's representation e, with
    W2a viewed as (H, d, d), and contract it with each slot's hidden
    activation in one (G', width, H) @ (G', H, d) matmul, adding e^T B; its
    group keys are not read. A pad slot reads row 0 and its output is never
    gathered back.

    Both hidden layers and E_b run once per distinct value. A single part's
    output is the node's; a split places each part's rows. E_b is then
    added per row. The backward gives pad slots a zero gradient, sums E_b's
    and both parts' hidden-activation gradients per distinct value (through
    value_layout: each group's slots, then each value's groups) and makes
    one pass through each hidden layer. The gradient of a pattern group's
    rows goes to its first row, as one product with W2a's (H d, d)
    transpose."""
    d = nets.dim
    keys, group_value, source, slot = value_layout
    bits = encode_values(keys.view(np.float64))
    ha = _hidden(bits, nets.w1a, nets.b1a)
    hb = _hidden(bits, nets.w1b, nets.b1b)
    eb = hb @ nets.w2b.data
    eb += nets.b2b.data
    row_value = _row_keys(value_layout)
    parts = []  # (rows, their output before E_b) of each part
    if value_part is not None:
        vrows, vkey, vsource, vslot = value_part
        ha_groups = ha.take(vkey, axis=0)
        ea = _value_maps(ha_groups, nets)
        xs = chain_reps.data.take(vsource, axis=0)
        # row-vector form: (e^T E_a)^T == E_a^T e
        parts.append((vrows, (xs @ ea).reshape(-1, d).take(vslot, axis=0)))
    if pattern_part is not None:
        prows, _, psource, pslot = pattern_part
        first = psource[:, 0]
        e = chain_reps.data.take(first, axis=0)
        hs = ha.take(row_value[psource], axis=0)
        w3 = nets.w2a.data.reshape(-1, d, d)
        y = np.matmul(e, w3)  # (H, G', d)
        grouped = hs @ y.transpose(1, 0, 2)
        grouped += (e @ nets.b2a.data.reshape(d, d))[:, None]
        parts.append((prows, grouped.reshape(-1, d).take(pslot, axis=0)))
    if len(parts) == 1:
        out = parts[0][1]
    else:
        out = np.empty((len(row_value), d))
        for rows, rows_out in parts:
            out[rows] = rows_out
    out += eb.take(row_value, axis=0)

    def backward_fn(gout):
        starts = _key_starts(group_value)

        def per_value(g: np.ndarray, rows=slice(None)) -> np.ndarray:
            """g, the (rows, c) gradient of `rows`, summed per distinct value."""
            groups = _slotted(g, slot[rows], *source.shape).sum(axis=1)
            return np.add.reduceat(groups, starts, axis=0)

        dhb = _output_grads(hb, per_value(gout), nets.w2b, nets.b2b)
        _hidden_grads(bits, hb, dhb, nets.w1b, nets.b1b)
        dha = np.zeros_like(ha) if pattern_part is None else None
        row_grads = []  # (rows, their gradient) of each part, for chain_reps
        if pattern_part is not None:
            gp = _slotted(gout[prows], pslot, *psource.shape)
            dy = np.matmul(hs.transpose(0, 2, 1), gp)  # (G', H, d)
            gsum = gp.sum(axis=1)
            _accumulate(nets.w2a, np.matmul(e.T, dy.transpose(1, 0, 2)).reshape(-1, d * d))
            _accumulate(nets.b2a, (e.T @ gsum).reshape(-1))
            dhs = gp @ y.transpose(1, 2, 0)
            dha = per_value(dhs.reshape(-1, ha.shape[1]).take(pslot, axis=0), prows)
            if chain_reps.requires_grad:
                de = gsum @ nets.b2a.data.reshape(d, d).T
                de += dy.reshape(len(e), -1) @ w3.transpose(0, 2, 1).reshape(-1, d)
                row_grads.append((first, de))
        if value_part is not None:
            gv = _slotted(gout[vrows], vslot, *vsource.shape)
            dea = (np.moveaxis(xs, -1, -2) @ gv).reshape(len(ha_groups), -1)
            dha_groups = _output_grads(ha_groups, dea, nets.w2a, nets.b2a)
            vstarts = _key_starts(vkey)
            dha[vkey[vstarts]] += np.add.reduceat(dha_groups, vstarts, axis=0)
            if chain_reps.requires_grad:
                dxs = gv @ np.moveaxis(ea, -1, -2)
                row_grads.append((vrows, dxs.reshape(-1, d).take(vslot, axis=0)))
        _hidden_grads(bits, ha, dha, nets.w1a, nets.b1a)
        if row_grads:
            drows = np.zeros_like(chain_reps.data)
            for rows, g in row_grads:
                drows[rows] = g
            _accumulate(chain_reps, drows)

    return _make(out, (chain_reps, nets.w1a, nets.b1a, nets.w2a, nets.b2a,
                       nets.w1b, nets.b1b, nets.w2b, nets.b2b), backward_fn)
