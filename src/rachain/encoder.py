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
scaled by 1/sqrt(model_dim)) contextualizes the sequence. A layer's
attention is five tape nodes: the q, k and v projections, one fused
`attention` node that splits the rows into heads and merges them back
itself, and the output projection. The end token's output is the chain
representation. Only that output is read, so the last layer computes the
end token alone: its keys and values still come from every token, but its
query, residual, layer norms and feed-forward run on one row per chain.

The numerical-aware affine transfer conditions that representation on the
source value: the value's Float64 big-endian bit pattern (64 zeros/ones)
drives two MLPs producing a matrix E_a and shift E_b, giving
E_a^T e_chain + E_b. At initialization E_a is the identity and E_b zero.
E_a is bilinear in the value's hidden activation and the chain's pattern
representation, so the transfer contracts on either side: rows that share
a value share E_a, built once per value group, and rows that share a
pattern share e^T W2a, built once per pattern group. It takes the pattern
side when the value side would build more than MAP_ALLOWANCE maps more
(affine_transfer). Rows are grouped by an integer key (key_groups) and each
group applied in one batched matmul, never as a per-row (m, d, d) tensor.
Either side is one fused tape node whose backward keeps only what it
reads; the value side repeats the arithmetic of the composite ops bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _accumulate,
    _make,
    add,
    attention,
    concat,
    getitem,
    layer_norm,
    linear,
    log_map,
    relu,
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
    node and projecting its merged heads with wo.

    A row depends on the other rows only through the keys and values, so
    with last_only the final layer computes only the last row of x (its
    keys and values still come from every row) and the result is
    (b, 1, dim), equal to the last row of the full result.
    """
    for i, layer in enumerate(params.layers):
        rows = x
        if last_only and i == len(params.layers) - 1:
            rows = getitem(x, (slice(None), slice(-1, None)))
        attn_out = linear(attention(linear(rows, layer.wq), linear(x, layer.wk),
                                    linear(x, layer.wv), params.heads, key_mask,
                                    1.0 / np.sqrt(params.dim)), layer.wo)
        x = layer_norm(add(rows, attn_out), layer.ln1_gain, layer.ln1_bias)
        hidden = relu(linear(x, layer.ffn_w1, layer.ffn_b1))
        ffn_out = linear(hidden, layer.ffn_w2, layer.ffn_b2)
        x = layer_norm(add(x, ffn_out), layer.ln2_gain, layer.ln2_bias)
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


def key_groups(keys) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by an integer key for a batched per-group product.

    With n distinct keys among m rows and width = ceil(m / n), each key's
    rows, in row order, are cut into groups of at most `width`, so there are
    G <= 2n groups and fewer than 3m slots in the (G, width) layout;
    all-distinct keys give width 1 and G = m. Returns (distinct (n,) keys,
    group_key (G,) index of each group's key in distinct,
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
    # a key's r-th row takes slot r of its first group: its sorted position
    # shifted by the pad slots of the keys before it
    pad_before = (np.cumsum(groups) - groups) * width - starts
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.arange(m) + np.repeat(pad_before, counts)
    group_key = np.repeat(np.arange(len(starts)), groups)
    source = np.zeros((len(group_key), width), dtype=np.int64)
    source.reshape(-1)[slot] = np.arange(m)
    return ordered[starts], group_key, source, slot


# The transfer contracts on the pattern side when the value side would build
# more than this many maps more than the pattern side: the pattern side pays
# a fixed cost per call (per-slot gathers of the hidden activations, per-value
# sums in its backward) that the maps it saves must outweigh. On the benchmark
# graphs (seed 7) the value side builds 69-168 maps more on train_small
# training batches, where the pattern side's forward and backward take
# 0.42-0.98 of its time, and 106 more on the train_small evaluate chunk; at
# most 13 more on the one-query forwards measured (the pattern side up to
# 1.4x slower at dim 32) and 19 more on a train_wide evaluate chunk, which
# keep the value side.
MAP_ALLOWANCE = 32


def affine_transfer(chain_reps: Tensor, pattern, values, nets: AffineNets) -> Tensor:
    """E_a(value)^T e_chain + E_b(value), batched over m chains; rows with
    one pattern index (pattern (m,), in [0, P)) hold one representation.

    E_a^T e = sum_k h_k e^T W_k + e^T B is bilinear in e and the value's
    hidden activation h = relu(bits W1a + b1a) (W_k is row k of W2a and B
    is b2a, each as a (d, d) matrix), so it contracts on either side. The
    rows are grouped by their values' bits (key_groups; -0.0 and 0.0 stay
    apart) into G groups, and by pattern into G' groups. Each side builds
    one map per group: E_a (d, d) per value group, or e^T W2a (H, d) per
    pattern group, each H d^2 multiply-adds. The pattern side is taken when
    G - G' > MAP_ALLOWANCE. That keeps the value side on every one-query
    forward measured on the benchmark graphs (G - G' at most 13), but it is
    not a bound: one query whose 64 chains hold distinct values over 31 or
    fewer patterns has G - G' >= 33 and takes the pattern side.

    Either side is one fused tape node (_value_side, _pattern_side) whose
    hand-written backward keeps only what it reads.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    pattern = np.asarray(pattern, dtype=np.int64).reshape(-1)
    keys, group_value, source, slot = key_groups(values.view(np.int64))
    _, group_pattern, psource, pslot = key_groups(pattern)
    if len(group_value) - len(group_pattern) > MAP_ALLOWANCE:
        return _pattern_side(chain_reps, psource, pslot, keys, group_value, source, slot, nets)
    return _value_side(chain_reps, keys, group_value, source, slot, nets)


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


def _value_side(chain_reps: Tensor, keys, group_value, source, slot,
                nets: AffineNets) -> Tensor:
    """E_a and E_b built once per value group and applied with one
    (G, width, d) @ (G, d, d) matmul.

    The arithmetic is that of the composite (linear, relu, reshape, a row
    gather, matmul, add, a slot gather), so output and gradients are
    bit-identical to it. A pad slot reads row 0 and its output is never
    gathered back; the backward gives it a zero gradient and reads each row's
    gradient from its own slot, so neither final gather is scattered back."""
    d = nets.dim
    g, width = source.shape
    parents = (chain_reps, nets.w1a, nets.b1a, nets.w2a, nets.b2a,
               nets.w1b, nets.b1b, nets.w2b, nets.b2b)
    bits = encode_values(keys.view(np.float64)[group_value])
    ha = _hidden(bits, nets.w1a, nets.b1a)
    ea = ha @ nets.w2a.data
    ea += nets.b2a.data
    ea = ea.reshape(g, d, d)
    hb = _hidden(bits, nets.w1b, nets.b1b)
    eb = hb @ nets.w2b.data
    eb += nets.b2b.data
    xs = chain_reps.data[source]
    # row-vector form: (e^T E_a)^T == E_a^T e
    grouped = xs @ ea
    grouped += eb[:, None]

    def backward_fn(gout):
        gg = _slotted(gout, slot, g, width)
        dhb = _output_grads(hb, gg.sum(axis=1), nets.w2b, nets.b2b)
        _hidden_grads(bits, hb, dhb, nets.w1b, nets.b1b)
        if chain_reps.requires_grad:
            _accumulate(chain_reps, (gg @ np.moveaxis(ea, -1, -2)).reshape(-1, d)[slot])
        dea = (np.moveaxis(xs, -1, -2) @ gg).reshape(g, d * d)
        dha = _output_grads(ha, dea, nets.w2a, nets.b2a)
        _hidden_grads(bits, ha, dha, nets.w1a, nets.b1a)

    return _make(grouped.reshape(-1, d)[slot], parents, backward_fn)


def _pattern_side(chain_reps: Tensor, psource, pslot, keys, group_value, source, slot,
                  nets: AffineNets) -> Tensor:
    """e^T W_k and e^T B built once per pattern group, from its first row,
    and contracted with each row's own hidden activation by one
    (G', width, H) @ (G', H, d) matmul.

    The rows' pattern groups are psource and pslot (key_groups of the
    pattern). Both hidden layers, and E_b, run once per distinct value
    (key_groups of the values: keys, group_value, source, slot); the
    backward sums each value's rows through that value layout. W2a is read
    as the (H, d, d) view it is stored as: e^T W_k for all k is one
    (G', d) @ (H, d, d) product, kept as (H, G', d), and the gradient of e is
    one product with W2a's (H d, d) transpose. Rounding differs from the
    value side's."""
    d = nets.dim
    vg, vwidth = source.shape
    row_value = group_value[slot // vwidth]
    pg, pwidth = psource.shape
    parents = (chain_reps, nets.w1a, nets.b1a, nets.w2a, nets.b2a,
               nets.w1b, nets.b1b, nets.w2b, nets.b2b)
    bits = encode_values(keys.view(np.float64))
    ha = _hidden(bits, nets.w1a, nets.b1a)
    hb = _hidden(bits, nets.w1b, nets.b1b)
    eb = hb @ nets.w2b.data
    eb += nets.b2b.data
    first = psource[:, 0]
    e = chain_reps.data[first]
    w3 = nets.w2a.data.reshape(-1, d, d)
    bias = nets.b2a.data.reshape(d, d)
    y = np.matmul(e, w3)  # (H, G', d)
    hs = ha[row_value[psource]]
    grouped = hs @ y.transpose(1, 0, 2)
    grouped += (e @ bias)[:, None]
    out = grouped.reshape(-1, d)[pslot]
    out += eb[row_value]

    value_starts = np.flatnonzero(np.r_[True, group_value[1:] != group_value[:-1]])

    def per_value(rows):  # (m, c) row gradients summed per distinct value
        return np.add.reduceat(_slotted(rows, slot, vg, vwidth).sum(axis=1), value_starts,
                               axis=0)

    def backward_fn(gout):
        gg = _slotted(gout, pslot, pg, pwidth)
        dhb = _output_grads(hb, per_value(gout), nets.w2b, nets.b2b)
        _hidden_grads(bits, hb, dhb, nets.w1b, nets.b1b)
        dhs = gg @ y.transpose(1, 2, 0)
        _hidden_grads(bits, ha, per_value(dhs.reshape(-1, dhs.shape[-1])[pslot]),
                      nets.w1a, nets.b1a)
        dy = np.matmul(hs.transpose(0, 2, 1), gg)  # (G', H, d)
        gsum = gg.sum(axis=1)
        _accumulate(nets.w2a, np.matmul(e.T, dy.transpose(1, 0, 2)).reshape(-1, d * d))
        _accumulate(nets.b2a, (e.T @ gsum).reshape(-1))
        if chain_reps.requires_grad:
            de = gsum @ bias.T
            de += dy.reshape(pg, -1) @ w3.transpose(0, 2, 1).reshape(-1, d)
            drows = np.zeros_like(chain_reps.data)
            drows[first] = de
            _accumulate(chain_reps, drows)

    return _make(out, parents, backward_fn)
