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
representation, so the transfer contracts with whichever repeats more:
rows that share a value share E_a, built once per value group, and rows
that share a pattern share e^T W2a, built once per pattern group when the
values form many groups per pattern (affine_transfer). Rows are grouped by
an integer key (key_groups) and each group applied in one batched matmul,
never as a per-row (m, d, d) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    add,
    attention,
    concat,
    getitem,
    layer_norm,
    linear,
    log_map,
    matmul,
    relu,
    reshape,
    swapaxes,
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


# The transfer contracts on the pattern side when the source values form at
# least this many groups per pattern. Forward and backward on 512-row
# training batches break even near 2 (dim 32); a one-query forward (16 rows)
# is 1.5x slower there at every ratio seen, and none of 576 one-query
# predictions on the predict_dense benchmark graphs reached 4 (at most 3.2).
GROUPS_PER_PATTERN = 4


def affine_transfer(chain_reps: Tensor, pattern, values, nets: AffineNets) -> Tensor:
    """E_a(value)^T e_chain + E_b(value), batched over m chains; rows with
    one pattern index (pattern (m,), in [0, P)) hold one representation.

    E_a^T e = sum_k h_k e^T W_k + e^T B is bilinear in e and the value's
    hidden activation h = relu(bits W1a + b1a) (W_k is row k of W2a and B
    is b2a, each as a (d, d) matrix), so it contracts on either side. The
    rows are grouped by their values' bits (key_groups; -0.0 and 0.0 stay
    apart) into G groups. Below GROUPS_PER_PATTERN * P groups, E_a and E_b
    are built once per value group and applied with one (G, width, d) @
    (G, d, d) matmul. Otherwise the rows are grouped by pattern, e^T W_k
    and e^T B are built once per pattern group (from its first row), and
    each row's own h takes one (G', width, H) @ (G', H, d) matmul. The rule
    reads only what the value side computes anyway. A pad slot reads row 0;
    its output is never gathered back, so it adds exactly zero to every
    gradient.
    """
    d = nets.dim
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    keys, group_value, source, slot = key_groups(values.view(np.int64))
    g = len(group_value)
    if g < GROUPS_PER_PATTERN * (int(np.max(pattern, initial=0)) + 1):
        bits = Tensor(encode_values(keys.view(np.float64))[group_value])
        ha = relu(linear(bits, nets.w1a, nets.b1a))
        ea = reshape(linear(ha, nets.w2a, nets.b2a), (g, d, d))
        hb = relu(linear(bits, nets.w1b, nets.b1b))
        eb = reshape(linear(hb, nets.w2b, nets.b2b), (g, 1, d))
        # row-vector form: (e^T E_a)^T == E_a^T e
        grouped = add(matmul(take_rows(chain_reps, source), ea), eb)
    else:
        _, _, source, slot = key_groups(pattern)
        g = len(source)
        # the hidden layers run per slot, so no per-value gather is scattered back
        bits = Tensor(encode_values(values[source]).reshape(source.shape + (64,)))
        ha = relu(linear(bits, nets.w1a, nets.b1a))
        eb = linear(relu(linear(bits, nets.w1b, nets.b1b)), nets.w2b, nets.b2b)
        e = take_rows(chain_reps, source[:, 0])
        # W2a as (d, H d): row i holds row i of every W_k
        w = reshape(swapaxes(reshape(nets.w2a, (-1, d, d)), 0, 1), (d, -1))
        y = reshape(linear(e, w), (g, -1, d))
        eb = add(eb, reshape(linear(e, reshape(nets.b2a, (d, d))), (g, 1, d)))
        grouped = add(matmul(ha, y), eb)
    return take_rows(reshape(grouped, (source.size, d)), slot)
