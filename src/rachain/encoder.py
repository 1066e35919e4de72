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
with zero tokens that the attention masks out, and pad chains that fill a
query's unused chain slots keep only the end token.
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
E_a and E_b depend only on the value's bits, so rows that share a value
share them: the rows are grouped by value (value_groups) and each group's
E_a is built once and applied to the group's rows in one batched matmul,
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
    length l fills the last l + 3 slots; the L - l leading pad slots read
    the zero row and are masked out, so the end token is always last. A row
    with no relation is a pad chain: every slot but the end is zero and
    only its end slot is unmasked, so it gives a finite row.
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
    real = lengths > 0
    first = np.where(real, longest - lengths, longest + 2)  # first unmasked slot
    ids[real, first[real]] = n_rel + source_attribute[real]
    ids[real, -2] = n_rel + np.broadcast_to(query_attributes, (m,))[real]
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
    for the arguments and pad chains)."""
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


def value_groups(values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by source value for the batched affine transfer.

    Rows are keyed on their float64 bits, so -0.0 and 0.0 (whose bit
    streams differ) stay apart. With n distinct values among m rows and
    width = ceil(m / n), each value's rows, in row order, are cut into
    groups of at most `width`, so there are G <= 2n groups and fewer than
    3m slots in the (G, width) layout; all-distinct values give width 1 and
    G = m. Returns (distinct (n,) values, group_value (G,) index of each
    group's value in distinct, source (G, width) the row in each slot, row 0
    in pad slots, slot (m,) each row's flat index into source).
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    m = len(values)
    # a set is the cheapest test at prediction size; it merges 0.0 and
    # -0.0, which only sends such a batch down the bit-keyed path below
    if len(set(values.tolist())) == m:
        rows = np.arange(m)
        return values, rows, rows.reshape(m, 1), rows
    order = np.argsort(values.view(np.int64), kind="stable")
    keys = values.view(np.int64)[order]
    # bounds of each value's run of rows in sorted order, then m
    is_bound = np.empty(m + 1, dtype=bool)
    is_bound[0] = is_bound[m] = True
    np.not_equal(keys[1:], keys[:-1], out=is_bound[1:m])
    bounds = np.flatnonzero(is_bound)
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    width = -(-m // len(starts))
    groups = (counts + (width - 1)) // width
    # a value's r-th row takes slot r of its first group: its sorted
    # position shifted by the pad slots of the values before it
    pad_before = (np.cumsum(groups) - groups) * width - starts
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.arange(m) + np.repeat(pad_before, counts)
    group_value = np.repeat(np.arange(len(starts)), groups)
    source = np.zeros((len(group_value), width), dtype=np.int64)
    source.reshape(-1)[slot] = np.arange(m)
    return values[order[starts]], group_value, source, slot


def affine_transfer(chain_reps: Tensor, values, nets: AffineNets) -> Tensor:
    """E_a(value)^T e_chain + E_b(value), batched over m chains.

    The bits of each distinct value are encoded once, and E_a and E_b are
    built once per value group (see value_groups), never per row. The chains
    are laid out as (G, width, d), transferred with one (G, width, d) @
    (G, d, d) matmul plus each group's E_b, and gathered back to (m, d). A
    pad slot of the layout reads row 0 of chain_reps; its output is never
    gathered back, so it adds exactly zero to every gradient.
    """
    d = nets.dim
    distinct, group_value, source, slot = value_groups(values)
    g = len(group_value)
    bits = Tensor(encode_values(distinct)[group_value])
    ha = relu(linear(bits, nets.w1a, nets.b1a))
    ea = reshape(linear(ha, nets.w2a, nets.b2a), (g, d, d))
    hb = relu(linear(bits, nets.w1b, nets.b1b))
    eb = reshape(linear(hb, nets.w2b, nets.b2b), (g, 1, d))
    # row-vector form: (e^T E_a)^T == E_a^T e
    grouped = add(matmul(take_rows(chain_reps, source), ea), eb)
    return take_rows(reshape(grouped, (source.size, d)), slot)
