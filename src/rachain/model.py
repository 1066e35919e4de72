"""The full pipeline as one object.

Model.forward turns the filtered chain sets of a mini-batch into normalized
predictions with differentiable attention weights, on one autodiff tape.
Model.predict_batch serves a list of queries chunk by chunk, one retrieval
pass, one filter pass that scores each distinct pattern once and one forward
per chunk, with the attribute-mean fallback for queries with no usable
chains; it returns one `Predictions` record of arrays. Model.predict is its
one-query case, returned as that query's trace, and Model.predict_trees
serves trees already sampled (validation keeps them across epochs).
Checkpoints store every parameter array by name plus the config and
normalization statistics needed to rebuild the model exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tensor, mul, no_grad, parameters, reshape, take_rows, tensor_sum
from .config import TrainConfig
from .encoder import AffineNets, ChainEncoderParams, affine_transfer, chain_tokens, encode_chains
from .filter import FilterEmbeddings, select_random_k, select_top_k, select_top_k_batch
from .kg import AttributeStats, KnowledgeGraph, Query
from .reasoner import (
    PredictionTrace,
    Predictions,
    ProjectionHeads,
    TreeformerParams,
    aggregate,
    project_values,
    weight_chains,
)
from .retrieval import TreeOfChains, chain_lengths, distinct_rows, sample_tree, sample_trees


@dataclass
class ForwardResult:
    """One row per query of the batch that has a usable chain; row i holds
    len(chains[i]) chains in its leading slots and pads after them."""

    prediction: Tensor           # (B,) normalized predictions
    omega: Tensor                # (B, k) attention weights, exactly 0 on pad slots
    proposals: Tensor            # (B, k) per-chain proposals, normalized
    chains: list[TreeOfChains]   # per row, the chains actually used, slot order
    rows: list[int]              # per row, the index of its query in the batch
    mask: np.ndarray             # (B, k) bool, True on the used slots


class Model:
    def __init__(self, n_relations: int, n_attributes: int, stats: AttributeStats,
                 means: np.ndarray, config: TrainConfig,
                 rng: np.random.Generator | None = None):
        rng = np.random.default_rng(config.seed) if rng is None else rng
        self.config = config
        self.stats = stats
        self.means = np.asarray(means, dtype=np.float64)
        self.n_relations = n_relations
        self.n_attributes = n_attributes
        self.embeddings = FilterEmbeddings.create(
            rng, n_relations, n_attributes, config.filter_dim,
            config.curvature, config.init_radius)
        self.encoder = ChainEncoderParams.create(
            rng, config.filter_dim, config.dim, config.layers, config.heads)
        self.affine = AffineNets.create(rng, config.dim, config.affine_hidden)
        self.heads = ProjectionHeads.create(rng, config.dim, config.mode)
        self.tree = TreeformerParams.create(
            rng, config.dim, config.layers, config.heads, config.max_hops)

    # -- parameter sets ----------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """Parameters the configured variant trains, in all_parameters order;
        with the chain encoder off its lift (None if unused) still trains."""
        cfg = self.config
        return parameters(self.embeddings,
                          self.encoder if cfg.use_chain_encoder else self.encoder.lift,
                          self.affine if cfg.use_numerical_aware else None,
                          self.heads,
                          self.tree if cfg.use_chain_weighting else None)

    def all_parameters(self) -> list[Parameter]:
        """Every parameter the model owns (checkpointing), in field order."""
        return parameters(self.embeddings, self.encoder, self.affine, self.heads, self.tree)

    # -- pipeline ----------------------------------------------------------

    def retrieve(self, kg: KnowledgeGraph, queries: list[Query], seeds) -> list[TreeOfChains]:
        """The trees of `queries`, query i's sampled with seeds[i], in one pass."""
        return sample_trees(kg, queries, self.config.walks, self.config.max_hops, seeds)

    def select(self, tocs: list[TreeOfChains], seeds) -> list[TreeOfChains]:
        """Each tree's top_k chains: the filter's k best, in one pass over the
        trees, or with the filter off k drawn at random with seeds[i] (the
        filter reads no seed, so `seeds` may then be None)."""
        cfg = self.config
        if not cfg.use_filter:
            return [select_random_k(toc, cfg.top_k, seed) for toc, seed in zip(tocs, seeds)]
        return select_top_k_batch(tocs, self.embeddings, cfg.top_k, cfg.lam)

    def forward(self, etocs: list[TreeOfChains]) -> ForwardResult | None:
        """Predictions for a mini-batch of chain sets; None when no query has
        a chain with a normalizable source value.

        Each query's usable chains, in their given order, fill the leading
        slots of its row of k = the largest usable count; pad chains (rows
        with no relation) fill the rest. The B*k chains' distinct patterns
        are encoded in one left-padded, masked pass and gathered back to
        (B*k, dim), so a repeated pattern costs one encoder row and its
        gradient is the sum over its repeats; pad chains share one pattern
        per query attribute. The value transfer builds E_a once per group of
        chains that share a normalized source value (pad chains carry 0.0,
        so they fall in that value's groups); see encoder.affine_transfer.
        The representations are reshaped to
        (B, k, dim) for the treeformer and pads are masked out of omega, so
        a pad slot adds exactly nothing to a prediction or a gradient.
        """
        cfg = self.config
        usable = [etoc.take(self.stats.usable(etoc.source_attribute)) for etoc in etocs]
        rows = [i for i, toc in enumerate(usable) if len(toc)]
        if not rows:
            return None
        chains = [usable[i] for i in rows]
        b, k = len(rows), max(len(toc) for toc in chains)
        mask = np.arange(k) < np.array([len(toc) for toc in chains])[:, None]
        src_flat = np.concatenate([toc.source_attribute for toc in chains])
        src = _padded(src_flat, mask, 0)
        relations = _padded(np.concatenate([toc.relations for toc in chains]), mask, -1)
        values_norm = _padded(self.stats.normalize(
            src_flat, np.concatenate([toc.source_value for toc in chains])), mask, 0.0)
        query_attributes = np.repeat([etocs[i].query.attribute for i in rows], k)

        first, inverse = distinct_rows(np.column_stack([src, relations, query_attributes]))
        patterns = (src[first], relations[first], query_attributes[first])
        if cfg.use_chain_encoder:
            distinct = encode_chains(*patterns, self.embeddings, self.encoder)
        else:
            tokens, key_mask = chain_tokens(*patterns, self.embeddings, self.encoder,
                                            include_end=False)
            # a pad chain has no token: its zero sum is divided by 1
            counts = np.maximum(key_mask.sum(axis=1, keepdims=True), 1)
            distinct = mul(tensor_sum(tokens, axis=1), 1.0 / counts)
        reps = take_rows(distinct, inverse)

        transferred = (affine_transfer(reps, values_norm, self.affine)
                       if cfg.use_numerical_aware else reps)
        proposals = reshape(project_values(transferred, values_norm, self.heads), (b, k))
        if cfg.use_chain_weighting:
            lengths = np.maximum(chain_lengths(relations), 1)
            omega = weight_chains(reshape(reps, (b, k, reps.shape[-1])),
                                  lengths.reshape(b, k), self.tree, mask)
        else:
            omega = Tensor(mask / mask.sum(axis=1, keepdims=True))
        prediction = aggregate(omega, proposals)
        return ForwardResult(prediction, omega, proposals, chains, rows, mask)

    def predict(self, kg: KnowledgeGraph, query: Query, seed: int = 0) -> PredictionTrace:
        """predict_batch for one query, as its trace. Retrieval and selection
        go through the one-tree cases of the batched functions (sample_tree,
        select_top_k), so that a single prediction shows up under their names."""
        cfg = self.config
        toc = sample_tree(kg, query, cfg.walks, cfg.max_hops, seed)
        if cfg.use_filter:
            toc = select_top_k(toc, self.embeddings, cfg.top_k, cfg.lam)
        else:
            toc = select_random_k(toc, cfg.top_k, seed)
        return self._predictions([toc]).trace(0)

    def predict_batch(self, kg: KnowledgeGraph, queries: list[Query], seeds) -> Predictions:
        """The predictions of `queries`, query i's chains sampled and selected
        with seeds[i]; each chunk of config.batch_size queries makes one
        retrieval, one selection and one forward."""
        size = self.config.batch_size
        return Predictions.concatenate([
            self.predict_trees(self.retrieve(kg, queries[lo:lo + size], seeds[lo:lo + size]),
                               seeds[lo:lo + size])
            for lo in range(0, len(queries), size)] or [self._predictions([])])

    def predict_trees(self, tocs: list[TreeOfChains], seeds) -> Predictions:
        """predict_batch's selection and forward for trees already sampled
        (one chunk)."""
        return self._predictions(self.select(tocs, seeds))

    def _predictions(self, etocs: list[TreeOfChains]) -> Predictions:
        """One forward over the selected sets without gradients; a set with
        no usable chain falls back to its attribute's training mean."""
        with no_grad():
            result = self.forward(etocs)
        used = {} if result is None else dict(zip(result.rows, result.chains))
        tocs = [used[i] if i in used else etoc.take([]) for i, etoc in enumerate(etocs)]
        fallback = np.array([i not in used for i in range(len(tocs))], dtype=bool)
        attrs = np.array([toc.query.attribute for toc in tocs], dtype=np.int64)
        norm, value = np.full(len(tocs), np.nan), self.means[attrs]
        omega = proposals = np.empty(0)
        if result is not None:  # its rows are the queries that do not fall back
            omega, proposals = result.omega.data[result.mask], result.proposals.data[result.mask]
            # each row's own sum: one over its pad slots too can differ in the last bits
            norm[~fallback] = [np.sum(w[m] * p[m]) for w, p, m in
                               zip(result.omega.data, result.proposals.data, result.mask)]
        value[~fallback] = self.stats.denormalize(attrs[~fallback], norm[~fallback])
        scaled = fallback & self.stats.usable(attrs)
        norm[scaled] = self.stats.normalize(attrs[scaled], value[scaled])
        return Predictions(tocs, norm, value, fallback, omega, proposals, self.stats)


def _padded(rows: np.ndarray, mask: np.ndarray, fill) -> np.ndarray:
    """`rows`, query after query, in the leading slots of each query's row of
    `mask` (B, k) and `fill` in the others, as B * k rows."""
    out = np.full((mask.size,) + rows.shape[1:], fill, dtype=rows.dtype)
    out[mask.reshape(-1)] = rows
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: Model, extra: dict | None = None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for p in model.all_parameters():
        key = f"param:{p.name}"
        if key in arrays:
            raise ValueError(f"duplicate parameter name {p.name!r}")
        arrays[key] = p.data
    arrays.update((f"stats:{k}", getattr(model.stats, k)) for k in ("mins", "maxs", "counts"))
    arrays["means"] = model.means
    meta = {
        "config": model.config.to_dict(),
        "n_relations": model.n_relations,
        "n_attributes": model.n_attributes,
        "extra": extra or {},
    }
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez_compressed(path, **arrays)


def load_checkpoint(path) -> tuple[Model, dict]:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        config = TrainConfig.from_dict(meta["config"])
        stats = AttributeStats(*(data[f"stats:{k}"].copy() for k in ("mins", "maxs", "counts")))
        model = Model(meta["n_relations"], meta["n_attributes"], stats,
                      data["means"].copy(), config)
        stored = {k[len("param:"):]: data[k] for k in data.files if k.startswith("param:")}
    own = {p.name: p for p in model.all_parameters()}
    if set(stored) != set(own):
        raise ValueError(f"checkpoint mismatch: missing {sorted(set(own) - set(stored))}, "
                         f"surplus {sorted(set(stored) - set(own))}")
    for name, arr in stored.items():
        if own[name].data.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name}: "
                             f"{own[name].data.shape} vs {arr.shape}")
        own[name].data = arr.astype(np.float64)
    return model, meta["extra"]
