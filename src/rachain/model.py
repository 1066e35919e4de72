"""The full pipeline as one object.

A chunk of queries is one `TreeOfChains` record from retrieval to
predictions. Model.forward turns a mini-batch's filtered chain sets into
normalized predictions with differentiable attention weights, on one
autodiff tape. Model.predict_batch serves queries chunk by chunk, one
retrieval pass, one filter pass that scores each distinct pattern once and
one forward per chunk, with the attribute-mean fallback for queries with no
usable chains, as one `Predictions` record of arrays. Model.predict is its
one-query case, returned as that query's trace, and Model.predict_trees
serves trees already sampled (validation keeps them across epochs).
Checkpoints store every parameter array by name (Model.state) plus the
config and normalization statistics needed to rebuild the model exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter, Tensor, concat, mul, no_grad, parameters, take_rows, tensor_sum
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
from .retrieval import TreeOfChains, sample_tree, sample_trees


@dataclass
class ForwardResult:
    """Entry j of `prediction` is the j-th tree of `chains` with a nonzero
    size; omega and proposals are per chain of `chains`, in row order."""

    prediction: Tensor           # (B,) normalized predictions, sum of omega * proposals
    omega: np.ndarray            # (len(chains),) attention weights
    proposals: np.ndarray        # (len(chains),) per-chain proposals, normalized
    chains: TreeOfChains         # the batch's trees cut to the chains used


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

    def state(self) -> dict[str, np.ndarray]:
        """A copy of every parameter array, by name."""
        state: dict[str, np.ndarray] = {}
        for p in self.all_parameters():
            if p.name in state:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            state[p.name] = p.data.copy()
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter to a float64 copy of its array in `state`,
        which must hold exactly the model's names, each at its shape."""
        own = {p.name: p for p in self.all_parameters()}
        if set(state) != set(own):
            raise ValueError(f"checkpoint mismatch: missing {sorted(set(own) - set(state))}, "
                             f"surplus {sorted(set(state) - set(own))}")
        for name, arr in state.items():
            if own[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{own[name].data.shape} vs {arr.shape}")
        for name, arr in state.items():
            own[name].data = arr.astype(np.float64)

    # -- pipeline ----------------------------------------------------------

    def retrieve(self, kg: KnowledgeGraph, queries: list[Query], seeds) -> TreeOfChains:
        """The trees of `queries` as one record, query i's sampled with
        seeds[i]; one pass per chunk of config.batch_size queries. Training
        keeps such records across epochs; predict_batch keeps none."""
        parts = [self._sample(kg, queries[c], seeds[c]) for c in self.chunks(len(queries))]
        return parts[0] if len(parts) == 1 else TreeOfChains.concatenate(parts)

    def _sample(self, kg: KnowledgeGraph, queries: list[Query], seeds) -> TreeOfChains:
        return sample_trees(kg, queries, self.config.walks, self.config.max_hops, seeds)

    def chunks(self, n: int) -> list[slice]:
        """The config.batch_size chunks of n items (one empty chunk for none)."""
        size = self.config.batch_size
        return [slice(lo, lo + size) for lo in range(0, n or 1, size)]

    def select(self, toc: TreeOfChains, seeds) -> TreeOfChains:
        """Each tree's top_k chains: the filter's k best, in one pass over the
        trees, or with the filter off k drawn at random with seeds[i] (the
        filter reads no seed, so `seeds` may then be None)."""
        cfg = self.config
        if not cfg.use_filter:
            return select_random_k(toc, cfg.top_k, seeds)
        return select_top_k_batch(toc, self.embeddings, cfg.top_k, cfg.lam)

    def forward(self, etoc: TreeOfChains) -> ForwardResult | None:
        """Predictions for a mini-batch of chain sets; None when no query has
        a chain with a normalizable source value.

        The per-chain layers run on the usable chains as flat rows, in record
        order. Their distinct patterns (`TreeOfChains.patterns`) are encoded
        in one left-padded, masked pass and gathered back to the rows, so a
        repeated pattern costs one encoder row and its gradient is the sum
        over its repeats. The value transfer gets the rows and their pattern
        index (the rows, so that a row's transfer and treeformer gradients
        add up before the gather sums a pattern's repeats), and builds its
        map once per group of chains that share a normalized source value,
        or once per group that shares a pattern when the values form many
        groups per pattern (see encoder.affine_transfer); the heads project
        every row. Only the
        treeformer looks across a query's chains, so only it and the
        prediction sum see the (B, k) slots, none of which leaves this call:
        row j holds the j-th query's chains in its leading slots, k being the
        largest usable count, and each other slot reads an appended zero row
        with length 1 and proposal 0. The key mask hides those slots, so their
        omega is exactly 0 and they add nothing to a gradient. The prediction
        is the ω-weighted sum over each slot row, the value training optimizes
        and predict_batch reports.
        """
        cfg = self.config
        chains = etoc.take(np.flatnonzero(self.stats.usable(etoc.source_attribute)))
        sizes = chains.sizes[chains.sizes > 0]  # one slot row per query with a chain
        if not sizes.size:
            return None
        values_norm = self.stats.normalize(chains.source_attribute, chains.source_value)

        patterns, inverse = chains.patterns()
        if cfg.use_chain_encoder:
            distinct = encode_chains(*patterns, self.embeddings, self.encoder)
        else:
            tokens, key_mask = chain_tokens(*patterns, self.embeddings, self.encoder,
                                            include_end=False)
            distinct = mul(tensor_sum(tokens, axis=1), 1.0 / key_mask.sum(axis=1, keepdims=True))
        reps = take_rows(distinct, inverse)
        transferred = (affine_transfer(reps, inverse, values_norm, self.affine)
                       if cfg.use_numerical_aware else reps)
        proposals = project_values(transferred, values_norm, self.heads)

        # each (B, k) slot's row, and in a pad slot the zero row appended last
        mask = np.arange(sizes.max()) < sizes[:, None]
        slot = np.full(mask.shape, len(chains))
        slot[mask] = np.arange(len(chains))
        proposals = take_rows(concat([proposals, Tensor(np.zeros(1))]), slot)
        if cfg.use_chain_weighting:
            slotted = take_rows(concat([reps, Tensor(np.zeros((1, reps.shape[-1])))]), slot)
            lengths = np.append(chains.lengths, 1)[slot]
            omega = weight_chains(slotted, lengths, self.tree, mask)
        else:
            omega = Tensor(mask / mask.sum(axis=1, keepdims=True))
        prediction = aggregate(omega, proposals)
        return ForwardResult(prediction, omega.data[mask], proposals.data[mask], chains)

    def predict(self, kg: KnowledgeGraph, query: Query, seed: int = 0) -> PredictionTrace:
        """predict_batch for one query, as its trace, through the one-query
        names (sample_tree, select_top_k) a single prediction is traced under."""
        cfg = self.config
        toc = sample_tree(kg, query, cfg.walks, cfg.max_hops, seed)
        toc = (select_top_k(toc, self.embeddings, cfg.top_k, cfg.lam) if cfg.use_filter
               else select_random_k(toc, cfg.top_k, [seed]))
        return self._predictions(toc).trace(0)

    def predict_batch(self, kg: KnowledgeGraph, queries: list[Query], seeds) -> Predictions:
        """The predictions of `queries`, query i's chains sampled and selected
        with seeds[i]; each chunk of config.batch_size queries makes one
        retrieval, one selection and one forward, and its trees are dropped
        before the next chunk is sampled."""
        return self._predict_chunks(len(queries), seeds,
                                    lambda c: self._sample(kg, queries[c], seeds[c]))

    def predict_trees(self, toc: TreeOfChains, seeds) -> Predictions:
        """predict_batch's selection and forward for trees already sampled,
        one chunk of config.batch_size trees at a time."""
        index = range(len(toc.queries))
        return self._predict_chunks(len(index), seeds, lambda c: toc.trees(index[c]))

    def _predict_chunks(self, n: int, seeds, trees_of) -> Predictions:
        """One selection and one forward per chunk c of the n queries, over
        the chunk's trees trees_of(c)."""
        return Predictions.concatenate([self._predictions(self.select(trees_of(c), seeds[c]))
                                        for c in self.chunks(n)])

    def _predictions(self, etoc: TreeOfChains) -> Predictions:
        """One forward over the selected sets without gradients; a set with
        no usable chain falls back to its attribute's training mean."""
        with no_grad():  # no usable chain at all: an empty result, every set falls back
            result = self.forward(etoc) or ForwardResult(
                Tensor(np.empty(0)), np.empty(0), np.empty(0), etoc.take([]))
        fallback, attrs = result.chains.sizes == 0, result.chains.query_attributes
        norm, value = np.full(len(attrs), np.nan), self.means[attrs]
        norm[~fallback] = result.prediction.data
        value[~fallback] = self.stats.denormalize(attrs[~fallback], norm[~fallback])
        scaled = fallback & self.stats.usable(attrs)
        norm[scaled] = self.stats.normalize(attrs[scaled], value[scaled])
        return Predictions(result.chains, norm, value, fallback, result.omega,
                           result.proposals, self.stats)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: Model, extra: dict | None = None) -> None:
    arrays = {f"param:{name}": arr for name, arr in model.state().items()}
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
        model.load_state({k[len("param:"):]: data[k] for k in data.files
                          if k.startswith("param:")})
    return model, meta["extra"]
