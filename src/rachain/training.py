"""Training loop.

A tree depends only on its query and seed, so the trees every epoch would
sample alike are sampled once per train call, before the first epoch, as a
record: the validation trees, and under cache_toc the training trees, from
which each mini-batch gathers its own; otherwise each mini-batch samples its
trees with its epoch's seeds. Each mini-batch filters its trees and runs as
one batched forward, so one autodiff tape and one backward pass, and Adam
steps on the batch's mean loss over normalized values. Validation re-runs
only the filter and forward, one chunk of batch_size trees at a time.
Training stops at the epoch budget, when the epoch loss moves less than
epsilon, or when validation MAE stops improving for `patience` epochs; the
best validation snapshot wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Adam, Tensor, absolute, backward, clip_global_norm, square, sub, tensor_sum
from .kg import DatasetSplit, KnowledgeGraph, Query, queries_from_triples
from .model import Model
from .retrieval import TreeOfChains


class TrainingFault(RuntimeError):
    """Non-finite loss (naming its query) or gradient norm, with its epoch."""


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_mae: float
    seconds: float
    queries_used: int
    queries_empty: int


@dataclass
class TrainResult:
    model: Model
    history: list[EpochStats] = field(default_factory=list)
    best_val: float = float("nan")
    best_epoch: int = -1
    stop_reason: str = "epochs"


def seed_for(base: int, channel: int, epoch: int, index):
    """Deterministic per-(purpose, epoch, query) RNG seed,
    SeedSequence([base, channel, epoch, index]).generate_state(1)[0], as an
    int; for an array of indices, their seeds as an int64 array from one
    numpy pass (`_first_state_word`) while every word is below 2**32, so
    that the entropy is exactly the sequence's four-word pool, and from
    SeedSequence one by one past that."""
    if np.ndim(index) == 0:
        return int(np.random.SeedSequence([base, channel, epoch, index]).generate_state(1)[0])
    index = np.asarray(index)
    words = (base, channel, epoch)
    if all(0 <= w <= _MASK32 for w in words) and (
            index.size == 0 or 0 <= index.min() and index.max() <= _MASK32):
        return _first_state_word(*words, index.astype(np.uint64)).astype(np.int64)
    return np.array([seed_for(*words, i) for i in index.ravel().tolist()],
                    dtype=np.int64).reshape(index.shape)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _first_state_word(*words):
    """SeedSequence(words).generate_state(1)[0] for four 32-bit words, each an
    int or a uint64 array (the result broadcasts): the pool mix of
    SeedSequence.mix_entropy and the first word of generate_state, every
    product reduced mod 2**32."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    value = (pool[0] ^ _INIT_B) * (_INIT_B * _MULT_B & _MASK32) & _MASK32
    return value ^ (value >> 16)


def loss_term(prediction: Tensor, target_norm, kind: str) -> Tensor:
    """Per-query loss, elementwise over a vector of predictions and targets."""
    diff = sub(prediction, target_norm)
    return square(diff) if kind == "l2" else absolute(diff)


def scoped_queries(kg: KnowledgeGraph, triples: np.ndarray, model: Model) -> list[Query]:
    """Queries of the FACT rows whose attribute is normalizable and in the config scope."""
    names = model.config.attributes
    unknown = [name for name in names or () if name not in kg.attribute_index]
    if unknown:
        raise ValueError(f"unknown attribute {unknown[0]!r} in config scope")
    attrs = triples["attribute"]
    keep = model.stats.usable(attrs)
    if names is not None:
        keep &= np.isin(attrs, [kg.attribute_index[name] for name in names])
    return queries_from_triples(triples[keep])


def validation_mae(model: Model, toc: TreeOfChains, seeds) -> float:
    """Mean absolute error in normalized space (fallbacks included) of the
    predictions from the sampled trees of `toc`, tree i's selection drawn
    with seeds[i] (`Model.predict_trees`)."""
    if not toc.queries:
        return float("nan")
    predicted = model.predict_trees(toc, seeds).predicted_norm
    targets = model.stats.normalize(toc.query_attributes,
                                    np.array([q.target for q in toc.queries]))
    return float(np.mean(np.abs(predicted - targets)))


def _step(model: Model, opt: Adam, etoc: TreeOfChains, epoch: int) -> tuple[float, int]:
    """One optimizer step on a mini-batch: one forward, one loss vector, one
    backward seeded with 1/B for the B queries with a usable chain. Returns
    the summed loss and B. A non-finite loss or pre-clip gradient norm raises
    TrainingFault before any parameter changes. The tape dies with this call,
    before the next batch builds its own."""
    fwd = model.forward(etoc)
    if fwd is None:
        return 0.0, 0
    queries = [fwd.chains.queries[i] for i in np.flatnonzero(fwd.chains.sizes).tolist()]
    targets = model.stats.normalize(np.array([q.attribute for q in queries]),
                                    np.array([q.target for q in queries]))
    terms = loss_term(fwd.prediction, targets, model.config.loss)
    bad = np.flatnonzero(~np.isfinite(terms.data))
    if bad.size:
        query = queries[bad[0]]
        raise TrainingFault(
            f"non-finite loss at epoch {epoch} for query "
            f"(entity={query.entity}, attribute={query.attribute})")
    opt.zero_grad()
    backward(tensor_sum(terms), seed=1.0 / len(queries))
    norm = clip_global_norm(opt.params, model.config.clip_norm)
    if not np.isfinite(norm):
        raise TrainingFault(f"non-finite gradient norm {norm} at epoch {epoch}")
    opt.step()
    return float(terms.data.sum()), len(queries)


def train(model: Model, kg: KnowledgeGraph, split: DatasetSplit,
          progress=None) -> TrainResult:
    cfg = model.config
    train_queries = scoped_queries(kg, split.train, model)
    if not train_queries:
        raise ValueError("no trainable queries: every attribute lacks a value scale")
    val_queries = scoped_queries(kg, split.valid, model)

    opt = Adam(model.parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    val_seeds = seed_for(cfg.seed, 1, 0, range(len(val_queries)))
    val_trees = model.retrieve(kg, val_queries, val_seeds)
    train_trees = model.retrieve(kg, train_queries, seed_for(
        cfg.seed, 0, 0, range(len(train_queries)))) if cfg.cache_toc else None
    result = TrainResult(model=model)
    best_snap: dict[str, np.ndarray] | None = None
    best_val = float("inf")
    best_epoch = -1
    prev_loss: float | None = None

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = shuffle_rng.permutation(len(train_queries))
        total_loss = 0.0
        used = 0
        empty = 0
        for c in model.chunks(len(order)):
            chunk = order[c]
            toc = train_trees.trees(chunk) if cfg.cache_toc else model.retrieve(
                kg, [train_queries[qi] for qi in chunk], seed_for(cfg.seed, 0, epoch, chunk))
            etoc = model.select(toc, None if cfg.use_filter else
                                seed_for(cfg.seed, 2, epoch, chunk))
            batch_loss, batch_used = _step(model, opt, etoc, epoch)
            total_loss += batch_loss
            used += batch_used
            empty += len(chunk) - batch_used

        train_loss = total_loss / max(used, 1)
        val_mae = validation_mae(model, val_trees, val_seeds)
        stats = EpochStats(epoch=epoch, train_loss=train_loss, val_mae=val_mae,
                           seconds=time.perf_counter() - started,
                           queries_used=used, queries_empty=empty)
        result.history.append(stats)
        if progress is not None:
            progress(stats)

        if val_queries and val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            best_snap = model.state()
        if val_queries and epoch - best_epoch >= cfg.patience:
            result.stop_reason = "patience"
            break
        if prev_loss is not None and abs(prev_loss - train_loss) < cfg.epsilon:
            result.stop_reason = "converged"
            break
        prev_loss = train_loss

    if best_snap is not None:
        model.load_state(best_snap)
    result.best_val = best_val if best_epoch >= 0 else float("nan")
    result.best_epoch = best_epoch
    return result


def format_epoch(stats: EpochStats) -> str:
    """One progress line per epoch; val_mae is left out when it is NaN (no
    validation queries)."""
    val = "" if np.isnan(stats.val_mae) else f"  val_mae {stats.val_mae:.4f}"
    return (f"epoch {stats.epoch:>4}  loss {stats.train_loss:.6f}{val}  "
            f"({stats.seconds:.1f}s, {stats.queries_used} queries)")


def epochs_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,val_mae,seconds,queries_used,queries_empty"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss:.8f},{h.val_mae:.8f},"
                     f"{h.seconds:.3f},{h.queries_used},{h.queries_empty}")
    return "\n".join(lines) + "\n"
