"""Training loop.

A tree depends only on its query and seed, so the trees every epoch would
sample alike are sampled once per train call, before the first epoch: the
validation trees, and under cache_toc the training trees; otherwise each
mini-batch samples its trees with its epoch's seeds. Each mini-batch
filters its trees and runs as one batched forward, so one autodiff tape
and one backward pass, and Adam steps on the batch's mean loss over
normalized values. Validation re-runs only the filter and forward, one
chunk of batch_size trees at a time. Training stops at the epoch budget,
when the epoch loss moves less than epsilon, or when validation MAE stops
improving for `patience` epochs; the best validation snapshot wins.
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
    """Non-finite loss or gradient, with the query that produced it."""


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


def seed_for(base: int, channel: int, epoch: int, index: int) -> int:
    """Deterministic per-(purpose, epoch, query) RNG seed."""
    return int(np.random.SeedSequence([base, channel, epoch, index]).generate_state(1)[0])


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


def _retrieve_in_chunks(model: Model, kg: KnowledgeGraph, queries: list[Query],
                        seeds: list[int]) -> list[TreeOfChains]:
    """The tree of each query, query i's sampled with seeds[i]; one
    retrieval pass per chunk of config.batch_size queries."""
    size = model.config.batch_size
    return [toc for lo in range(0, len(queries), size)
            for toc in model.retrieve(kg, queries[lo:lo + size], seeds[lo:lo + size])]


def validation_mae(model: Model, tocs: list[TreeOfChains], seeds: list[int]) -> float:
    """Mean absolute error in normalized space (fallbacks included) of the
    predictions from the sampled trees `tocs`, tree i's selection drawn
    with seeds[i], one chunk of config.batch_size trees at a time."""
    if not tocs:
        return float("nan")
    size = model.config.batch_size
    predicted = np.concatenate([
        model.predict_trees(tocs[lo:lo + size], seeds[lo:lo + size]).predicted_norm
        for lo in range(0, len(tocs), size)])
    targets = model.stats.normalize(np.array([toc.query.attribute for toc in tocs]),
                                    np.array([toc.query.target for toc in tocs]))
    return float(np.mean(np.abs(predicted - targets)))


def _snapshot(model: Model) -> dict[str, np.ndarray]:
    return {p.name: p.data.copy() for p in model.all_parameters()}


def _load_snapshot(model: Model, snap: dict[str, np.ndarray]) -> None:
    for p in model.all_parameters():
        p.data = snap[p.name].copy()


def _step(model: Model, opt: Adam, etocs: list[TreeOfChains], queries: list[Query],
          epoch: int) -> tuple[float, int]:
    """One optimizer step on a mini-batch: one forward, one loss vector, one
    backward seeded with 1/B for the B queries with a usable chain. Returns
    the summed loss and B. The tape dies with this call, before the next
    batch builds its own."""
    fwd = model.forward(etocs)
    if fwd is None:
        return 0.0, 0
    targets = model.stats.normalize(np.array([queries[i].attribute for i in fwd.rows]),
                                    np.array([queries[i].target for i in fwd.rows]))
    terms = loss_term(fwd.prediction, targets, model.config.loss)
    bad = np.flatnonzero(~np.isfinite(terms.data))
    if bad.size:
        query = queries[fwd.rows[bad[0]]]
        raise TrainingFault(
            f"non-finite loss at epoch {epoch} for query "
            f"(entity={query.entity}, attribute={query.attribute})")
    b = len(fwd.rows)
    opt.zero_grad()
    backward(tensor_sum(terms), seed=1.0 / b)
    clip_global_norm(opt.params, model.config.clip_norm)
    opt.step()
    return float(terms.data.sum()), b


def train(model: Model, kg: KnowledgeGraph, split: DatasetSplit,
          progress=None) -> TrainResult:
    cfg = model.config
    train_queries = scoped_queries(kg, split.train, model)
    if not train_queries:
        raise ValueError("no trainable queries: every attribute lacks a value scale")
    val_queries = scoped_queries(kg, split.valid, model)

    opt = Adam(model.parameters(), lr=cfg.lr)
    shuffle_rng = np.random.default_rng(cfg.seed)
    val_seeds = [seed_for(cfg.seed, 1, 0, i) for i in range(len(val_queries))]
    val_trees = _retrieve_in_chunks(model, kg, val_queries, val_seeds)
    train_trees = None
    if cfg.cache_toc:
        train_trees = _retrieve_in_chunks(model, kg, train_queries, [
            seed_for(cfg.seed, 0, 0, i) for i in range(len(train_queries))])
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
        for lo in range(0, len(order), cfg.batch_size):
            chunk = [int(qi) for qi in order[lo:lo + cfg.batch_size]]
            if train_trees is None:
                tocs = model.retrieve(kg, [train_queries[qi] for qi in chunk],
                                      [seed_for(cfg.seed, 0, epoch, qi) for qi in chunk])
            else:
                tocs = [train_trees[qi] for qi in chunk]
            etocs = model.select(tocs, None if cfg.use_filter else
                                 [seed_for(cfg.seed, 2, epoch, qi) for qi in chunk])
            batch_loss, batch_used = _step(model, opt, etocs,
                                           [train_queries[qi] for qi in chunk], epoch)
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
            best_snap = _snapshot(model)
        if val_queries and epoch - best_epoch >= cfg.patience:
            result.stop_reason = "patience"
            break
        if prev_loss is not None and abs(prev_loss - train_loss) < cfg.epsilon:
            result.stop_reason = "converged"
            break
        prev_loss = train_loss

    if best_snap is not None:
        _load_snapshot(model, best_snap)
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
