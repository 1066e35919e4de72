#!/usr/bin/env python3
"""SHA-256 digests of every output a seed fixes, on the benchmark graphs.

For each workload of `perfbench.workloads`, the graph is generated with
--seed into a temporary directory and loaded, and a seeded untrained model
is built from the workload's config. The script then digests, per split
(test and valid):

  trees/<split>/chunked      `Model.retrieve` (one pass per batch_size chunk)
  trees/<split>/one_by_one   `sample_tree` per query
  selected/<split>/chunked   `Model.select` of the chunked trees
  selected/<split>/one_by_one  `Model.select` of each one_by_one tree on its
                             own (the selection `Model.predict` makes)
  predict_batch/<split>      every `Predictions` array and its chains
  evaluate/<split>, explain/<split>, filter_composition/<split>
  predict/<split>            `Model.predict` traces of the first 60 queries
                             (8 with --tiny)

and a 2-epoch `train` on the workload's train subset (the benchmark's
selection of training queries, `perfbench.harness._train_split`): epoch losses, validation MAE, best epoch,
stop reason and the final parameters. Floats are digested by their bits
(arrays) or as hex (scalars), so equal digests mean bit-identical outputs.

With --checkpoint-dir DIR, the prediction digests are repeated (keys
prefixed `checkpoint/`) for the model in DIR/<workload>.npz. A missing file
is first written from this run's trained model, so a run on one commit
saves the checkpoints and a run on another predicts from the same
parameters.

The repository is only read. One JSON object goes to stdout, or to --out:

    python3 scripts/output_digests.py --seed 7 --out digests.json
    python3 scripts/output_digests.py --tiny --seed 7
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT))

from perfbench.harness import _set_up, _train_split, generate  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402
from rachain import evaluation, training  # noqa: E402
from rachain.config import TrainConfig  # noqa: E402
from rachain.model import Model, load_checkpoint, save_checkpoint  # noqa: E402
from rachain.retrieval import TreeOfChains, sample_tree  # noqa: E402

SPLITS = ("test", "valid")
TREE_FIELDS = ("offsets", "source_attribute", "source_value", "relations", "entity_path")
PREDICTION_FIELDS = ("predicted_norm", "predicted_value", "fallback", "omega", "proposals")
TRACES, TINY_TRACES = 60, 8  # Model.predict traces per split


def plain(value):
    """`value` as JSON-ready data, every float as its hex string."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def digest(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes) and other values (plain JSON)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            h.update(json.dumps(plain(part), sort_keys=True).encode())
    return h.hexdigest()


def tree_digest(toc: TreeOfChains) -> str:
    return digest(plain(toc.queries), *(np.asarray(getattr(toc, f)) for f in TREE_FIELDS))


def prediction_digests(model: Model, kg, split, traces: int) -> dict[str, str]:
    out = {}
    for name in SPLITS:
        triples = getattr(split, name)
        queries = training.scoped_queries(kg, triples, model)
        seeds = list(range(len(queries)))
        predictions = model.predict_batch(kg, queries, seeds)
        out[f"predict_batch/{name}"] = digest(
            tree_digest(predictions.chains),
            *(np.asarray(getattr(predictions, f)) for f in PREDICTION_FIELDS))
        out[f"evaluate/{name}"] = digest(evaluation.evaluate(model, kg, triples, seed=3))
        out[f"explain/{name}"] = (digest(evaluation.explain(model, kg, triples, seed=3))
                                  if queries else digest(None))
        out[f"filter_composition/{name}"] = digest(
            evaluation.filter_composition(model, kg, triples, seed=3))
        out[f"predict/{name}"] = digest([model.predict(kg, q, seed=i)
                                         for i, q in enumerate(queries[:traces])])
    return out


def workload_digests(workload, seed: int, traces: int, checkpoint_dir: Path | None,
                     data_dir: Path) -> dict[str, str]:
    config = TrainConfig.from_dict({**workload.config, "epochs": 2})
    kg, split, model = _set_up(generate(workload, seed, data_dir), config)
    out = {}
    for name in SPLITS:
        queries = training.scoped_queries(kg, getattr(split, name), model)
        seeds = list(range(len(queries)))
        chunked = model.retrieve(kg, queries, seeds)
        one_by_one = [sample_tree(kg, q, config.walks, config.max_hops, s)
                      for q, s in zip(queries, seeds)]
        out[f"trees/{name}/chunked"] = tree_digest(chunked)
        out[f"trees/{name}/one_by_one"] = digest(*map(tree_digest, one_by_one))
        out[f"selected/{name}/chunked"] = tree_digest(model.select(chunked, seeds))
        out[f"selected/{name}/one_by_one"] = digest(*(tree_digest(model.select(t, [s]))
                                                      for t, s in zip(one_by_one, seeds)))
    out.update(prediction_digests(model, kg, split, traces))

    trained = Model(kg.n_relations, kg.n_attributes, model.stats, model.means, config)
    result = training.train(trained, kg, _train_split(workload, kg, split, trained, seed))
    out["train/history"] = digest([(h.epoch, h.train_loss, h.val_mae, h.queries_used,
                                    h.queries_empty) for h in result.history],
                                  result.best_epoch, result.stop_reason)
    out["train/parameters"] = digest(*(np.asarray(p.data) for p in trained.all_parameters()))

    if checkpoint_dir is not None:
        path = checkpoint_dir / f"{workload.name}.npz"
        if not path.exists():
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(path, trained)
        loaded, _ = load_checkpoint(path)
        out.update((f"checkpoint/{k}", v)
                   for k, v in prediction_digests(loaded, kg, split, traces).items())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="graph and train-subset seed")
    parser.add_argument("--tiny", action="store_true",
                        help="the workloads' small smoke-test form (perfbench.workloads.tiny)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    digests = {}
    traces = TINY_TRACES if args.tiny else TRACES
    for name, workload in WORKLOADS.items():
        workload = tiny(workload) if args.tiny else workload
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = workload_digests(workload, args.seed, traces,
                                             args.checkpoint_dir, Path(tmp))
    digests["all"] = digest(digests)
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
