"""The benchmark workloads: a synthetic graph spec and a model config each.

Why each workload exists is recorded in BENCHMARK.json. The acceptance graph
is the spec of `scripts/run_synthetic.py` (500 entities, the value of `val`
doubles along the path p -> q under ten noise relations). `predict_dense`
scales it to about 9.6k entities so that each tree holds hundreds of distinct
chains.

A run repeats rounds on the generated graph (see `harness.Plan`): a round
trains a fresh model and, before training and after each epoch, runs a block
of set-ups, `evaluate` calls over one split and closed-loop `Model.predict`
calls over the test split. The sizes of these steps differ per workload, so that each
workload weighs the layers it was chosen for.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

ACCEPTANCE_SPEC = {
    "rules": [{
        "target_attribute": "val", "source_attribute": "val",
        "path": ["p", "q"], "alpha": 2.0, "beta": 0.0, "instances": 160,
        "source_range": [0.0, 5.0],
        "mid_attribute": "aux", "mid_range": [0.0, 1.0],
    }],
    "noise_relations": 10,
    "noise_edges": 600,
    "standalone": [{"attribute": "pad", "count": 20, "value_range": [0.0, 1.0]}],
    "split": [0.8, 0.1, 0.1],
}

# The acceptance config. A huge patience and a zero epsilon keep the epoch
# count fixed, so every train call does the same work.
SMALL_CONFIG = {
    "walks": 128, "max_hops": 3, "top_k": 16, "lam": 0.5,
    "dim": 32, "filter_dim": 16, "layers": 1, "heads": 4, "affine_hidden": 32,
    "mode": "scaling", "lr": 0.01, "batch_size": 32, "loss": "l2",
    "epsilon": 0.0, "patience": 1_000_000, "seed": 0, "attributes": ["val"],
}


def _spec(**changes) -> dict:
    spec = copy.deepcopy(ACCEPTANCE_SPEC)
    instances = changes.pop("instances", None)
    if instances is not None:
        spec["rules"][0]["instances"] = instances
    spec.update(changes)
    return spec


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict               # synth.SynthSpec as a dict
    config: dict             # TrainConfig fields
    train_queries: int | None  # training queries per train call; None = all
    validate: bool           # whether train validates on the valid split
    eval_split: str          # split that evaluation.evaluate scores
    # Per block (one before training and one after each epoch of a round):
    setups: int              # timed set-ups
    evaluates: int           # evaluate calls
    predicts: int            # predictions
    min_rounds: int          # rounds for >= 300 predictions (p95 has >= 15 beyond it)
    trace_predicts: int = 16  # predictions per block of the traced round


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train_small",
            spec=_spec(),
            config={**SMALL_CONFIG, "epochs": 2},
            train_queries=None,
            validate=True,
            eval_split="test",
            setups=3,
            evaluates=3,
            predicts=80,
            min_rounds=3,
        ),
        Workload(
            name="predict_dense",
            spec=_spec(instances=3200, noise_edges=40_000, split=[0.97, 0.01, 0.02]),
            config={**SMALL_CONFIG, "walks": 2048, "epochs": 2},
            train_queries=48,
            validate=False,
            eval_split="valid",
            setups=2,
            evaluates=1,
            predicts=50,
            min_rounds=2,
            trace_predicts=32,
        ),
        Workload(
            name="train_wide",
            spec=_spec(),
            config={**SMALL_CONFIG, "walks": 512, "top_k": 64, "dim": 64,
                    "filter_dim": 32, "layers": 2, "affine_hidden": 64,
                    "cache_toc": True, "epochs": 3},
            train_queries=64,
            validate=True,
            eval_split="test",
            setups=3,
            evaluates=1,
            predicts=40,
            min_rounds=2,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a small graph with cheap settings (smoke tests)."""
    config = {**workload.config, "walks": min(workload.config["walks"], 32),
              "epochs": min(workload.config["epochs"], 2), "batch_size": 8}
    return dataclasses.replace(
        workload,
        spec=_spec(instances=40, noise_edges=120),
        config=config,
        train_queries=16,
        setups=1,
        evaluates=1,
        predicts=12,
        min_rounds=1,
        trace_predicts=8,
    )
