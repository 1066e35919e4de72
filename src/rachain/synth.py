"""Synthetic dataset generator.

A declarative spec lists value rules of the form "attribute T on the target
entity equals alpha * (value of attribute S on the source entity) + beta,
along a fixed relation path". Each rule instance creates a fresh
source -> mid(s) -> target entity chain; noise relations wire extra edges
between mid entities to create misleading alternative paths; standalone
attributed entity pairs can widen an attribute's value range without being
reachable from any target. Target values are split train/valid/test; source
and standalone values are always training facts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class ValueRule:
    target_attribute: str
    source_attribute: str
    path: tuple[str, ...]
    alpha: float = 1.0
    beta: float = 0.0
    instances: int = 100
    source_range: tuple[float, float] = (0.0, 1.0)
    # Optional attribute stamped on every intermediate entity. Noise paths
    # then surface chains sourced from a different attribute than the rule's,
    # giving the affinity filter something to reject.
    mid_attribute: str | None = None
    mid_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        self.path = tuple(self.path)
        self.source_range = tuple(self.source_range)
        self.mid_range = tuple(self.mid_range)
        if len(self.path) < 1:
            raise ValueError("rule path needs at least one relation")
        if self.instances < 1:
            raise ValueError("rule needs at least one instance")
        if not self.source_range[0] < self.source_range[1]:
            raise ValueError("source_range must be (low, high) with low < high")
        if not self.mid_range[0] < self.mid_range[1]:
            raise ValueError("mid_range must be (low, high) with low < high")
        if self.mid_attribute is not None and len(self.path) < 2:
            raise ValueError("mid_attribute needs a path of >= 2 relations")


@dataclass
class StandaloneValues:
    """Attributed entity pairs linked only to each other (unreachable noise)."""

    attribute: str
    count: int
    value_range: tuple[float, float]

    def __post_init__(self):
        self.value_range = tuple(self.value_range)
        if self.count < 2:
            raise ValueError("standalone values need count >= 2")


@dataclass
class SynthSpec:
    rules: list[ValueRule]
    noise_relations: int = 0
    noise_edges: int = 0
    standalone: list[StandaloneValues] = field(default_factory=list)
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        self.split = tuple(self.split)
        if len(self.rules) < 1:
            raise ValueError("spec needs at least one rule")
        if abs(sum(self.split) - 1.0) > 1e-9 or min(self.split) < 0:
            raise ValueError(f"split fractions must be >= 0 and sum to 1, got {self.split}")
        if self.split[0] <= 0:
            raise ValueError("training fraction must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthSpec":
        data = dict(data)
        data["rules"] = [ValueRule(**r) for r in data.get("rules", [])]
        data["standalone"] = [StandaloneValues(**s) for s in data.get("standalone", [])]
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def generate(spec: SynthSpec, seed: int, out_dir) -> dict:
    """Write relational.tsv, train.tsv, valid.tsv, test.tsv, meta.json.

    Returns the meta dict (file paths, per-rule expected patterns, counts).
    """
    rng = np.random.default_rng(seed)
    relational: list[tuple[str, str, str]] = []
    train: list[tuple[str, str, float]] = []
    target_facts: list[tuple[str, str, float]] = []
    mids: list[str] = []
    rule_meta = []

    for ri, rule in enumerate(spec.rules):
        values = rng.uniform(rule.source_range[0], rule.source_range[1], rule.instances)
        for i in range(rule.instances):
            nodes = [f"r{ri}_s{i}"]
            nodes += [f"r{ri}_m{i}_{h}" for h in range(len(rule.path) - 1)]
            nodes.append(f"r{ri}_t{i}")
            for h, rel in enumerate(rule.path):
                relational.append((nodes[h], rel, nodes[h + 1]))
            mids.extend(nodes[1:-1])
            train.append((nodes[0], rule.source_attribute, float(values[i])))
            if rule.mid_attribute is not None:
                for mid in nodes[1:-1]:
                    train.append((mid, rule.mid_attribute,
                                  float(rng.uniform(*rule.mid_range))))
            target_facts.append(
                (nodes[-1], rule.target_attribute, rule.alpha * float(values[i]) + rule.beta))
        rule_meta.append({
            "target_attribute": rule.target_attribute,
            "source_attribute": rule.source_attribute,
            "path": list(rule.path),
            "alpha": rule.alpha,
            "beta": rule.beta,
            "instances": rule.instances,
        })

    if spec.noise_edges > 0:
        if spec.noise_relations < 1:
            raise ValueError("noise_edges > 0 needs noise_relations >= 1")
        if len(mids) < 2:
            raise ValueError("noise edges need at least two mid entities")
        for _ in range(spec.noise_edges):
            a, b = rng.choice(len(mids), size=2, replace=False)
            rel = f"noise{rng.integers(spec.noise_relations)}"
            relational.append((mids[a], rel, mids[b]))

    for si, extra in enumerate(spec.standalone):
        values = rng.uniform(extra.value_range[0], extra.value_range[1], extra.count)
        names = [f"x{si}_{i}" for i in range(extra.count)]
        for i, name in enumerate(names):
            # pair the standalone entities up so they appear in the graph
            # without being reachable from any rule entity
            relational.append((name, f"standalone{si}", names[(i + 1) % len(names)]))
            train.append((name, extra.attribute, float(values[i])))

    order = rng.permutation(len(target_facts))
    n_valid = int(len(order) * spec.split[1])
    n_test = int(len(order) * spec.split[2])
    n_train = len(order) - n_valid - n_test
    if n_train < 1:
        raise ValueError("split leaves no training target values")
    train += [target_facts[i] for i in order[:n_train]]
    valid = [target_facts[i] for i in order[n_train:n_train + n_valid]]
    test = [target_facts[i] for i in order[n_train + n_valid:]]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "relational": out_dir / "relational.tsv",
        "train": out_dir / "train.tsv",
        "valid": out_dir / "valid.tsv",
        "test": out_dir / "test.tsv",
    }
    with open(paths["relational"], "w", encoding="utf-8") as fh:
        for h, r, t in relational:
            fh.write(f"{h}\t{r}\t{t}\n")
    for split_name, rows in (("train", train), ("valid", valid), ("test", test)):
        with open(paths[split_name], "w", encoding="utf-8") as fh:
            for e, a, v in rows:
                fh.write(f"{e}\t{a}\t{v!r}\n")

    meta = {
        "seed": seed,
        "files": {k: str(v) for k, v in paths.items()},
        "rules": rule_meta,
        "entities": len({n for h, _, t in relational for n in (h, t)}),
        "relational_rows": len(relational),
        "numerical": {"train": len(train), "valid": len(valid), "test": len(test)},
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    return meta
