"""Run configuration shared by training, evaluation, and the CLI."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

PROJECTION_MODES = ("direct", "translation", "scaling", "combined")
LOSSES = ("l1", "l2")


@dataclass
class TrainConfig:
    # retrieval
    walks: int = 2048          # random walks per query
    max_hops: int = 3          # longest relation path
    top_k: int = 256           # chains kept after filtering
    lam: float = 0.5           # affinity mix: attribute distance vs fold distance
    # architecture
    dim: int = 256             # encoder width
    filter_dim: int = 128      # ball embedding width
    layers: int = 2
    heads: int = 4
    curvature: float = 1.0
    init_radius: float = 0.1
    affine_hidden: int = 256
    mode: str = "scaling"      # value projection mode
    # optimization
    epochs: int = 200
    lr: float = 1e-4
    batch_size: int = 32
    loss: str = "l2"           # on normalized values
    clip_norm: float = 1.0
    epsilon: float = 1e-6      # epoch-loss convergence threshold
    patience: int = 10         # epochs without validation improvement
    seed: int = 0
    cache_toc: bool = False    # reuse each query's sampled tree across epochs
    # component switches (for ablation runs)
    use_filter: bool = True
    use_chain_encoder: bool = True
    use_numerical_aware: bool = True
    use_chain_weighting: bool = True
    # query scope: restrict training/evaluation to these attribute names
    attributes: tuple[str, ...] | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):  # the type of the default, as for CLI flags
            value, kind = getattr(self, f.name), type(f.default)
            if f.name == "attributes":
                kind, ok = "None or a list of str", value is None or (
                    isinstance(value, (list, tuple)) and all(isinstance(a, str) for a in value))
            else:  # a bool is no number; an int passes as a float
                ok = (isinstance(value, (int, float) if kind is float else kind)
                      and (kind is bool or not isinstance(value, bool)))
            if not ok:
                raise ValueError(f"{f.name} must be {getattr(kind, '__name__', kind)}, "
                                 f"got {value!r}")
        if self.mode not in PROJECTION_MODES:
            raise ValueError(f"mode must be one of {PROJECTION_MODES}, got {self.mode!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        for name in ("walks", "max_hops", "top_k", "dim", "filter_dim", "layers", "heads",
                     "affine_hidden", "epochs", "batch_size", "seed", "patience"):
            low = 0 if name in ("seed", "patience") else 1
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")
        for name in ("clip_norm", "curvature"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.init_radius < 1.0 / math.sqrt(self.curvature):
            raise ValueError(f"init_radius must lie in (0, 1/sqrt(curvature)), "
                             f"got {self.init_radius}")
        if not self.lr >= 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.attributes is not None:
            self.attributes = tuple(self.attributes)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["attributes"] is not None:
            out["attributes"] = list(out["attributes"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
