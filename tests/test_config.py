"""Validation and serialization behaviour of TrainConfig."""

import json

import pytest

from rachain.config import LOSSES, PROJECTION_MODES, TrainConfig


def test_defaults_construct():
    cfg = TrainConfig()
    assert cfg.mode in PROJECTION_MODES
    assert cfg.loss in LOSSES
    assert cfg.attributes is None


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"mode": "quadratic"}, "mode must be one of"),
        ({"loss": "huber"}, "loss must be one of"),
        ({"dim": 10, "heads": 4}, "not divisible"),
        ({"lam": 1.5}, "lam must lie in"),
        ({"walks": 0}, "walks must be >= 1"),
        ({"epochs": -3}, "epochs must be >= 1"),
        ({"affine_hidden": 0}, "affine_hidden must be >= 1"),
        ({"clip_norm": 0.0}, "clip_norm must be > 0"),
        ({"clip_norm": -1.0}, "clip_norm must be > 0"),
        ({"curvature": 0.0}, "curvature must be > 0"),
        ({"curvature": -1.0}, "curvature must be > 0"),
        ({"lr": -1e-4}, "lr must be >= 0"),
    ],
)
def test_invalid_values_rejected(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        TrainConfig(**kwargs)


def test_attributes_normalized_to_tuple():
    cfg = TrainConfig(attributes=["height", "width"])
    assert cfg.attributes == ("height", "width")


def test_round_trip_through_dict():
    cfg = TrainConfig(walks=64, mode="combined", attributes=("dst",), lam=0.25)
    clone = TrainConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    # to_dict must be JSON-serializable as produced
    json.dumps(cfg.to_dict())


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys.*wheels"):
        TrainConfig.from_dict({"wheels": 4})
