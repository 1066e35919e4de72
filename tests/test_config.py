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
        ({"heads": 0}, "heads must be >= 1"),
        ({"init_radius": 2.0}, "init_radius must lie in"),
        ({"init_radius": 0.0}, "init_radius must lie in"),
        ({"curvature": 4.0, "init_radius": 0.5}, "init_radius must lie in"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"patience": -2}, "patience must be >= 0"),
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


@pytest.mark.parametrize(
    "data, message",
    [
        ({"cache_toc": "no"}, "cache_toc must be bool, got 'no'"),
        ({"use_filter": 0}, "use_filter must be bool, got 0"),
        ({"epochs": 3.0}, "epochs must be int, got 3.0"),
        ({"walks": True}, "walks must be int, got True"),
        ({"walks": 2.5}, "walks must be int, got 2.5"),
        ({"seed": "1"}, "seed must be int, got '1'"),
        ({"lr": True}, "lr must be float, got True"),
        ({"lam": "0.5"}, "lam must be float, got '0.5'"),
        ({"mode": 3}, "mode must be str, got 3"),
        ({"attributes": "val"}, "attributes must be None or a list of str, got 'val'"),
        ({"attributes": ["val", 3]}, "attributes must be None or a list of str, got ['val', 3]"),
        ({"attributes": {"val"}}, "attributes must be None or a list of str, got {'val'}"),
    ],
)
def test_values_of_the_wrong_type_rejected(data, message):
    with pytest.raises(ValueError) as info:
        TrainConfig.from_dict(data)
    assert str(info.value) == message


def test_ints_taken_for_float_fields():
    cfg = TrainConfig.from_dict({"lr": 1, "lam": 0, "clip_norm": 2, "attributes": []})
    assert (cfg.lr, cfg.lam, cfg.clip_norm, cfg.attributes) == (1, 0, 2, ())
