import json

import pytest

from argscore.augment import AugmentationKind, ProviderConfig
from argscore.jsonobj import from_json, to_json
from argscore.train import TrainConfig, TrainState
from tests.conftest import small_config


@pytest.mark.parametrize("obj", [
    small_config(),
    TrainConfig(adam_betas=(0.8, 0.9), active_kinds=frozenset({AugmentationKind.FEEDBACK})),
    TrainState(step=3, loss_history=[0.5, 0.25], best_epoch=1),
    ProviderConfig(base_url="http://h/v1"),
], ids=lambda obj: type(obj).__name__)
def test_round_trip_through_json_text(obj):
    data = json.loads(json.dumps(to_json(obj)))
    assert from_json(type(obj), data, "x") == obj


def test_to_json_writes_declared_order_and_plain_values():
    data = to_json(TrainConfig(active_kinds=frozenset({AugmentationKind.SIMILAR_QUALITY,
                                                      AugmentationKind.FEEDBACK})))
    assert list(data) == ["gamma", "batch_size", "learning_rate", "epochs", "adam_betas",
                          "adam_eps", "grad_clip_norm", "rng_seed", "active_kinds"]
    assert data["adam_betas"] == [0.9, 0.999]
    assert data["active_kinds"] == ["feedback", "similar_quality"]


@pytest.mark.parametrize("data, message", [
    ({}, "provider setting 'base_url' is missing"),
    ({"base_url": "u", "temperature": True}, "provider setting 'temperature' must be float"),
    ({"base_url": ["u"]}, "provider setting 'base_url' must be str"),
])
def test_from_json_rejects_with_value_error(data, message):
    with pytest.raises(ValueError, match=message):
        from_json(ProviderConfig, data, "provider")


def test_unhashable_enum_value_is_rejected():
    with pytest.raises(ValueError, match="active_kinds"):
        from_json(TrainConfig, {"active_kinds": [["feedback"]]}, "train")
