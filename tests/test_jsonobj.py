import json

import pytest

from argscore.augment import (
    AugmentationKind,
    AugmentationSet,
    GenerationMetadata,
    ProviderConfig,
    write_augmentations,
)
from argscore.cli import RunConfig
from argscore.jsonobj import from_json, to_json
from argscore.train import TrainConfig, TrainState
from tests.conftest import small_config

META = GenerationMetadata(provider="mock", model="m", timestamp="1970-01-01T00:00:00Z",
                          prompt_hash="ab12")


@pytest.mark.parametrize("obj", [
    small_config(),
    TrainConfig(adam_betas=(0.8, 0.9), active_kinds=frozenset({AugmentationKind.FEEDBACK})),
    TrainState(step=3, loss_history=[0.5, 0.25], best_epoch=1),
    ProviderConfig(base_url="http://h/v1"),
    AugmentationSet(feedback="f", similar_quality="s",
                    metadata={"feedback": META, "similar_quality": META}),
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


def test_from_json_decodes_into_the_annotated_types():
    tcfg = from_json(TrainConfig, {"adam_betas": [0.8, 0.9],
                                   "active_kinds": ["feedback", "counter_argument"]}, "train")
    assert type(tcfg.adam_betas) is tuple and tcfg.adam_betas == (0.8, 0.9)
    assert type(tcfg.active_kinds) is frozenset
    assert tcfg.active_kinds == {AugmentationKind.FEEDBACK, AugmentationKind.COUNTER_ARGUMENT}
    assert all(type(k) is AugmentationKind for k in tcfg.active_kinds)
    run = from_json(RunConfig, {"split_ratios": [1, 0, 0]}, "run")
    assert type(run.split_ratios) is tuple and run.split_ratios == (1, 0, 0)
    aug = from_json(AugmentationSet, {"metadata": {"feedback": to_json(META)}}, "augmentation")
    assert aug.metadata == {"feedback": META}


@pytest.mark.parametrize("data, message", [
    ({}, "provider setting 'base_url' is missing"),
    ({"base_url": "u", "temperature": True}, "provider setting 'temperature' must be float"),
    ({"base_url": ["u"]}, "provider setting 'base_url' must be str"),
    (["u"], "provider settings must be a JSON object"),
])
def test_from_json_rejects_with_value_error(data, message):
    with pytest.raises(ValueError, match=message):
        from_json(ProviderConfig, data, "provider")


@pytest.mark.parametrize("meta, message", [
    ({**to_json(META), "timestamp": 5},
     "augmentation setting 'metadata.feedback.timestamp' must be str, got 5"),
    ({**to_json(META), "seed": 1}, "unknown augmentation setting 'metadata.feedback.seed'"),
    ({"provider": "mock"}, "augmentation setting 'metadata.feedback.model' is missing"),
    ("mock", "augmentation setting 'metadata' must be dict"),
])
def test_an_error_in_a_nested_value_names_its_path(meta, message):
    with pytest.raises(ValueError, match=message):
        from_json(AugmentationSet, {"metadata": {"feedback": meta}}, "augmentation")


def test_unhashable_enum_value_is_rejected():
    with pytest.raises(ValueError, match="active_kinds"):
        from_json(TrainConfig, {"active_kinds": [["feedback"]]}, "train")


def test_written_augmentation_line_is_pinned(tmp_path):
    path = tmp_path / "a.jsonl"
    write_augmentations(path, {"r1": AugmentationSet(feedback="- très clair", assumptions=None,
                                                     metadata={"feedback": META})})
    assert path.read_text(encoding="utf-8") == (
        '{"id": "r1", "feedback": "- très clair", "assumptions": null, "similar_quality": null, '
        '"counter_argument": null, "metadata": {"feedback": {"provider": "mock", "model": "m", '
        '"timestamp": "1970-01-01T00:00:00Z", "prompt_hash": "ab12"}}}\n')
