"""Prompt rendering against the frozen golden files plus structural checks."""

import dataclasses
from pathlib import Path

import pytest

from argscore.augment import (
    AugmentationKind,
    FewShotExemplar,
    MissingExemplars,
    MissingLabels,
    load_exemplars,
    render_prompt,
)
from argscore.augment.prompts import (
    SIMILAR_QUALITY_INSTRUCTION,
    _score_block,
    format_score,
    validate_exemplar_pool,
)
from argscore.corpus import ArgumentRecord, QualityScores

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_RECORD = ArgumentRecord(
    id="g",
    topic="Do cell phones cause a distraction to people?",
    argument="Nothing makes me more angry when people do not take driving seriously",
    labels=QualityScores(3.0, 2.5, 4.0),
)


@pytest.mark.parametrize("kind,golden", [
    (AugmentationKind.FEEDBACK, "feedback.txt"),
    (AugmentationKind.ASSUMPTIONS, "assumptions.txt"),
    (AugmentationKind.COUNTER_ARGUMENT, "counter_argument.txt"),
])
def test_zero_shot_prompts_match_golden(kind, golden):
    expected = (GOLDEN_DIR / golden).read_text(encoding="utf-8")
    assert render_prompt(kind, GOLDEN_RECORD) == expected


def test_similar_quality_prompt_matches_golden():
    expected = (GOLDEN_DIR / "similar_quality.txt").read_text(encoding="utf-8")
    rendered = render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD,
                             exemplars=load_exemplars())
    assert rendered == expected


def test_prompt_openings():
    assert render_prompt(AugmentationKind.FEEDBACK, GOLDEN_RECORD).startswith(
        "Give concise writing feedback for the following argument in context with the topic, "
        "preferably in bullet points:"
    )
    assert render_prompt(AugmentationKind.ASSUMPTIONS, GOLDEN_RECORD).startswith(
        'Summarize the assumptions, if any, in the following argument in a bullet format '
        'otherwise return "No assumptions"'
    )
    assert render_prompt(AugmentationKind.COUNTER_ARGUMENT, GOLDEN_RECORD).startswith(
        "Give a counter-argument for the following argument with respect to the Topic: "
        "Do cell phones cause a distraction to people?"
    )


def test_topic_and_argument_appear_exactly_once():
    record = ArgumentRecord(id="u", topic="zq topic zq", argument="xv argument xv",
                            labels=QualityScores(2, 3, 4))
    pool = load_exemplars()
    for kind in AugmentationKind:
        exemplars = pool if kind is AugmentationKind.SIMILAR_QUALITY else None
        prompt = render_prompt(kind, record, exemplars=exemplars)
        assert prompt.count(record.topic) == 1
        assert prompt.count(record.argument) == 1


def test_similar_quality_includes_all_ten_exemplars_in_template_order():
    pool = load_exemplars()
    prompt = render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=pool)
    for ex in pool:
        assert ex.argument in prompt
    # eleven score blocks: ten exemplars plus the record itself
    assert prompt.count("Cogency Score:") == 11
    assert prompt.count("Effectiveness Score:") == 11
    assert prompt.count("Reasonableness Score:") == 11
    assert prompt.count("Topic:") == 11
    # line order within a block
    lines = prompt.splitlines()
    starts = [i for i, ln in enumerate(lines) if ln.startswith("Cogency Score:")]
    assert len(starts) == 11
    for i in starts:
        assert lines[i + 1].startswith("Effectiveness Score:")
        assert lines[i + 2].startswith("Reasonableness Score:")
        assert lines[i + 3].startswith("Topic:")
        assert lines[i + 4].startswith("Argument:")


def test_similar_quality_requires_labels_and_exemplars():
    pool = load_exemplars()
    render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=pool)  # pool memoised
    unlabeled = ArgumentRecord(id="u", topic="T", argument="A")
    with pytest.raises(MissingLabels):
        render_prompt(AugmentationKind.SIMILAR_QUALITY, unlabeled, exemplars=pool)
    for empty in ([], (), None):
        with pytest.raises(MissingExemplars):
            render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=empty)


@pytest.mark.parametrize("kind", [
    AugmentationKind.FEEDBACK, AugmentationKind.ASSUMPTIONS, AugmentationKind.COUNTER_ARGUMENT,
])
def test_only_similar_quality_reads_the_pool_and_labels(kind):
    unlabeled = ArgumentRecord(id="u", topic=GOLDEN_RECORD.topic, argument=GOLDEN_RECORD.argument)
    expected = render_prompt(kind, GOLDEN_RECORD)
    for pool in (load_exemplars(), [], None):
        assert render_prompt(kind, GOLDEN_RECORD, exemplars=pool) == expected
        assert render_prompt(kind, unlabeled, exemplars=pool) == expected


def test_rendering_is_pure():
    first = render_prompt(AugmentationKind.FEEDBACK, GOLDEN_RECORD)
    second = render_prompt(AugmentationKind.FEEDBACK, GOLDEN_RECORD)
    assert first == second


def test_format_score():
    assert format_score(3.0) == "3.0"
    assert format_score(2.5) == "2.5"
    assert format_score(1) == "1.0"


def test_bundled_exemplar_pool_structure():
    pool = load_exemplars()
    assert len(pool) == 10
    validate_exemplar_pool(pool)  # two per integer level 1-5 on every axis


def test_exemplar_pool_validation_rejects_bad_pools():
    bad = [FewShotExemplar(1, 1, 1, "t", "a")] * 10
    with pytest.raises(ValueError):
        validate_exemplar_pool(bad)
    with pytest.raises(ValueError):
        validate_exemplar_pool([])


def _reference_similar_quality(record, exemplars):
    """The similar-quality body built block by block, with no memo."""
    blocks = [
        _score_block(ex.cogency, ex.effectiveness, ex.reasonableness, ex.topic, ex.argument)
        for ex in exemplars
    ]
    blocks.append(
        _score_block(
            record.labels.cogency,
            record.labels.effectiveness,
            record.labels.reasonableness,
            record.topic,
            record.argument,
        )
        + "\n"
        + SIMILAR_QUALITY_INSTRUCTION
    )
    return "\n\n".join(blocks)


def test_similar_quality_equals_block_by_block_rendering():
    bundled = load_exemplars()
    changed = list(bundled)
    changed[3] = dataclasses.replace(changed[3], effectiveness=2.5)
    # a list pool and a tuple pool of the same exemplars give the same bytes
    for pool in (bundled, tuple(bundled), changed):
        rendered = render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=pool)
        assert rendered == _reference_similar_quality(GOLDEN_RECORD, pool)


def test_changing_a_pool_in_place_changes_the_prompt():
    pool = load_exemplars()
    before = render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=pool)
    pool[0] = dataclasses.replace(pool[0], argument="a rewritten exemplar argument")
    after = render_prompt(AugmentationKind.SIMILAR_QUALITY, GOLDEN_RECORD, exemplars=pool)
    assert after != before
    assert after == _reference_similar_quality(GOLDEN_RECORD, pool)
    assert "a rewritten exemplar argument" in after

