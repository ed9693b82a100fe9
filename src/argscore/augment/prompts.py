"""Prompt rendering for the four context-generation strategies.

Templates are fixed text; rendering only substitutes the topic, argument, and
(for the similar-quality strategy) gold scores plus the bundled ten-exemplar
few-shot pool. Rendering is pure: same inputs, same bytes.

The exemplar section of a similar-quality prompt depends on the pool alone, so
it is rendered once per distinct pool content (memoised on the tuple of frozen
exemplars, not on the pool object) and each prompt appends the record's own
block to it. The memo holds only pure results, so rendering stays pure.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from argscore.corpus import ArgumentRecord
from argscore.jsonobj import from_json


class AugmentationKind(str, Enum):
    FEEDBACK = "feedback"
    ASSUMPTIONS = "assumptions"
    SIMILAR_QUALITY = "similar_quality"
    COUNTER_ARGUMENT = "counter_argument"


# encoding and prompting iterate kinds in this fixed order
KIND_ORDER: tuple[AugmentationKind, ...] = (
    AugmentationKind.FEEDBACK,
    AugmentationKind.ASSUMPTIONS,
    AugmentationKind.SIMILAR_QUALITY,
    AugmentationKind.COUNTER_ARGUMENT,
)

NO_ASSUMPTIONS = "No assumptions"


class MissingLabels(ValueError):
    """A similar-quality prompt, or a scored split, lacks gold scores."""


class MissingExemplars(ValueError):
    """Similar-quality prompts need a non-empty few-shot exemplar pool."""


@dataclass(frozen=True)
class FewShotExemplar:
    cogency: float
    effectiveness: float
    reasonableness: float
    topic: str
    argument: str


# the zero-shot prompts, which read only the topic and the argument
ZERO_SHOT_TEMPLATES = {
    AugmentationKind.FEEDBACK: (
        "Give concise writing feedback for the following argument in context with the topic, "
        "preferably in bullet points:\n"
        "Topic: {topic}\n"
        "Argument: {argument}."
    ),
    AugmentationKind.ASSUMPTIONS: (
        'Summarize the assumptions, if any, in the following argument in a bullet format '
        'otherwise return "No assumptions"\n'
        "Topic: {topic}\n"
        "Argument: {argument}."
    ),
    AugmentationKind.COUNTER_ARGUMENT: (
        "Give a counter-argument for the following argument with respect to the Topic: {topic}\n"
        "Argument: {argument}"
    ),
}

SCORE_BLOCK_TEMPLATE = (
    "Cogency Score: {cogency}\n"
    "Effectiveness Score: {effectiveness}\n"
    "Reasonableness Score: {reasonableness}\n"
    "Topic: {topic}\n"
    "Argument: {argument}"
)

SIMILAR_QUALITY_INSTRUCTION = (
    "Generate a similar quality argument with respect to the cogency, "
    "effectiveness and reasonableness scores."
)


def format_score(value: float) -> str:
    """Integral scores render as '3.0', fractional ones minimally ('2.5')."""
    if float(value) == int(value):
        return f"{float(value):.1f}"
    return f"{value:g}"


def _score_block(cogency: float, effectiveness: float, reasonableness: float,
                 topic: str, argument: str) -> str:
    return SCORE_BLOCK_TEMPLATE.format(
        cogency=format_score(cogency),
        effectiveness=format_score(effectiveness),
        reasonableness=format_score(reasonableness),
        topic=topic,
        argument=argument,
    )


@functools.lru_cache(maxsize=32)
def _exemplar_section(pool: tuple[FewShotExemplar, ...]) -> str:
    return "\n\n".join(
        _score_block(ex.cogency, ex.effectiveness, ex.reasonableness, ex.topic, ex.argument)
        for ex in pool
    )


def render_prompt(
    kind: AugmentationKind,
    record: ArgumentRecord,
    exemplars: Optional[Sequence[FewShotExemplar]] = None,
) -> str:
    """The prompt for one kind of context text about ``record``. Every kind
    takes the pool, but only the similar-quality prompt reads it and the gold
    scores: it raises ``MissingLabels`` without scores and ``MissingExemplars``
    without a non-empty pool."""
    if kind is not AugmentationKind.SIMILAR_QUALITY:
        return ZERO_SHOT_TEMPLATES[kind].format(topic=record.topic, argument=record.argument)
    if record.labels is None:
        raise MissingLabels(f"record {record.id!r} has no gold scores")
    if not exemplars:
        raise MissingExemplars("similar-quality prompts need exemplars")
    return (
        _exemplar_section(tuple(exemplars))
        + "\n\n"
        + _score_block(
            record.labels.cogency,
            record.labels.effectiveness,
            record.labels.reasonableness,
            record.topic,
            record.argument,
        )
        + "\n"
        + SIMILAR_QUALITY_INSTRUCTION
    )


def validate_exemplar_pool(pool: Sequence[FewShotExemplar]) -> None:
    """The pool must hold exactly ten exemplars with each integer level 1-5
    appearing exactly twice on every metric axis."""
    if len(pool) != 10:
        raise ValueError(f"exemplar pool must have exactly 10 entries, got {len(pool)}")
    for axis in ("cogency", "effectiveness", "reasonableness"):
        values = sorted(getattr(ex, axis) for ex in pool)
        expected = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0]
        if values != expected:
            raise ValueError(f"exemplar pool {axis} levels {values} != two per integer 1-5")


def load_exemplars(path: str | Path | None = None) -> list[FewShotExemplar]:
    """Load the few-shot exemplar pool (the bundled fixture by default)."""
    if path is None:
        raw = resources.files("argscore.augment").joinpath("exemplars.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8-sig")
    data = json.loads(raw)
    if not isinstance(data, list):
        raise ValueError("an exemplar file must hold a JSON list")
    pool = [from_json(FewShotExemplar, obj, "exemplar") for obj in data]
    validate_exemplar_pool(pool)
    return pool
