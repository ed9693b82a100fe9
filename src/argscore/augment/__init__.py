"""Generation and caching of the four context texts attached to each record."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

from argscore.augment.cache import CacheCorrupt, PromptCache
from argscore.augment.prompts import (
    KIND_ORDER,
    NO_ASSUMPTIONS,
    AugmentationKind,
    FewShotExemplar,
    MissingExemplars,
    MissingLabels,
    load_exemplars,
    render_prompt,
)
from argscore.augment.providers import (
    CannedProvider,
    HttpProvider,
    MockProvider,
    ProviderConfig,
    ProviderError,
    ProviderTimeout,
)
from argscore.corpus import ArgumentRecord

__all__ = [
    "AugmentationKind",
    "AugmentationSet",
    "GenerationMetadata",
    "FewShotExemplar",
    "KIND_ORDER",
    "NO_ASSUMPTIONS",
    "CacheCorrupt",
    "CannedProvider",
    "HttpProvider",
    "MissingExemplars",
    "MissingLabels",
    "MockProvider",
    "PromptCache",
    "ProviderConfig",
    "ProviderError",
    "ProviderTimeout",
    "generate",
    "load_exemplars",
    "parse_kinds",
    "read_augmentations",
    "render_prompt",
    "write_augmentations",
]


@dataclass(frozen=True)
class GenerationMetadata:
    provider: str
    model: str
    timestamp: str
    prompt_hash: str


@dataclass(frozen=True)
class AugmentationSet:
    """The four generated texts for one record; each is optional."""

    feedback: Optional[str] = None
    assumptions: Optional[str] = None
    similar_quality: Optional[str] = None
    counter_argument: Optional[str] = None
    metadata: dict[str, GenerationMetadata] = field(default_factory=dict)

    def __post_init__(self):
        for kind in KIND_ORDER:
            text = self.get(kind)
            if text is not None and not text.strip():
                raise ValueError(f"{kind.value} text present but empty")

    def get(self, kind: AugmentationKind) -> Optional[str]:
        return getattr(self, kind.value)

    def with_text(self, kind: AugmentationKind, text: Optional[str]) -> "AugmentationSet":
        return replace(self, **{kind.value: text})

    @property
    def empty_assumptions(self) -> bool:
        return self.assumptions == NO_ASSUMPTIONS


def parse_kinds(spec: str) -> set[AugmentationKind]:
    """Parse 'all' or a comma-separated list of kind names."""
    if spec.strip() == "all":
        return set(KIND_ORDER)
    if spec.strip() == "none":
        return set()
    kinds = set()
    for name in spec.split(","):
        name = name.strip()
        try:
            kinds.add(AugmentationKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in KIND_ORDER)
            raise ValueError(f"unknown augmentation kind {name!r} (valid: {valid}, all, none)")
    return kinds


def generate(
    record: ArgumentRecord,
    kinds: Iterable[AugmentationKind],
    provider,
    cache: Optional[PromptCache] = None,
    exemplars: Optional[Sequence[FewShotExemplar]] = None,
) -> AugmentationSet:
    """Produce the requested texts for one record, reusing cached responses.

    For every requested kind the prompt is rendered, looked up in the cache by
    content hash, and only on a miss sent to the provider; the response is
    persisted before returning. Provider failures propagate and leave the
    cache untouched.
    """
    requested = set(kinds)
    texts: dict[str, str] = {}
    metadata: dict[str, GenerationMetadata] = {}
    for kind in KIND_ORDER:
        if kind not in requested:
            continue
        if kind is AugmentationKind.SIMILAR_QUALITY:
            pool = exemplars if exemplars is not None else load_exemplars()
            prompt = render_prompt(kind, record, exemplars=pool)
        else:
            prompt = render_prompt(kind, record)
        key = PromptCache.key(kind.value, prompt, provider.model_name, provider.temperature)
        response = cache.get(key, prompt) if cache is not None else None
        if response is None:
            response = provider.complete(kind, prompt)
            if cache is not None:
                cache.put(
                    key,
                    kind.value,
                    prompt,
                    response,
                    provider.model_name,
                    provider.temperature,
                    provider.timestamp(),
                )
        texts[kind.value] = response
        metadata[kind.value] = GenerationMetadata(
            provider=provider.name,
            model=provider.model_name,
            timestamp=provider.timestamp(),
            prompt_hash=key,
        )
    return AugmentationSet(metadata=metadata, **texts)


def write_augmentations(path: str | Path, sets: dict[str, AugmentationSet]) -> None:
    """One JSON object per record id; absent kinds serialize as null."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record_id, aug in sets.items():
            obj = {
                "id": record_id,
                "feedback": aug.feedback,
                "assumptions": aug.assumptions,
                "similar_quality": aug.similar_quality,
                "counter_argument": aug.counter_argument,
                "metadata": {
                    k: {
                        "provider": m.provider,
                        "model": m.model,
                        "timestamp": m.timestamp,
                        "prompt_hash": m.prompt_hash,
                    }
                    for k, m in aug.metadata.items()
                },
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_augmentations(path: str | Path) -> dict[str, AugmentationSet]:
    sets: dict[str, AugmentationSet] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            metadata = {
                k: GenerationMetadata(**m) for k, m in obj.get("metadata", {}).items()
            }
            sets[obj["id"]] = AugmentationSet(
                feedback=obj.get("feedback"),
                assumptions=obj.get("assumptions"),
                similar_quality=obj.get("similar_quality"),
                counter_argument=obj.get("counter_argument"),
                metadata=metadata,
            )
    return sets
