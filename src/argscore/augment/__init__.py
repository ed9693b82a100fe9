"""Generation and caching of the four context texts attached to each record."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
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
from argscore.corpus import (
    ArgumentRecord,
    Dataset,
    MalformedRow,
    _jsonl_rows,
    corpus_texts,
    naming_file,
)

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
    "vocab_texts",
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

    Every requested prompt is rendered first, so one that ``render_prompt``
    cannot render raises before anything is sent or cached. Each prompt is
    then looked up in the cache by content hash, and only on a miss sent to
    the provider; the response is persisted before returning. A hit's metadata
    carries the time its entry was written. A reply that is not a non-blank
    string, from any provider, raises ``ProviderError`` (status 0) before it
    is cached. Provider failures propagate and leave the cache untouched.
    """
    requested = set(kinds)
    rendered = {kind: render_prompt(kind, record, exemplars)
                for kind in KIND_ORDER if kind in requested}
    texts: dict[str, str] = {}
    metadata: dict[str, GenerationMetadata] = {}
    for kind, prompt in rendered.items():
        key = PromptCache.key(kind.value, prompt, provider.model_name, provider.temperature)
        hit = cache.get(key, prompt) if cache is not None else None
        if hit is not None:
            response, timestamp = hit  # stamped when the entry was written
        else:
            response = provider.complete(kind, prompt)
            if not isinstance(response, str) or not response.strip():
                raise ProviderError(0, f"blank or non-string {kind.value} reply: {response!r}")
            # one timestamp, so a new cache entry and its metadata record the same time
            timestamp = provider.timestamp()
            if cache is not None:
                cache.put(key, kind.value, prompt, response, provider.model_name,
                          provider.temperature, timestamp)
        texts[kind.value] = response
        metadata[kind.value] = GenerationMetadata(
            provider=provider.name,
            model=provider.model_name,
            timestamp=timestamp,
            prompt_hash=key,
        )
    return AugmentationSet(metadata=metadata, **texts)


def vocab_texts(dataset: Dataset, sets: dict[str, AugmentationSet]) -> list[str]:
    """The texts a vocabulary is built from: every record's topic and
    argument, then every set's non-empty context texts in ``KIND_ORDER``."""
    texts = list(corpus_texts(dataset))
    for aug in sets.values():
        texts += [text for kind in KIND_ORDER if (text := aug.get(kind))]
    return texts


def write_augmentations(path: str | Path, sets: dict[str, AugmentationSet]) -> None:
    """One JSON object per record id; absent kinds serialize as null."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record_id, aug in sets.items():
            obj = {"id": record_id, **{kind.value: aug.get(kind) for kind in KIND_ORDER},
                   "metadata": {k: asdict(m) for k, m in aug.metadata.items()}}
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_augmentations(path: str | Path) -> dict[str, AugmentationSet]:
    """Read what ``write_augmentations`` wrote. Each line is an object with a
    new string ``id``, each of the four kinds as a non-empty string or null,
    and ``metadata`` mapping kinds to their generation fields; any other line
    raises ``MalformedRow`` with the file and line number."""
    sets: dict[str, AugmentationSet] = {}
    with Path(path).open(encoding="utf-8") as fh, naming_file(path):
        for line, obj in _jsonl_rows(fh):
            if obj["id"] in sets:
                raise MalformedRow(line, f"duplicate id {obj['id']!r}")
            sets[obj["id"]] = _augmentation_set(obj, line)
    return sets


_KINDS = tuple(k.value for k in KIND_ORDER)


def _augmentation_set(obj: dict, line: int) -> AugmentationSet:
    unknown = sorted(obj.keys() - {"id", "metadata", *_KINDS})
    if unknown:
        raise MalformedRow(line, f"unknown field {unknown[0]!r}")
    texts = {kind: obj.get(kind) for kind in _KINDS}
    if any(text is not None and not isinstance(text, str) for text in texts.values()):
        raise MalformedRow(line, "a context text must be a string or null")
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict) or not metadata.keys() <= set(_KINDS):
        raise MalformedRow(line, "metadata must map kind names to objects")
    try:
        return AugmentationSet(
            metadata={kind: GenerationMetadata(**m) for kind, m in metadata.items()}, **texts)
    except (TypeError, ValueError) as exc:  # bad generation fields, or an empty text
        raise MalformedRow(line, str(exc))
