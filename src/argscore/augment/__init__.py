"""Generation and caching of the four context texts attached to each record."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
from argscore.jsonobj import from_json, to_json

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


# the kinds' names in KIND_ORDER: the text fields of an AugmentationSet and its metadata keys
_KIND_NAMES = tuple(kind.value for kind in KIND_ORDER)
_KIND_NAME_SET = frozenset(_KIND_NAMES)


@dataclass(frozen=True)
class GenerationMetadata:
    provider: str
    model: str
    timestamp: str
    prompt_hash: str


@dataclass(frozen=True)
class AugmentationSet:
    """The four generated texts for one record, each optional, and their metadata by kind."""

    feedback: Optional[str] = None
    assumptions: Optional[str] = None
    similar_quality: Optional[str] = None
    counter_argument: Optional[str] = None
    metadata: dict[str, GenerationMetadata] = field(default_factory=dict)

    def __post_init__(self):
        for name in _KIND_NAMES:
            text = getattr(self, name)
            if text is not None and not text.strip():
                raise ValueError(f"{name} text present but empty")
        if not self.metadata.keys() <= _KIND_NAME_SET:
            raise ValueError(f"metadata keys must be kind names, got {sorted(self.metadata)}")

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
    cannot render raises before anything is sent or cached. The provider's
    name, model and temperature are read once per call. Each prompt is then
    looked up in the cache by content hash, a hit costing one ``os.read`` of
    its entry and the entry's checks (see ``augment.cache``), and only on a
    miss sent to the provider; the response is persisted before returning. A
    hit's metadata carries the time its entry was written. A reply that is not
    a non-blank string, from any provider, raises ``ProviderError`` (status 0)
    before it is cached. Provider failures propagate and leave the cache
    untouched.
    """
    requested = set(kinds)
    rendered = [(kind, render_prompt(kind, record, exemplars))
                for kind in KIND_ORDER if kind in requested]
    provider_name, model, temperature = provider.name, provider.model_name, provider.temperature
    texts: dict[str, str] = {}
    metadata: dict[str, GenerationMetadata] = {}
    for kind, prompt in rendered:
        kind_name = kind.value
        key = PromptCache.key(kind_name, prompt, model, temperature)
        hit = cache.get(key, prompt) if cache is not None else None
        if hit is not None:
            response, timestamp = hit  # stamped when the entry was written
        else:
            response = provider.complete(kind, prompt)
            if not isinstance(response, str) or not response.strip():
                raise ProviderError(0, f"blank or non-string {kind_name} reply: {response!r}")
            # one timestamp, so a new cache entry and its metadata record the same time
            timestamp = provider.timestamp()
            if cache is not None:
                cache.put(key, kind_name, prompt, response, model, temperature, timestamp)
        texts[kind_name] = response
        metadata[kind_name] = GenerationMetadata(
            provider=provider_name, model=model, timestamp=timestamp, prompt_hash=key)
    return AugmentationSet(metadata=metadata, **texts)


def vocab_texts(dataset: Dataset, sets: dict[str, AugmentationSet]) -> list[str]:
    """The texts a vocabulary is built from: every record's topic and
    argument, then every set's non-empty context texts in ``KIND_ORDER``."""
    texts = list(corpus_texts(dataset))
    for aug in sets.values():
        texts += [text for kind in KIND_ORDER if (text := aug.get(kind))]
    return texts


def write_augmentations(path: str | Path, sets: dict[str, AugmentationSet]) -> None:
    """One JSON object per record: its ``id``, then ``jsonobj.to_json`` of its set."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record_id, aug in sets.items():
            fh.write(json.dumps({"id": record_id, **to_json(aug)}, ensure_ascii=False) + "\n")


def read_augmentations(path: str | Path, records: Iterable[ArgumentRecord] = ()
                       ) -> dict[str, AugmentationSet]:
    """Read what ``write_augmentations`` wrote: a new string ``id`` per line and
    an ``AugmentationSet`` that ``jsonobj.from_json`` reads from the rest, else
    ``MalformedRow`` names the file and line. If a record of ``records`` has no
    set, ``ValueError`` names the file, how many lack one and the first."""
    sets: dict[str, AugmentationSet] = {}
    with Path(path).open(encoding="utf-8") as fh, naming_file(path):
        for line, obj in _jsonl_rows(fh):
            record_id = obj.pop("id")
            if record_id in sets:
                raise MalformedRow(line, f"duplicate id {record_id!r}")
            try:
                sets[record_id] = from_json(AugmentationSet, obj, "augmentation")
            except ValueError as exc:
                raise MalformedRow(line, str(exc))
    missing = [r.id for r in records if r.id not in sets]
    if missing:
        raise ValueError(f"{path} has no augmentation set for {len(missing)} of the records "
                         f"in use, the first {missing[0]!r}")
    return sets
