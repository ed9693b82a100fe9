"""Whitespace/punctuation tokenizer and frequency-ranked vocabulary."""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from argscore.augment.prompts import AugmentationKind

# id 0 is [PAD]: no sequence is padded, but saved vocabularies keep its slot
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3

MARKER_IDS = {
    AugmentationKind.FEEDBACK: 4,
    AugmentationKind.ASSUMPTIONS: 5,
    AugmentationKind.SIMILAR_QUALITY: 6,
    AugmentationKind.COUNTER_ARGUMENT: 7,
}

RESERVED_TOKENS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[FB]", "[AS]", "[SQ]", "[CA]"]

_TOKEN_RE = re.compile(r"[a-z0-9]+|[^a-z0-9\s]")


class EmptyCorpus(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    """Lowercase, split into alphanumeric runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.token_to_id.get(tok, UNK_ID) for tok in tokens]

    def encode_text(self, text: str) -> list[int]:
        return self.encode(tokenize(text))

    @property
    def learned_tokens(self) -> list[str]:
        return self.id_to_token[len(RESERVED_TOKENS):]

    def sha256(self) -> str:
        payload = "".join(tok + "\n" for tok in self.learned_tokens)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        # one learned token per line; line number = id - number of reserved slots
        Path(path).write_text("".join(tok + "\n" for tok in self.learned_tokens), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        learned = Path(path).read_text(encoding="utf-8").splitlines()
        return cls.from_learned(learned)

    @classmethod
    def from_learned(cls, learned: list[str]) -> "Vocabulary":
        id_to_token = list(RESERVED_TOKENS) + list(learned)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token)


def build_vocab(texts: Iterable[str], max_size: int = 8000) -> Vocabulary:
    """Rank tokens by frequency (ties lexicographic) and keep the top
    ``max_size - reserved`` of them. Deterministic for a fixed corpus."""
    if max_size <= len(RESERVED_TOKENS):
        raise ValueError(f"max_size must exceed the {len(RESERVED_TOKENS)} reserved slots")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    if not counts:
        raise EmptyCorpus("no tokens found in corpus")
    budget = max_size - len(RESERVED_TOKENS)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    learned = [tok for tok, _ in ranked[:budget]]
    return Vocabulary.from_learned(learned)
