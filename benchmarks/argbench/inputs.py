"""Seeded input generators.

Every generator is a pure function of its seed: the same seed gives the same
records, and therefore byte-identical files once ``corpus.write_dataset`` has
written them.
"""

from __future__ import annotations

import numpy as np

from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.seeding import derive_seed

LEXICON_SIZE = 30000
ZIPF_EXPONENT = 0.8
TOPIC_TOKENS = (3, 8)
ARGUMENT_TOKENS = (20, 81)

# 17 consonants times 5 vowels: 85 syllables; words are two or three of them
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


def lexicon(seed: int, size: int = LEXICON_SIZE) -> list[str]:
    """Distinct pseudo-words in a seeded order that doubles as their
    frequency rank. Each word spells a distinct code in base 85."""
    rng = np.random.default_rng(derive_seed(seed, 100))
    n = len(_SYLLABLES)
    codes = rng.choice(n ** 2 + n ** 3, size=size, replace=False)
    words = []
    for code in codes.tolist():
        digits = [code // n, code % n] if code < n ** 2 else [
            (code - n ** 2) // (n * n), (code - n ** 2) // n % n, code % n]
        words.append("".join(_SYLLABLES[d] for d in digits))
    return words


def _gold(rng: np.random.Generator) -> QualityScores:
    # each score is the mean of three annotators' integer votes, as in GAQ
    votes = rng.integers(1, 6, (3, 3))
    return QualityScores(*(float(v) for v in votes.mean(axis=1)))


def zipf_dataset(
    seed: int, n_train: int, n_dev: int, n_test: int, n_unsplit: int = 0,
) -> Dataset:
    """Labelled records whose words follow a Zipf law over a seeded lexicon.

    Records are assigned to train, dev and test in that order; the last
    ``n_unsplit`` records belong to no split and only widen the vocabulary."""
    words = lexicon(seed)
    rng = np.random.default_rng(derive_seed(seed, 101))
    cdf = np.cumsum(np.arange(1, len(words) + 1, dtype=np.float64) ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]

    def text(bounds: tuple[int, int]) -> str:
        draws = rng.random(int(rng.integers(*bounds)))
        ids = np.minimum(np.searchsorted(cdf, draws, side="right"), len(words) - 1)
        return " ".join(words[i] for i in ids.tolist())

    splits = ["train"] * n_train + ["dev"] * n_dev + ["test"] * n_test + [None] * n_unsplit
    records, assignment = [], {}
    for i, split in enumerate(splits):
        rec = ArgumentRecord(
            id=f"z{i:05d}", domain_tag="bench", topic=text(TOPIC_TOKENS),
            argument=text(ARGUMENT_TOKENS), labels=_gold(rng),
        )
        records.append(rec)
        if split is not None:
            assignment[rec.id] = split
    return Dataset(records=records, split_assignment=assignment, name="zipf")
