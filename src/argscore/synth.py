"""Synthetic end-to-end experiment.

Builds a corpus whose gold scores are a deterministic function of marker
words planted only in the generated context texts: the cogency level is
spelled out inside the feedback text, the effectiveness level inside the
similar-quality text, and the reasonableness level inside the
counter-argument. Topics and arguments are pure filler, so a model that
ignores the context cannot beat chance, while a model that reads it can
recover the labels almost exactly. The argument nearly fills the first
sequence, so in single mode almost the whole context is truncated away.
The texts pass through the regular generation pipeline from a canned
provider, so prompt rendering is exercised.

The trainings compared on the held-out test split are the entries of
``RUNS``: dual mode with all context kinds, dual mode with none, and single
mode with all kinds. A run is added there. A run's position in ``RUNS`` keys
its training and initialisation seeds, so appending a run leaves the others'
results unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from argscore.augment import (
    AugmentationKind,
    AugmentationSet,
    CannedProvider,
    KIND_ORDER,
    NO_ASSUMPTIONS,
    generate,
    load_exemplars,
    vocab_texts,
)
from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.evaluation import EvalRow, evaluate
from argscore.model import ModelConfig, build_vocab, init_parameters
from argscore.seeding import derive_seed, stream
from argscore.train import TrainConfig, train

DUAL_ALL_MIN = 0.90
DUAL_NONE_MAX = 0.30
DUAL_MINUS_SINGLE_MIN = 0.05

_FILLER = [
    "point", "view", "issue", "matter", "case", "claim", "stance", "note",
    "debate", "reason", "side", "thought", "idea", "angle", "topic", "theme",
    "remark", "detail", "aspect", "sense", "ground", "basis", "context",
    "factor", "element", "outline", "premise", "framing", "reading", "take",
]

_SIGNAL = {
    "cogency": ["coglow", "cogmild", "cogfair", "coggood", "cogtop"],
    "effectiveness": ["efflow", "effmild", "efffair", "effgood", "efftop"],
    "reasonableness": ["realow", "reamild", "reafair", "reagood", "reatop"],
}

TOPIC_LEN = 4
ARGUMENT_LEN = 51


# (label, mode, active kinds)
RUNS = (
    ("dual_all", "dual", frozenset(KIND_ORDER)),
    ("dual_none", "dual", frozenset()),
    ("single_all", "single", frozenset(KIND_ORDER)),
)


@dataclass
class SynthSettings:
    """Corpus sizes, the ``ModelConfig`` fields other than ``vocab_size`` and
    ``mode`` (which each run sets), and the ``TrainConfig`` shared by every run
    (each run sets ``rng_seed`` and ``active_kinds``)."""

    n_train: int = 400
    n_dev: int = 60
    n_test: int = 100
    model: dict = field(default_factory=lambda: dict(
        max_seq_len=64, model_dim=32, num_layers=1, num_heads=4, ffn_dim=128,
        num_cross_heads=4, dropout_rate=0.1,
    ))
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        gamma=0.5, batch_size=8, learning_rate=3e-3, epochs=40,
    ))


@dataclass
class SynthResult:
    rows: dict[str, EvalRow]  # test rows by run label, in RUNS order
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _words(rng: np.random.Generator, count: int) -> list[str]:
    return [_FILLER[int(i)] for i in rng.integers(0, len(_FILLER), count)]


def make_records(seed: int, n_train: int, n_dev: int, n_test: int) -> Dataset:
    rng = stream(seed, "synth")
    records = []
    assignment = {}
    counts = [("train", n_train), ("dev", n_dev), ("test", n_test)]
    index = 0
    for split_name, count in counts:
        for _ in range(count):
            levels = rng.integers(1, 6, 3)
            rec = ArgumentRecord(
                id=f"syn{index:05d}",
                domain_tag="synthetic",
                topic=" ".join(_words(rng, TOPIC_LEN)),
                argument=" ".join(_words(rng, ARGUMENT_LEN)),
                labels=QualityScores(float(levels[0]), float(levels[1]), float(levels[2])),
            )
            records.append(rec)
            assignment[rec.id] = split_name
            index += 1
    return Dataset(records=records, split_assignment=assignment, name="synthetic")


def planted_text(kind: AugmentationKind, record: ArgumentRecord, rng: np.random.Generator) -> str:
    """Context text whose marker words encode one gold level.

    The signal sits after the first five tokens of the feedback text, so the
    handful of context tokens that survive single-mode truncation are filler."""
    levels = {
        "cogency": int(record.labels.cogency),
        "effectiveness": int(record.labels.effectiveness),
        "reasonableness": int(record.labels.reasonableness),
    }
    if kind is AugmentationKind.FEEDBACK:
        sig = _SIGNAL["cogency"][levels["cogency"] - 1]
        return " ".join(_words(rng, 5) + [sig] * 3 + _words(rng, 2))
    if kind is AugmentationKind.ASSUMPTIONS:
        if rng.random() < 0.1:
            return NO_ASSUMPTIONS
        return " ".join(_words(rng, 8))
    if kind is AugmentationKind.SIMILAR_QUALITY:
        sig = _SIGNAL["effectiveness"][levels["effectiveness"] - 1]
        return " ".join(_words(rng, 3) + [sig] * 3 + _words(rng, 3))
    sig = _SIGNAL["reasonableness"][levels["reasonableness"] - 1]
    return " ".join(_words(rng, 3) + [sig] * 3 + _words(rng, 4))


def build_augmentations(dataset: Dataset, seed: int) -> dict[str, AugmentationSet]:
    """Plant each record's four texts, then run the regular generation
    pipeline against a canned provider that serves them, so prompt rendering
    is exercised for real. No prompt is rendered outside ``generate``, which
    renders each once."""
    exemplars = load_exemplars()
    sets = {}
    for i, rec in enumerate(dataset.records):
        rec_rng = np.random.default_rng(derive_seed(seed, 10, i))
        provider = CannedProvider({kind: planted_text(kind, rec, rec_rng) for kind in KIND_ORDER})
        sets[rec.id] = generate(rec, KIND_ORDER, provider, exemplars=exemplars)
    return sets


def run_experiment(seed: int, settings: Optional[SynthSettings] = None) -> SynthResult:
    s = settings or SynthSettings()
    if s.n_test < 2:  # checked before any training, which could not be scored
        raise ValueError(f"the test split needs at least two records to correlate, got {s.n_test}")
    dataset = make_records(seed, s.n_train, s.n_dev, s.n_test)
    augmentations = build_augmentations(dataset, seed)

    vocab = build_vocab(vocab_texts(dataset, augmentations), max_size=2000)

    rows = {}
    for index, (label, mode, kinds) in enumerate(RUNS):
        config = ModelConfig(vocab_size=len(vocab), mode=mode, **s.model)
        tcfg = replace(s.train, rng_seed=derive_seed(seed, 20, index), active_kinds=kinds)
        params = init_parameters(config, derive_seed(seed, 21, index))
        best, _, _ = train(params, config, tcfg, dataset, augmentations, vocab)
        rows[label] = evaluate(best, config, vocab, dataset, augmentations, "test", kinds)

    mean = {label: row.mean_spearman() for label, row in rows.items()}
    checks = {
        f"dual+augs >= {DUAL_ALL_MIN}": mean["dual_all"] >= DUAL_ALL_MIN,
        f"dual-augs <= {DUAL_NONE_MAX}": mean["dual_none"] <= DUAL_NONE_MAX,
        f"dual+augs - single+augs >= {DUAL_MINUS_SINGLE_MIN}":
            mean["dual_all"] - mean["single_all"] >= DUAL_MINUS_SINGLE_MIN,
    }
    return SynthResult(rows=rows, checks=checks)
