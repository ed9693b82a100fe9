"""Turn a record plus its generated context into token-id sequences."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER
from argscore.corpus import ArgumentRecord
from argscore.model.config import ModelConfig
from argscore.model.vocab import CLS_ID, MARKER_IDS, SEP_ID, Vocabulary


@dataclass
class EncodedExample:
    """Two id sequences at their real length, each cut to ``max_seq_len``.

    ``seq1`` carries [CLS] topic [SEP] argument [SEP]; ``seq2`` carries the
    active context texts, each introduced by its marker token and closed by
    [SEP]. In single mode the context is appended into ``seq1`` instead and
    ``seq2`` is empty. ``truncated_tokens`` counts silently dropped ids."""

    seq1: np.ndarray
    seq2: np.ndarray
    truncated_tokens: int = 0

    # All ones, as no position is padding; the benchmark's truncation counter reads them.
    mask1 = property(lambda self: np.ones(len(self.seq1)))
    mask2 = property(lambda self: np.ones(len(self.seq2)))


def encode_input(
    record: ArgumentRecord,
    aug: Optional[AugmentationSet],
    vocab: Vocabulary,
    config: ModelConfig,
    active_kinds: Iterable[AugmentationKind] = (),
) -> EncodedExample:
    length = config.max_seq_len
    active = set(active_kinds)
    ids1 = (
        [CLS_ID]
        + vocab.encode_text(record.topic)
        + [SEP_ID]
        + vocab.encode_text(record.argument)
        + [SEP_ID]
    )
    aug_ids: list[int] = []
    if aug is not None:
        for kind in KIND_ORDER:
            if kind not in active:
                continue
            text = aug.get(kind)
            if text is None:
                continue
            if kind is AugmentationKind.ASSUMPTIONS and aug.empty_assumptions:
                continue  # the bare sentinel carries no content
            aug_ids += [MARKER_IDS[kind]] + vocab.encode_text(text) + [SEP_ID]

    if config.mode == "single":
        ids1 = ids1 + aug_ids
        aug_ids = []

    truncated = max(0, len(ids1) - length) + max(0, len(aug_ids) - length)
    return EncodedExample(seq1=np.array(ids1[:length], dtype=np.int64),
                          seq2=np.array(aug_ids[:length], dtype=np.int64),
                          truncated_tokens=truncated)
