"""Scoring of a split: prediction, Pearson/Spearman correlation against gold
labels, per-metric report rows, and the ablation table. A split is encoded
once; ``predict`` returns every encoding's head outputs and ``score``
correlates them with the records' gold. ``evaluate`` does all three in one
call; ``train`` encodes its dev split once and predicts and scores it after
each epoch."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER, MissingLabels
from argscore.corpus import ArgumentRecord, Dataset
from argscore.model import HEAD_NAMES, ModelConfig, ModelParameters, Vocabulary, encoding, network


class LengthMismatch(ValueError):
    pass


class EmptySplit(ValueError):
    pass


def rankdata(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean rank of their block."""
    a = np.asarray(x, dtype=np.float64).ravel()
    order = np.argsort(a, kind="mergesort")
    s = a[order]
    starts_block = np.ones(a.size, dtype=bool)
    starts_block[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(starts_block)
    ends = np.append(starts[1:], a.size) - 1
    ranks = np.empty(a.size, dtype=np.float64)
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(starts_block) - 1]
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Sample Pearson correlation; None when either input has zero variance."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.size != b.size:
        raise LengthMismatch(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise LengthMismatch("need at least two observations")
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0 or not np.isfinite(denom):
        return None
    return float((a * b).sum() / denom)


def spearman(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson correlation of average ranks; None on constant input."""
    return pearson(rankdata(x), rankdata(y))


_METRIC_COLUMNS = [
    "cogency_s", "cogency_p",
    "effectiveness_s", "effectiveness_p",
    "reasonableness_s", "reasonableness_p",
    "wa_s", "wa_p",
]

CSV_COLUMNS = ["dataset", "split", "mode", "augs"] + _METRIC_COLUMNS + ["n"]


@dataclass
class EvalRow:
    dataset: str
    split: str
    mode: str
    augs: str
    n: int
    cogency_s: Optional[float] = None
    cogency_p: Optional[float] = None
    effectiveness_s: Optional[float] = None
    effectiveness_p: Optional[float] = None
    reasonableness_s: Optional[float] = None
    reasonableness_p: Optional[float] = None
    wa_s: Optional[float] = None
    wa_p: Optional[float] = None

    def mean_spearman(self) -> Optional[float]:
        values = [v for v in (self.cogency_s, self.effectiveness_s, self.reasonableness_s)
                  if v is not None]
        return float(np.mean(values)) if values else None


def augs_label(active_kinds: Iterable[AugmentationKind]) -> str:
    active = set(active_kinds)
    if active == set(KIND_ORDER):
        return "all"
    if not active:
        return "none"
    return "+".join(k.value for k in KIND_ORDER if k in active)


def predict(params: ModelParameters, config: ModelConfig,
            encoded: Sequence[encoding.EncodedExample],
            workspace: Optional[network.Workspace] = None) -> np.ndarray:
    """The ``(n, 3)`` unclamped head outputs of ``n`` encodings, no dropout,
    from one ``network.forward`` call. Each row is bitwise that of a forward
    pass of its encoding alone."""
    return network.forward(params, config, encoded, workspace=workspace)


def score(records: Sequence[ArgumentRecord], raw: np.ndarray, dataset: str, split: str,
          mode: str, active_kinds: Iterable[AugmentationKind] = ()) -> EvalRow:
    """The ``EvalRow`` of ``raw``, the predicted rows of ``records``. Heads are
    scored over the records with three scores, ``wa`` (the heads' mean) over
    those and the ``wa``-only records, in record order; ``n`` counts every
    record. Raises ``LengthMismatch`` unless ``raw`` has one row of three per
    record, and ``MissingLabels`` when no record has gold."""
    if raw.shape != (len(records), 3):
        raise LengthMismatch(f"{len(records)} records need predictions of shape "
                             f"({len(records)}, 3), got {raw.shape}")
    three = [i for i, r in enumerate(records) if r.labels is not None]
    wa = [i for i, r in enumerate(records) if r.labels is not None or r.wa_label is not None]
    if not wa:
        raise MissingLabels(f"split {split!r} carries no gold labels")
    row = EvalRow(dataset=dataset, split=split, mode=mode, augs=augs_label(active_kinds),
                  n=len(records))
    for m, head in enumerate(HEAD_NAMES if three else ()):
        gold = np.array([records[i].labels.normalized()[m] for i in three])
        setattr(row, f"{head}_s", spearman(raw[three, m], gold))
        setattr(row, f"{head}_p", pearson(raw[three, m], gold))
    pred_wa = [float(raw[i].mean()) for i in wa]
    gold_wa = [records[i].wa_label if records[i].labels is None
               else float(np.mean(records[i].labels.normalized())) for i in wa]
    row.wa_s, row.wa_p = spearman(pred_wa, gold_wa), pearson(pred_wa, gold_wa)
    return row


def evaluate(
    params: ModelParameters,
    config: ModelConfig,
    vocab: Vocabulary,
    dataset: Dataset,
    augmentations: dict[str, AugmentationSet],
    split: str,
    active_kinds: Iterable[AugmentationKind] = (),
) -> EvalRow:
    """Encode every record of the split once (no masking; every present active
    context text), ``predict`` and ``score``; ``EmptySplit`` on no records."""
    records = dataset.split(split)
    if not records:
        raise EmptySplit(f"split {split!r} of {dataset.name!r} is empty")
    active = set(active_kinds)
    encoded = [encoding.encode_input(rec, augmentations.get(rec.id), vocab, config, active)
               for rec in records]
    return score(records, predict(params, config, encoded), dataset.name, split, config.mode,
                 active)


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def report_csv(rows: Sequence[EvalRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [row.dataset, row.split, row.mode, row.augs]
            + [_fmt(getattr(row, c)) for c in _METRIC_COLUMNS]
            + [row.n]
        )
    return buf.getvalue()


def ablation_table(rows: Sequence[EvalRow]) -> tuple[str, str]:
    """Plain-text table plus CSV for a set of runs; the best value per metric
    column is starred (ties all starred). Rows sort by (mode, augs)."""
    ordered = sorted(rows, key=lambda r: (r.mode, r.augs, r.dataset, r.split))
    best: dict[str, Optional[float]] = {}
    for c in _METRIC_COLUMNS:
        values = [getattr(r, c) for r in ordered if getattr(r, c) is not None]
        best[c] = max(values) if values else None

    headers = CSV_COLUMNS
    table_rows = []
    for r in ordered:
        cells = [r.dataset, r.split, r.mode, r.augs]
        for c in _METRIC_COLUMNS:
            v = getattr(r, c)
            if v is None:
                cells.append("undef")
            else:
                mark = "*" if best[c] is not None and v == best[c] else ""
                cells.append(f"{v:.4f}{mark}")
        cells.append(str(r.n))
        table_rows.append(cells)

    widths = [max(len(h), *(len(row[i]) for row in table_rows)) if table_rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in table_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n", report_csv(ordered)
