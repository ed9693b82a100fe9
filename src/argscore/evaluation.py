"""Scoring of a split: prediction, Pearson/Spearman correlation against gold
labels, per-metric report rows, and the ablation table. ``evaluate`` is the
one function that scores a split; training selects its best epoch with it."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER, MissingLabels
from argscore.corpus import Dataset
from argscore.model import HEAD_NAMES, ModelConfig, ModelParameters, Vocabulary, encoding, network


class LengthMismatch(ValueError):
    pass


class EmptySplit(ValueError):
    pass


def rankdata(x: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean rank of their block."""
    a = np.asarray(x, dtype=np.float64).ravel()
    n = a.size
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
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


def predict(params, config, vocab, record, aug, active_kinds=(), workspace=None) -> np.ndarray:
    """Deterministic inference for one record; no dropout, no masking. Returns
    the three unclamped head outputs, which live in ``workspace`` when one is
    given (see ``network.forward``)."""
    enc = encoding.encode_input(record, aug, vocab, config, active_kinds)
    return network.forward(params, config, enc.seq1, enc.seq2, workspace=workspace).outputs


def evaluate(
    params: ModelParameters,
    config: ModelConfig,
    vocab: Vocabulary,
    dataset: Dataset,
    augmentations: dict[str, AugmentationSet],
    split: str,
    active_kinds: Iterable[AugmentationKind] = (),
    workspace: Optional[network.Workspace] = None,
) -> EvalRow:
    """Predict every record of the split (no masking; all present active
    context texts supplied) and correlate unclamped outputs with gold. Every
    forward pass runs in ``workspace``, by default one made for this call.

    This is the one scoring path: ``train`` picks its best epoch by this
    row's ``mean_spearman()`` on the dev split, in its own workspace."""
    records = dataset.split(split)
    if not records:
        raise EmptySplit(f"split {split!r} of {dataset.name!r} is empty")
    active = set(active_kinds)
    raw = np.empty((len(records), 3))
    workspace = network.Workspace(config) if workspace is None else workspace
    for i, rec in enumerate(records):
        raw[i] = predict(params, config, vocab, rec, augmentations.get(rec.id), active,
                         workspace=workspace)

    row = EvalRow(
        dataset=dataset.name, split=split, mode=config.mode,
        augs=augs_label(active), n=len(records),
    )
    labeled = [(i, r) for i, r in enumerate(records) if r.labels is not None]
    if labeled:
        idx = [i for i, _ in labeled]
        for m, head in enumerate(HEAD_NAMES):
            gold = np.array([r.labels.normalized()[m] for _, r in labeled])
            setattr(row, f"{head}_s", spearman(raw[idx, m], gold))
            setattr(row, f"{head}_p", pearson(raw[idx, m], gold))

    wa_pairs = []
    for i, rec in enumerate(records):
        if rec.labels is not None:
            wa_pairs.append((float(raw[i].mean()), float(np.mean(rec.labels.normalized()))))
        elif rec.wa_label is not None:
            wa_pairs.append((float(raw[i].mean()), rec.wa_label))
    if wa_pairs:
        pred_wa = [p for p, _ in wa_pairs]
        gold_wa = [g for _, g in wa_pairs]
        row.wa_s = spearman(pred_wa, gold_wa)
        row.wa_p = pearson(pred_wa, gold_wa)

    if not labeled and not wa_pairs:
        raise MissingLabels(f"split {split!r} carries no gold labels")
    return row


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
