"""Argument datasets: record types, CSV/JSONL ingestion, and deterministic splits.

Two on-disk layouts are supported. The three-score layout carries cogency,
effectiveness, and reasonableness per argument; the single-score layout
carries one overall quality value (``wa``). Both exist as CSV and JSONL, and
``load_dataset`` reads all four. The fields pick the layout: a CSV whose
header mentions ``cogency`` is three-score and any other CSV single-score; a
JSONL object with ``cogency`` is three-score, one with ``wa`` single-score,
and one with neither unlabelled.

The record types own the value checks: ``QualityScores`` holds scores to [1, 5]
and ``ArgumentRecord`` holds ``wa`` to [0, 1]. ``load_dataset`` turns any bad
row into a ``MalformedRow`` that names the file and line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

SCORE_MIN = 1.0
SCORE_MAX = 5.0

GAQ_COLUMNS = ["id", "domain", "topic", "argument", "cogency", "effectiveness", "reasonableness"]
IBM_COLUMNS = ["id", "topic", "argument", "wa"]

SPLITS = ("train", "dev", "test")


class CorpusError(ValueError):
    """Base class for dataset loading and validation failures."""


class MissingColumn(CorpusError):
    def __init__(self, column: str, path: str):
        super().__init__(f"missing column {column!r} in {path}")
        self.column = column


class MalformedRow(CorpusError):
    def __init__(self, line: int, reason: str, path: Optional[str] = None):
        super().__init__(f"malformed row at line {line}{' of ' + path if path else ''}: {reason}")
        self.line, self.reason = line, reason


@contextmanager
def naming_file(path: str | Path) -> Iterator[None]:
    """Put ``path`` into a ``MalformedRow`` raised in the block."""
    try:
        yield
    except MalformedRow as exc:
        raise MalformedRow(exc.line, exc.reason, str(path)) from None


class DuplicateId(CorpusError):
    def __init__(self, record_id: str):
        super().__init__(f"duplicate record id {record_id!r}")
        self.record_id = record_id


class InvalidRatios(CorpusError):
    pass


class OutOfRange(CorpusError):
    pass


@dataclass(frozen=True)
class QualityScores:
    """Cogency, effectiveness, and reasonableness, each on the [1, 5] scale."""

    cogency: float
    effectiveness: float
    reasonableness: float

    def __post_init__(self):
        for value in (self.cogency, self.effectiveness, self.reasonableness):
            if not (SCORE_MIN <= value <= SCORE_MAX):
                raise OutOfRange(f"score {value} outside [{SCORE_MIN}, {SCORE_MAX}]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cogency, self.effectiveness, self.reasonableness)

    def normalized(self) -> tuple[float, float, float]:
        """Each score mapped linearly from [1, 5] onto [0, 1]."""
        return tuple((v - SCORE_MIN) / (SCORE_MAX - SCORE_MIN) for v in self.as_tuple())


@dataclass(frozen=True)
class ArgumentRecord:
    """One topic/argument pair, optionally with gold quality labels: three
    scores, or one overall ``wa`` score in [0, 1]."""

    id: str
    topic: str
    argument: str
    domain_tag: str = "unknown"
    labels: Optional[QualityScores] = None
    wa_label: Optional[float] = None

    def __post_init__(self):
        if not self.id:
            raise CorpusError("record id must be non-empty")
        if not self.topic.strip() or not self.argument.strip():
            raise CorpusError(f"record {self.id!r}: topic and argument must be non-empty")
        if self.wa_label is not None and not (0.0 <= self.wa_label <= 1.0):
            raise OutOfRange(f"record {self.id!r}: wa {self.wa_label} outside [0, 1]")


@dataclass
class Dataset:
    """Ordered records plus a per-id split assignment."""

    records: list[ArgumentRecord]
    split_assignment: dict[str, str] = field(default_factory=dict)
    name: str = "dataset"

    def __post_init__(self):
        seen = set()
        for rec in self.records:
            if rec.id in seen:
                raise DuplicateId(rec.id)
            seen.add(rec.id)

    def __len__(self) -> int:
        return len(self.records)

    def split(self, name: str) -> list[ArgumentRecord]:
        return [r for r in self.records if self.split_assignment.get(r.id) == name]


def _parse_float(row: dict, column: str) -> float:
    """``row[column]`` as a number; a boolean is not one."""
    if column not in row:
        raise CorpusError(f"missing column {column!r}")
    value = row[column]
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise CorpusError(f"column {column!r} is not a number: {value!r}")


def _text(row: dict, column: str, default: str) -> str:
    value = row.get(column, default)
    if not isinstance(value, str):
        raise CorpusError(f"column {column!r} is not a string: {value!r}")
    return value


def _csv_rows(fh, path: Path) -> Iterator[tuple[int, dict]]:
    """(line, row) pairs of a CSV file, each row cut to the columns of its
    layout: three-score when the first line mentions ``cogency``, else
    single-score. Other columns are ignored, except ``split``."""
    columns = GAQ_COLUMNS if "cogency" in fh.readline() else IBM_COLUMNS
    fh.seek(0)
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise MalformedRow(1, "empty file, header row required")
    for column in columns:
        if column not in reader.fieldnames:
            raise MissingColumn(column, str(path))
    for row in reader:
        # DictReader fills missing fields with None and files extra ones under None
        if None in row or any(row.get(c) is None for c in columns):
            raise MalformedRow(reader.line_num, "wrong number of fields")
        yield reader.line_num, {**{c: row[c] for c in columns}, "split": row.get("split")}


def _jsonl_rows(fh) -> Iterator[tuple[int, dict]]:
    """(line, object) pairs of a JSONL file, each object with a non-empty
    string ``id``; blank lines are skipped."""
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRow(line_no, f"invalid JSON: {exc}")
        if not isinstance(obj, dict):
            raise MalformedRow(line_no, "not a JSON object")
        if not isinstance(obj.get("id"), str) or not obj["id"]:
            raise MalformedRow(line_no, "missing id")
        yield line_no, obj


def _record(row: dict, line: int, seen: set[str]) -> tuple[ArgumentRecord, Optional[str]]:
    """Validate one row, whose ``id`` is a string, into a record and the split
    it names, if any; adds the id to ``seen``. ``cogency`` in the row selects
    three scores, else ``wa`` one score, else no label. Any fault, a value the
    record types reject included, raises ``MalformedRow`` at ``line``."""
    rid = row["id"]
    if rid in seen:
        raise MalformedRow(line, f"duplicate id {rid!r}")
    seen.add(rid)
    try:
        labels = wa_label = None
        if "cogency" in row:
            labels = QualityScores(*(_parse_float(row, c) for c in GAQ_COLUMNS[4:]))
        elif "wa" in row:
            wa_label = _parse_float(row, "wa")
        rec = ArgumentRecord(id=rid, topic=_text(row, "topic", ""),
                             argument=_text(row, "argument", ""),
                             domain_tag=_text(row, "domain", "unknown"),
                             labels=labels, wa_label=wa_label)
    except CorpusError as exc:
        raise MalformedRow(line, str(exc))
    split = row.get("split")
    if split and split not in SPLITS:
        raise MalformedRow(line, f"unknown split {split!r}")
    return rec, split or None


def load_dataset(path: str | Path) -> Dataset:
    """Load a ``.jsonl`` file, or else a CSV file. Any invalid row aborts the
    load with a ``MalformedRow`` that names the file and line; a CSV header
    that lacks a column of its layout raises ``MissingColumn``.

    A CSV whose first line mentions ``cogency`` is three-score (id, domain,
    topic, argument, cogency, effectiveness, reasonableness[, split]); any
    other CSV is single-score (id, topic, argument, wa[, split]). A JSONL
    object is three-score if it has ``cogency``, single-score if it has
    ``wa``, and unlabelled otherwise. Scores are numbers in [1, 5] and ``wa``
    a number in [0, 1]; a JSON boolean is not a number. A UTF-8 byte-order
    mark, which spreadsheets add to the CSV files they export, is skipped."""
    path = Path(path)
    jsonl = path.suffix == ".jsonl"
    records: list[ArgumentRecord] = []
    splits: dict[str, str] = {}
    seen: set[str] = set()
    with path.open(newline=None if jsonl else "", encoding="utf-8-sig") as fh, naming_file(path):
        for line, row in _jsonl_rows(fh) if jsonl else _csv_rows(fh, path):
            rec, split = _record(row, line, seen)
            records.append(rec)
            if split:
                splits[rec.id] = split
    return Dataset(records=records, split_assignment=splits, name=path.stem)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write records back out; .jsonl or .csv decided by extension.

    Text fields round-trip byte-identically (UTF-8, RFC-4180 quoting for CSV),
    and ``load_dataset`` reads back the records written. A CSV holds one
    layout, so writing one raises ``CorpusError``, before the file is opened,
    unless every record has three scores or every record has a ``wa`` score."""
    path = Path(path)
    three_score = any(r.labels is not None for r in dataset.records)
    has_split = bool(dataset.split_assignment)
    if path.suffix == ".jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for rec in dataset.records:
                obj: dict = {"id": rec.id, "topic": rec.topic, "argument": rec.argument,
                             "domain": rec.domain_tag}
                if rec.labels is not None:
                    obj["cogency"] = rec.labels.cogency
                    obj["effectiveness"] = rec.labels.effectiveness
                    obj["reasonableness"] = rec.labels.reasonableness
                if rec.wa_label is not None:
                    obj["wa"] = rec.wa_label
                if has_split and rec.id in dataset.split_assignment:
                    obj["split"] = dataset.split_assignment[rec.id]
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        return
    for rec in dataset.records:
        if (rec.labels if three_score else rec.wa_label) is None:
            wanted = "three scores" if three_score else "a wa score"
            raise CorpusError(f"cannot write {path} as CSV: record {rec.id!r} lacks {wanted}")
    columns = (GAQ_COLUMNS if three_score else IBM_COLUMNS) + (["split"] if has_split else [])
    score_columns = GAQ_COLUMNS[4:] if three_score else ["wa"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in dataset.records:
            scores = rec.labels.as_tuple() if three_score else (rec.wa_label,)
            cells = {"id": rec.id, "domain": rec.domain_tag, "topic": rec.topic,
                     "argument": rec.argument, "split": dataset.split_assignment.get(rec.id, ""),
                     **{c: repr(v) for c, v in zip(score_columns, scores)}}
            writer.writerow([cells[c] for c in columns])


def assign_splits(
    dataset: Dataset,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    split_seed: int = 0,
) -> Dataset:
    """Assign train/dev/test deterministically.

    Ids are ranked by a seeded hash and cut at the ratio quantiles, so counts
    land within one record of the exact proportions and the assignment depends
    only on (id set, split_seed, ratios).
    """
    if (len(ratios) != 3 or not all(math.isfinite(r) and r >= 0 for r in ratios)
            or abs(sum(ratios) - 1.0) > 1e-9):
        raise InvalidRatios(
            f"ratios must be three finite non-negative reals summing to 1, got {ratios}")
    ids = [r.id for r in dataset.records]
    n = len(ids)

    def sort_key(record_id: str) -> tuple[str, str]:
        digest = hashlib.sha256(f"{split_seed}:{record_id}".encode("utf-8")).hexdigest()
        return (digest, record_id)

    ranked = sorted(ids, key=sort_key)
    # largest-remainder rounding keeps the three counts summing to n
    exact = [r * n for r in ratios]
    counts = [int(e) for e in exact]
    remainders = sorted(range(3), key=lambda i: (exact[i] - counts[i], -i), reverse=True)
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    assignment: dict[str, str] = {}
    offset = 0
    for split_name, count in zip(SPLITS, counts):
        for rid in ranked[offset : offset + count]:
            assignment[rid] = split_name
        offset += count
    return Dataset(records=list(dataset.records), split_assignment=assignment, name=dataset.name)


def corpus_texts(dataset: Dataset) -> Iterable[str]:
    for rec in dataset.records:
        yield rec.topic
        yield rec.argument
