"""Argument datasets: record types, CSV/JSONL ingestion, and deterministic splits.

Two on-disk layouts are supported. The three-score layout carries cogency,
effectiveness, and reasonableness per argument; the single-score layout
carries one overall quality value (``wa``). Both exist as CSV and JSONL, and
``load_dataset`` reads all four. The fields pick the layout: a CSV whose
header mentions ``cogency`` is three-score and any other CSV single-score; a
JSONL object with ``cogency`` is three-score, one with ``wa`` single-score,
and one with neither unlabelled.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

SCORE_MIN = 1.0
SCORE_MAX = 5.0

GAQ_COLUMNS = ["id", "domain", "topic", "argument", "cogency", "effectiveness", "reasonableness"]
IBM_COLUMNS = ["id", "topic", "argument", "wa"]

SPLITS = ("train", "dev", "test")


class CorpusError(Exception):
    """Base class for dataset loading and validation failures."""


class MissingColumn(CorpusError):
    def __init__(self, column: str, path: str):
        super().__init__(f"missing column {column!r} in {path}")
        self.column = column


class MalformedRow(CorpusError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"malformed row at line {line}: {reason}")
        self.line = line


class ScoreOutOfRange(CorpusError):
    def __init__(self, record_id: str, value: float):
        super().__init__(
            f"score {value} for record {record_id!r} outside [{SCORE_MIN}, {SCORE_MAX}]"
        )
        self.record_id = record_id


class WaOutOfRange(CorpusError):
    def __init__(self, record_id: str, value: float, lo: float, hi: float):
        super().__init__(f"wa {value} for record {record_id!r} outside [{lo}, {hi}]")
        self.record_id = record_id


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

    def wa(self) -> float:
        """Overall quality: the arithmetic mean of the three scores."""
        return (self.cogency + self.effectiveness + self.reasonableness) / 3.0

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.cogency, self.effectiveness, self.reasonableness)

    def normalized(self) -> tuple[float, float, float]:
        return tuple(normalize_score(v) for v in self.as_tuple())


@dataclass(frozen=True)
class ArgumentRecord:
    """One topic/argument pair, optionally with gold quality labels."""

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


def normalize_score(raw: float) -> float:
    """Map a [1, 5] score linearly onto [0, 1]."""
    if not (SCORE_MIN <= raw <= SCORE_MAX):
        raise OutOfRange(f"score {raw} outside [{SCORE_MIN}, {SCORE_MAX}]")
    return (raw - SCORE_MIN) / (SCORE_MAX - SCORE_MIN)


def _parse_float(value, line: int, column: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedRow(line, f"column {column!r} is not a number: {value!r}")


def _text(row: dict, column: str, default: str, line: int) -> str:
    value = row.get(column, default)
    if not isinstance(value, str):
        raise MalformedRow(line, f"column {column!r} is not a string: {value!r}")
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
        if any(row.get(c) is None for c in columns):
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


def _record(
    row: dict, line: int, seen: set[str], label_range: tuple[float, float], path: Path,
) -> tuple[ArgumentRecord, Optional[str]]:
    """Validate one row, whose ``id`` is a string, into a record and the split
    it names, if any; adds the id to ``seen``. ``cogency`` in the row selects
    three scores, else ``wa`` one score, else no label. An empty CSV id is
    rejected with the record, after the range checks."""
    rid = row["id"]
    if rid in seen:
        raise DuplicateId(rid)
    seen.add(rid)
    labels = None
    wa_label = None
    if "cogency" in row:
        values = {}
        for column in ("cogency", "effectiveness", "reasonableness"):
            if column not in row:
                raise MissingColumn(column, str(path))
            values[column] = _parse_float(row[column], line, column)
        for value in values.values():
            if not (SCORE_MIN <= value <= SCORE_MAX):
                raise ScoreOutOfRange(rid, value)
        labels = QualityScores(**values)
    elif "wa" in row:
        wa_label = _parse_float(row["wa"], line, "wa")
        lo, hi = label_range
        if not (lo <= wa_label <= hi):
            raise WaOutOfRange(rid, wa_label, lo, hi)
    topic = _text(row, "topic", "", line)
    argument = _text(row, "argument", "", line)
    domain_tag = _text(row, "domain", "unknown", line)
    try:
        rec = ArgumentRecord(id=rid, topic=topic, argument=argument, domain_tag=domain_tag,
                             labels=labels, wa_label=wa_label)
    except CorpusError as exc:
        raise MalformedRow(line, str(exc))
    split = row.get("split")
    if split and split not in SPLITS:
        raise MalformedRow(line, f"unknown split {split!r}")
    return rec, split or None


def load_dataset(path: str | Path, label_range: tuple[float, float] = (0.0, 1.0)) -> Dataset:
    """Load a ``.jsonl`` file, or else a CSV file. Any invalid row aborts the load.

    A CSV whose first line mentions ``cogency`` is three-score (id, domain,
    topic, argument, cogency, effectiveness, reasonableness[, split]); any
    other CSV is single-score (id, topic, argument, wa[, split]). A JSONL
    object is three-score if it has ``cogency``, single-score if it has
    ``wa``, and unlabelled otherwise. ``wa`` must lie in ``label_range``."""
    path = Path(path)
    jsonl = path.suffix == ".jsonl"
    records: list[ArgumentRecord] = []
    splits: dict[str, str] = {}
    seen: set[str] = set()
    with path.open(newline=None if jsonl else "", encoding="utf-8") as fh:
        for line, row in _jsonl_rows(fh) if jsonl else _csv_rows(fh, path):
            rec, split = _record(row, line, seen, label_range, path)
            records.append(rec)
            if split:
                splits[rec.id] = split
    return Dataset(records=records, split_assignment=splits, name=path.stem)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write records back out; .jsonl or .csv decided by extension.

    Text fields round-trip byte-identically (UTF-8, RFC-4180 quoting for CSV)."""
    path = Path(path)
    three_score = any(r.labels is not None for r in dataset.records)
    has_split = bool(dataset.split_assignment)
    if path.suffix == ".jsonl":
        with path.open("w", encoding="utf-8") as fh:
            for rec in dataset.records:
                obj: dict = {"id": rec.id, "topic": rec.topic, "argument": rec.argument}
                if rec.labels is not None:
                    obj["domain"] = rec.domain_tag
                    obj["cogency"] = rec.labels.cogency
                    obj["effectiveness"] = rec.labels.effectiveness
                    obj["reasonableness"] = rec.labels.reasonableness
                if rec.wa_label is not None:
                    obj["wa"] = rec.wa_label
                if has_split and rec.id in dataset.split_assignment:
                    obj["split"] = dataset.split_assignment[rec.id]
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
        return
    with path.open("w", newline="", encoding="utf-8") as fh:
        if three_score:
            columns = GAQ_COLUMNS + (["split"] if has_split else [])
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in dataset.records:
                assert rec.labels is not None
                row = [
                    rec.id, rec.domain_tag, rec.topic, rec.argument,
                    repr(rec.labels.cogency), repr(rec.labels.effectiveness),
                    repr(rec.labels.reasonableness),
                ]
                if has_split:
                    row.append(dataset.split_assignment.get(rec.id, ""))
                writer.writerow(row)
        else:
            columns = IBM_COLUMNS + (["split"] if has_split else [])
            writer = csv.writer(fh)
            writer.writerow(columns)
            for rec in dataset.records:
                row = [rec.id, rec.topic, rec.argument, repr(rec.wa_label)]
                if has_split:
                    row.append(dataset.split_assignment.get(rec.id, ""))
                writer.writerow(row)


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
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidRatios(f"ratios must be three non-negative reals summing to 1, got {ratios}")
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
