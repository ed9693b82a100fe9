import numpy as np
import pytest

from argscore.corpus import (
    ArgumentRecord,
    Dataset,
    DuplicateId,
    InvalidRatios,
    MalformedRow,
    MissingColumn,
    OutOfRange,
    QualityScores,
    ScoreOutOfRange,
    WaOutOfRange,
    assign_splits,
    load_dataset,
    normalize_score,
    write_dataset,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GAQ_HEADER = "id,domain,topic,argument,cogency,effectiveness,reasonableness\n"


class TestGaqCsv:
    def test_basic_row_and_wa(self, tmp_path):
        path = write(tmp_path, "d.csv", GAQ_HEADER + 'a1,debates,"T","A",3.0,2.5,4.0\n')
        ds = load_dataset(path)
        assert len(ds) == 1
        rec = ds.records[0]
        assert rec.topic == "T" and rec.argument == "A"
        assert rec.labels.wa() == pytest.approx((3.0 + 2.5 + 4.0) / 3, abs=1e-12)

    def test_score_out_of_range(self, tmp_path):
        path = write(tmp_path, "d.csv", GAQ_HEADER + 'a1,debates,"T","A",5.5,2.5,4.0\n')
        with pytest.raises(ScoreOutOfRange) as err:
            load_dataset(path)
        assert err.value.record_id == "a1"

    def test_duplicate_id(self, tmp_path):
        rows = GAQ_HEADER + 'a1,qa,"T","A",3,3,3\na1,qa,"U","B",2,2,2\n'
        with pytest.raises(DuplicateId):
            load_dataset(write(tmp_path, "d.csv", rows))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,domain,topic,argument,cogency,effectiveness\n")
        with pytest.raises(MissingColumn):
            load_dataset(path)

    def test_malformed_score(self, tmp_path):
        path = write(tmp_path, "d.csv", GAQ_HEADER + 'a1,qa,"T","A",x,3,3\n')
        with pytest.raises(MalformedRow) as err:
            load_dataset(path)
        assert err.value.line == 2

    def test_split_column_honored(self, tmp_path):
        rows = GAQ_HEADER.rstrip("\n") + ",split\n" + 'a1,qa,"T","A",3,3,3,dev\n'
        ds = load_dataset(write(tmp_path, "d.csv", rows))
        assert ds.split_assignment == {"a1": "dev"}


class TestIbmCsv:
    def test_passthrough(self, tmp_path):
        path = write(tmp_path, "d.csv", 'id,topic,argument,wa\nb1,"T","A",0.83\n')
        ds = load_dataset(path)
        assert ds.records[0].wa_label == 0.83
        assert ds.records[0].labels is None

    def test_wa_out_of_range(self, tmp_path):
        path = write(tmp_path, "d.csv", 'id,topic,argument,wa\nb1,"T","A",1.2\n')
        with pytest.raises(WaOutOfRange) as err:
            load_dataset(path)
        assert err.value.record_id == "b1"

    def test_custom_label_range(self, tmp_path):
        path = write(tmp_path, "d.csv", 'id,topic,argument,wa\nb1,"T","A",1.2\n')
        ds = load_dataset(path, label_range=(0.0, 5.0))
        assert ds.records[0].wa_label == 1.2

    def test_header_only(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "id,topic,argument,wa\n"))
        assert len(ds) == 0


def test_load_dataset_dispatch(tmp_path):
    gaq = write(tmp_path, "g.csv", GAQ_HEADER + 'a1,qa,"T","A",3,3,3\n')
    ibm = write(tmp_path, "i.csv", 'id,topic,argument,wa\nb1,"T","A",0.5\n')
    assert load_dataset(gaq).records[0].labels is not None
    assert load_dataset(ibm).records[0].wa_label == 0.5


JSONL_ROW = '{"id": "a0", "topic": "T", "argument": "A", "wa": 0.5}\n'


def assert_malformed_second_line(tmp_path, line):
    path = write(tmp_path, "d.jsonl", JSONL_ROW + line + "\n")
    with pytest.raises(MalformedRow) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_jsonl_non_numeric_score_is_malformed(tmp_path):
    assert_malformed_second_line(tmp_path, '{"id": "a1", "topic": "T", "argument": "A", "wa": "x"}')
    assert_malformed_second_line(
        tmp_path, '{"id": "a1", "topic": "T", "argument": "A", '
        '"cogency": "x", "effectiveness": 3, "reasonableness": 3}')
    # an integer too large for a float
    assert_malformed_second_line(
        tmp_path, '{"id": "a1", "topic": "T", "argument": "A", "wa": 1' + "0" * 400 + "}")


def test_jsonl_null_score_is_malformed(tmp_path):
    assert_malformed_second_line(tmp_path, '{"id": "a1", "topic": "T", "argument": "A", "wa": null}')
    assert_malformed_second_line(
        tmp_path, '{"id": "a1", "topic": "T", "argument": "A", '
        '"cogency": 3, "effectiveness": null, "reasonableness": 3}')


def test_jsonl_non_object_line_is_malformed(tmp_path):
    assert_malformed_second_line(tmp_path, "[1, 2]")
    assert_malformed_second_line(tmp_path, '"a1"')


def test_jsonl_non_string_id_is_malformed(tmp_path):
    assert_malformed_second_line(tmp_path, '{"id": 5, "topic": "T", "argument": "A", "wa": 0.5}')


def test_jsonl_non_string_text_field_is_malformed(tmp_path):
    assert_malformed_second_line(tmp_path, '{"id": "a1", "topic": null, "argument": "A"}')
    assert_malformed_second_line(tmp_path, '{"id": "a1", "topic": "T", "argument": 7}')
    assert_malformed_second_line(tmp_path, '{"id": "a1", "topic": "T", "argument": "A", "domain": 5}')


def test_jsonl_roundtrip_field_identical(tmp_path):
    records = [
        ArgumentRecord(id="a1", domain_tag="qa", topic="T métro", argument='A "quoted", text',
                       labels=QualityScores(3.0, 2.5, 4.0)),
        ArgumentRecord(id="a2", domain_tag="reviews", topic="T2", argument="A2\ttabbed",
                       labels=QualityScores(1.0, 5.0, 2.25)),
    ]
    ds = Dataset(records=records, split_assignment={"a1": "train", "a2": "test"}, name="rt")
    path = tmp_path / "rt.jsonl"
    write_dataset(ds, path)
    back = load_dataset(path)
    for orig, loaded in zip(ds.records, back.records):
        assert loaded == orig
    assert back.split_assignment == ds.split_assignment


def test_csv_roundtrip_field_identical(tmp_path):
    records = [
        ArgumentRecord(id="a1", domain_tag="qa", topic='T with "quotes"',
                       argument="A, with commas\nand a newline",
                       labels=QualityScores(3.0, 2.5, 4.0)),
    ]
    ds = Dataset(records=records, name="rt")
    path = tmp_path / "rt.csv"
    write_dataset(ds, path)
    back = load_dataset(path)
    assert back.records[0] == records[0]


def test_normalize_score():
    assert normalize_score(1.0) == 0.0
    assert normalize_score(5.0) == 1.0
    assert normalize_score(3.0) == 0.5
    with pytest.raises(OutOfRange):
        normalize_score(0.5)
    # order preserving
    rng = np.random.default_rng(1)
    raw = np.sort(rng.uniform(1, 5, 100))
    normalized = [normalize_score(v) for v in raw]
    assert all(a < b for a, b in zip(normalized, normalized[1:]) if a != b)


def _dataset_of(n):
    records = [
        ArgumentRecord(id=f"r{i}", topic=f"topic {i}", argument=f"argument {i}",
                       labels=QualityScores(3, 3, 3))
        for i in range(n)
    ]
    return Dataset(records=records, name="s")


class TestAssignSplits:
    def test_proportions_within_two_per_hundred(self):
        ds = assign_splits(_dataset_of(100), (0.8, 0.1, 0.1), split_seed=7)
        counts = {s: 0 for s in ("train", "dev", "test")}
        for split in ds.split_assignment.values():
            counts[split] += 1
        assert 78 <= counts["train"] <= 82
        assert sum(counts.values()) == 100

    def test_degenerate_ratio(self):
        ds = assign_splits(_dataset_of(30), (1.0, 0.0, 0.0), split_seed=3)
        assert all(s == "train" for s in ds.split_assignment.values())

    def test_deterministic(self):
        a = assign_splits(_dataset_of(50), (0.8, 0.1, 0.1), split_seed=9)
        b = assign_splits(_dataset_of(50), (0.8, 0.1, 0.1), split_seed=9)
        assert a.split_assignment == b.split_assignment

    def test_seed_changes_assignment(self):
        base = assign_splits(_dataset_of(40), (0.6, 0.2, 0.2), split_seed=0)
        changed = 0
        for seed in range(1, 6):
            other = assign_splits(_dataset_of(40), (0.6, 0.2, 0.2), split_seed=seed)
            if other.split_assignment != base.split_assignment:
                changed += 1
        assert changed >= 1

    def test_invalid_ratios(self):
        with pytest.raises(InvalidRatios):
            assign_splits(_dataset_of(10), (0.5, 0.2, 0.2), split_seed=0)


def test_record_validation():
    with pytest.raises(Exception):
        ArgumentRecord(id="", topic="T", argument="A")
    with pytest.raises(Exception):
        ArgumentRecord(id="x", topic="  ", argument="A")
    with pytest.raises(OutOfRange):
        QualityScores(0.5, 3, 3)


def test_wa_is_mean_within_ulp():
    rng = np.random.default_rng(2)
    for _ in range(200):
        c, e, r = rng.uniform(1, 5, 3)
        scores = QualityScores(c, e, r)
        assert abs(scores.wa() - (c + e + r) / 3.0) < 1e-12
