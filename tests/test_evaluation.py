"""Scoring a split: ``predict`` returns each encoding's head outputs, ``score``
correlates them with gold, ``evaluate`` does both in one call, and
``ablation_table`` lays out the rows."""

import numpy as np
import pytest

from argscore import evaluation
from argscore.augment import KIND_ORDER, AugmentationSet, MissingLabels
from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.evaluation import (
    EmptySplit,
    EvalRow,
    LengthMismatch,
    ablation_table,
    evaluate,
    pearson,
    predict,
    score,
    spearman,
)
from argscore.model import EncodedExample, build_vocab, encode_input, forward, init_parameters
from argscore.model import network

from tests.conftest import small_config

AUG = AugmentationSet(feedback="keep this", similar_quality="maybe this",
                      assumptions="and this", counter_argument="this too")


def _model(dataset):
    vocab = build_vocab([t for r in dataset.records for t in (r.topic, r.argument)]
                        + ["keep this maybe and too"], 200)
    config = small_config(vocab_size=len(vocab), max_seq_len=16)
    return init_parameters(config, 3), config, vocab


def _record(i, scores=None, wa=None):
    return ArgumentRecord(id=f"r{i}", topic="city parks", argument=f"parks help {i} people",
                          labels=QualityScores(*scores) if scores else None, wa_label=wa)


def test_evaluate_is_score_of_predict_and_predict_is_forward(tiny_dataset):
    params, config, vocab = _model(tiny_dataset)
    augs = {r.id: AUG for r in tiny_dataset.records[::2]}  # half the records have context
    records = tiny_dataset.split("train")
    encoded = [encode_input(r, augs.get(r.id), vocab, config, KIND_ORDER) for r in records]

    raw = predict(params, config, encoded)
    assert raw.shape == (len(records), 3)
    for row, enc in zip(raw, encoded):
        assert row.tobytes() == forward(params, config, [enc])[0].tobytes()
    expected = score(records, raw, "tiny", "train", config.mode, KIND_ORDER)
    assert evaluate(params, config, vocab, tiny_dataset, augs, "train", KIND_ORDER) == expected
    assert expected.augs == "all" and expected.n == len(records)


# (seq1, seq2) lengths at max_seq_len 12, so predict's chunks hold 48 rows of
# each: one chunk of five with both sequences at max_seq_len and records
# without context between records with it, a chunk cut by a one-row seq1,
# two one-row sequences alone, and a last chunk
LENGTHS = [(12, 12), (5, 0), (7, 9), (3, 0), (12, 12), (12, 12), (9, 11), (1, 4), (4, 1),
           (6, 6), (2, 0), (12, 0)]


@pytest.mark.parametrize("mode, context, chunks", [
    ("dual", True, [5, 2, 1, 1, 3]),
    ("dual", False, [5, 2, 1, 4]),  # no kinds: every seq2 empty
    ("single", False, [5, 2, 1, 4]),
])
def test_predict_packs_chunks_and_each_row_is_its_forward_pass_alone(monkeypatch, mode,
                                                                    context, chunks):
    config = small_config(mode=mode, num_layers=2)
    params = init_parameters(config, 3)
    rng = np.random.default_rng(5)
    params.flat[...] = rng.normal(0.0, 0.3, params.flat.shape)  # biases too
    encoded = [EncodedExample(rng.integers(0, config.vocab_size, n1),
                              rng.integers(0, config.vocab_size, n2 if context else 0))
               for n1, n2 in LENGTHS]
    sizes, packed = [], []
    run_chunk = network._forward_chunk

    def counted(params, config, examples, **kwargs):
        sizes.append(len(examples))
        return forward(params, config, examples, **kwargs)

    def recorded(p, config, chunk, *args, **kwargs):
        packed.append(len(chunk))
        return run_chunk(p, config, chunk, *args, **kwargs)

    monkeypatch.setattr(evaluation.network, "forward", counted)
    monkeypatch.setattr(network, "_forward_chunk", recorded)
    raw = predict(params, config, encoded)
    assert sizes == [len(encoded)] and packed == chunks
    for i, enc in enumerate(encoded):
        assert raw[i].tobytes() == forward(params, config, [enc])[0].tobytes(), i

    sizes.clear()
    assert predict(params, config, encoded[:1]).tobytes() == raw[:1].tobytes()
    empty = predict(params, config, [])
    assert empty.shape == (0, 3) and sizes == [1, 0]


@pytest.mark.parametrize("rows", [2, 4])  # a row short, a row over
def test_score_raises_unless_raw_has_a_row_per_record(rows):
    records = [_record(0, scores=(1.0, 2.0, 3.0)), _record(1, scores=(3.0, 2.0, 1.0)),
               _record(2, scores=(2.0, 2.0, 2.0))]
    raw = np.arange(12.0).reshape(4, 3)
    score(records, raw[:3], "d", "test", "dual")
    with pytest.raises(LengthMismatch, match=rf"3 records need .*got \({rows}, 3\)"):
        score(records, raw[:rows], "d", "test", "dual")


def test_score_uses_each_label_kind_where_it_applies():
    records = [
        _record(0, scores=(1.0, 1.0, 2.0)),
        _record(1),  # unlabelled: counted in n, scored nowhere
        _record(2, wa=0.45),
        _record(3, scores=(3.0, 2.0, 3.0)),
        _record(4, wa=0.9),
        _record(5, scores=(5.0, 4.0, 5.0)),
    ]
    raw = np.array([[0.1, 0.2, 0.3], [9.0, -9.0, 9.0], [0.7, 0.1, 0.2],
                    [0.5, 0.4, 0.6], [0.2, 0.9, 0.8], [0.9, 0.8, 0.7]])
    row = score(records, raw, "mixed", "test", "dual", ())
    assert (row.dataset, row.split, row.mode, row.augs, row.n) == ("mixed", "test", "dual",
                                                                  "none", 6)

    three = [0, 3, 5]
    for m, head in enumerate(("cogency", "effectiveness", "reasonableness")):
        gold = [records[i].labels.normalized()[m] for i in three]
        assert getattr(row, f"{head}_s") == spearman(raw[three, m], gold) == 1.0
        assert getattr(row, f"{head}_p") == pearson(raw[three, m], gold)

    both = [0, 2, 3, 4, 5]
    pred_wa = [float(raw[i].mean()) for i in both]
    gold_wa = [float(np.mean(records[0].labels.normalized())), 0.45,
               float(np.mean(records[3].labels.normalized())), 0.9,
               float(np.mean(records[5].labels.normalized()))]
    assert row.wa_s == spearman(pred_wa, gold_wa)
    assert row.wa_p == pearson(pred_wa, gold_wa)
    # the wa-only records count: without them wa would read a perfect 1.0
    assert spearman([pred_wa[i] for i in (0, 2, 4)], [gold_wa[i] for i in (0, 2, 4)]) == 1.0
    assert row.wa_s < 1.0


def test_score_of_wa_only_records_leaves_heads_undefined():
    records = [_record(0, wa=0.2), _record(1, wa=0.6), _record(2, wa=0.4)]
    raw = np.array([[0.1, 0.1, 0.1], [0.5, 0.6, 0.7], [0.3, 0.3, 0.3]])
    row = score(records, raw, "ibm", "test", "single", ())
    assert row.cogency_s is None and row.reasonableness_p is None
    assert row.wa_s == 1.0 and row.mean_spearman() is None


def test_evaluate_raises_on_empty_split_and_missing_labels(tiny_dataset):
    params, config, vocab = _model(tiny_dataset)
    no_test = Dataset(records=tiny_dataset.records, name="tiny",
                      split_assignment={r.id: "train" for r in tiny_dataset.records})
    with pytest.raises(EmptySplit, match="'test' of 'tiny' is empty"):
        evaluate(params, config, vocab, no_test, {}, "test")

    unlabelled = [_record(i) for i in range(3)]
    blind = Dataset(records=unlabelled, name="blind",
                    split_assignment={r.id: "test" for r in unlabelled})
    with pytest.raises(MissingLabels, match="'test' carries no gold labels"):
        evaluate(params, config, vocab, blind, {}, "test")


def test_ablation_table_stars_ties_prints_undef_and_sorts_by_mode_then_augs():
    rows = [
        EvalRow("d", "test", "single", "none", 4, cogency_s=0.5, wa_s=0.1),
        EvalRow("d", "test", "dual", "feedback", 4, cogency_s=None, wa_s=0.3),
        EvalRow("d", "test", "dual", "all", 4, cogency_s=0.5, wa_s=0.2),
    ]
    text, csv_text = ablation_table(rows)
    header, rule, *body = text.splitlines()
    assert header.split()[:5] == ["dataset", "split", "mode", "augs", "cogency_s"]
    assert set(rule) == {"-", " "}
    cells = [line.split() for line in body]
    assert [(c[2], c[3]) for c in cells] == [("dual", "all"), ("dual", "feedback"),
                                             ("single", "none")]
    cogency = [c[4] for c in cells]
    assert cogency == ["0.5000*", "undef", "0.5000*"]  # a tie stars both rows
    wa_s = header.split().index("wa_s")
    assert [c[wa_s] for c in cells] == ["0.2000", "0.3000*", "0.1000"]
    assert [line.split(",")[3] for line in csv_text.splitlines()[1:]] == ["all", "feedback",
                                                                         "none"]
