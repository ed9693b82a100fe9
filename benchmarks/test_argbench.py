"""Tests for the benchmark's own code: input generators, span arithmetic, the
patching wrapper, and agreement between BENCHMARK.json and the code."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from argbench import inputs, pipeline
from argbench.tracing import (
    Span,
    Tracer,
    argscore_targets,
    descendants_of,
    patched,
    self_times,
    span_stats,
    tail_percentile,
)
from argscore import corpus

HERE = Path(__file__).resolve().parent


def _written(dataset, path: Path) -> bytes:
    corpus.write_dataset(dataset, path)
    return path.read_bytes()


def test_zipf_generator_is_a_function_of_its_seed(tmp_path):
    first = _written(inputs.zipf_dataset(5, 4, 2, 2, 3), tmp_path / "a.csv")
    again = _written(inputs.zipf_dataset(5, 4, 2, 2, 3), tmp_path / "b.csv")
    other = _written(inputs.zipf_dataset(6, 4, 2, 2, 3), tmp_path / "c.csv")
    assert first == again
    assert first != other


def test_zipf_generator_splits_and_lexicon():
    dataset = inputs.zipf_dataset(1, 3, 2, 1, 4)
    assert len(dataset) == 10
    assert [dataset.split_assignment.get(r.id) for r in dataset.records] == (
        ["train"] * 3 + ["dev"] * 2 + ["test"] + [None] * 4)
    words = inputs.lexicon(1, 2000)
    assert len(set(words)) == 2000
    assert words == inputs.lexicon(1, 2000)


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_setup_inputs_repeat_per_seed(name, tmp_path):
    w = pipeline.WORKLOADS[name]
    first = pipeline.setup(w, 3, tmp_path)
    again = pipeline.setup(w, 3, tmp_path)
    other = pipeline.setup(w, 4, tmp_path)
    assert first.corpus_sha256 == again.corpus_sha256
    assert first.corpus_sha256 != other.corpus_sha256
    if not w.synthetic:
        assert len(first.vocab) == w.vocab_max_size == 8000


def _span(i, parent, start, end, name="s"):
    return Span(id=i, parent=parent, name=name, start=start, end=end)


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 5.0, 9.0, "b"),
        _span(3, 2, 6.0, 8.0, "a"),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}
    stats = span_stats(spans, units=2)
    assert stats["a"].calls == 1.0
    assert stats["a"].total_ms == pytest.approx(2500.0)
    assert stats["a"].self_ms == pytest.approx(2500.0)
    assert stats["b"].self_ms == pytest.approx(1000.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_descendants_and_tail_percentile():
    spans = [
        _span(0, None, 0, 1, "round"), _span(1, 0, 0, 1, "x"), _span(2, 1, 0, 1, "y"),
        _span(3, None, 1, 2, "setup"), _span(4, 3, 1, 2, "x"),
    ]
    assert [s.id for s in descendants_of(spans, "round")] == [1, 2]
    assert tail_percentile(10) == 50.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_patched_restores_every_attribute():
    targets = argscore_targets()
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in targets]
    tracer = Tracer("test")
    with pytest.raises(RuntimeError):
        with patched(tracer, targets):
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original
            raise RuntimeError("leave the block by an exception")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_traced_kernel_records_computed_counters():
    from argscore.model import kernels

    tracer = Tracer("test")
    x = np.zeros((4, 8))
    with patched(tracer, argscore_targets()):
        kernels.gelu(x)
    (span,) = tracer.spans
    assert span.name == "kernels.gelu"
    assert span.counters == {"elems": 32, "bytes": 2 * x.nbytes}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in pipeline.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(pipeline.END_TO_END)
    assert spec["per_layer"] == pipeline.per_layer_spec()


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
