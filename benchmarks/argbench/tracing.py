"""Out-of-package tracer.

``patched`` replaces public functions of argscore with timing wrappers at the
attribute each caller resolves, and restores every attribute on exit. Spans
stay in memory (name, start, end, parent, optional counters) until the
benchmark writes them out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

import numpy as np

# A counter turns (args, kwargs, result) of a traced call into span counters.
Counter = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    counters: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one benchmark run, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counters = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None


@contextmanager
def patched(tracer: Tracer, targets) -> Iterator[None]:
    """Wrap each ``(span name, owner, attribute, counter)`` target for the
    duration of the block. The raw attribute is taken from the owner's
    ``__dict__``, so methods are patched on their class as plain functions."""
    saved = []
    try:
        for name, owner, attr, counter in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- counters --

def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def kernel_counter(in_place_outputs: int = 0) -> Counter:
    """Elements of the first operand, and bytes moved as computed from the
    shapes: every array argument read, every array returned written, plus
    ``in_place_outputs`` arrays the size of the first operand written in place."""

    def count(args, kwargs, result) -> dict:
        first = args[0]
        moved = sum(_nbytes(a) for a in args) + _nbytes(result)
        return {"elems": first.size, "bytes": moved + in_place_outputs * first.nbytes}

    return count


def dict_bytes_counter(args, kwargs, result) -> dict:
    return {"bytes": sum(v.nbytes for v in result.values())}


def directory_bytes_counter(args, kwargs, result) -> dict:
    return {"bytes": sum(p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())}


def truncation_counter(args, kwargs, result) -> dict:
    kept = int(result.mask1.sum() + result.mask2.sum())
    return {"tokens": kept + result.truncated_tokens, "truncated": result.truncated_tokens}


def clip_counter(args, kwargs, result) -> dict:
    return {"clipped": result > args[1]}


def hit_counter(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def argscore_targets() -> list:
    """Every traced public function, at each attribute its callers resolve.

    ``train`` binds ``forward``, ``backward`` and ``encode_input`` by name at
    import, ``evaluation`` binds ``predict``, and ``predict`` imports
    ``encode_input`` from ``model.encoding`` at call time, so each of those is
    patched where it is looked up rather than only in ``argscore.model``."""
    from argscore import augment, corpus, evaluation
    from argscore import train as train_mod
    from argscore.augment import MockProvider, PromptCache
    from argscore.model import checkpoint, encoding, kernels, network, vocab

    targets = [
        (f"kernels.{k}", kernels, k, kernel_counter())
        for k in ("gelu", "gelu_grad", "layer_norm", "layer_norm_grad",
                  "masked_softmax", "masked_softmax_grad")
    ]
    targets += [
        # p, m and v are updated in place
        ("kernels.adam_update", kernels, "adam_update", kernel_counter(in_place_outputs=3)),
        ("train.AdamOptimizer.step", train_mod.AdamOptimizer, "step", None),
        ("network.zeros_like", network.ModelParameters, "zeros_like", dict_bytes_counter),
        ("network.backward", train_mod, "backward", None),
        ("network.forward", train_mod, "forward", None),
        ("network.forward", network, "forward", None),
        ("network.predict", evaluation, "predict", None),
        ("encoding.encode_input", train_mod, "encode_input", truncation_counter),
        ("encoding.encode_input", encoding, "encode_input", truncation_counter),
        ("train.clip_gradients", train_mod, "clip_gradients", clip_counter),
        ("train.train", train_mod, "train", None),
        ("evaluation.evaluate", evaluation, "evaluate", None),
        ("evaluation.spearman", evaluation, "spearman", None),
        ("augment.render_prompt", augment, "render_prompt", None),
        ("cache.get", PromptCache, "get", hit_counter),
        ("cache.put", PromptCache, "put", None),
        ("providers.complete", MockProvider, "complete", None),
        ("checkpoint.save_checkpoint", checkpoint, "save_checkpoint", directory_bytes_counter),
        ("checkpoint.load_checkpoint", checkpoint, "load_checkpoint", directory_bytes_counter),
        ("corpus.load_dataset", corpus, "load_dataset", None),
        ("vocab.build_vocab", vocab, "build_vocab", None),
    ]
    return targets


# -- statistics --

def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, []), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of ``n`` samples
    beyond it; the median when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:  # tolerate 100 - 99.9 != 0.1
            return p
    return 50.0


def descendants_of(spans: list[Span], root_name: str) -> list[Span]:
    """Spans below any span called ``root_name``."""
    inside: set[int] = set()
    found = []
    for span in spans:  # parents precede their children
        if span.name == root_name:
            inside.add(span.id)
        elif span.parent in inside:
            inside.add(span.id)
            found.append(span)
    return found


@dataclass
class SpanStats:
    n: int
    calls: float
    total_ms: float
    self_ms: float
    p50_ms: float
    tail_ms: float
    tail_pct: float
    counters: dict

    def counter_mean(self, key: str) -> float:
        return self.counters[key] / self.counters["_n"]


def span_stats(spans: list[Span], units: int) -> dict[str, SpanStats]:
    """Per-name statistics; totals and call counts are per unit (a round or
    a set-up), percentiles pool every call."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    stats = {}
    for name, group in by_name.items():
        ms = np.array([s.duration for s in group]) * 1e3
        pct = tail_percentile(len(group))
        counters: dict = {"_n": 0}
        for s in group:
            if s.counters:
                counters["_n"] += 1
                for key, value in s.counters.items():
                    counters[key] = counters.get(key, 0) + value
        stats[name] = SpanStats(
            n=len(group),
            calls=len(group) / units,
            total_ms=float(ms.sum()) / units,
            self_ms=sum(selfs[s.id] for s in group) * 1e3 / units,
            p50_ms=float(np.percentile(ms, 50)),
            tail_ms=float(np.percentile(ms, pct)),
            tail_pct=pct,
            counters=counters,
        )
    return stats
