"""Workloads and the measured pipeline.

Every workload drives argscore's public API in the order the CLI uses. Set-up
generates the corpus from the seed, writes it with ``corpus.write_dataset``,
reads it back with ``corpus.load_dataset``, augments it, builds the
vocabulary, initialises the model and round-trips it through a checkpoint.
Then, until the time is up, each round runs four timed phases: ``augment``
against an empty cache (cold), ``augment`` again (warm), ``train.train`` and
``evaluation.evaluate``. One process and one closed-loop client: each call
starts when the previous one has returned.

Modules are called through their attributes (``corpus.load_dataset``, not a
name imported from it) so that the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

from argscore import augment, corpus, evaluation, synth
from argscore import train as train_mod
from argscore.augment import KIND_ORDER, MockProvider, PromptCache
from argscore.model import checkpoint, network
from argscore.model import vocab as vocab_mod
from argscore.model.config import ModelConfig
from argscore.seeding import derive_seed

from argbench import inputs
from argbench.tracing import (
    NullTracer,
    Tracer,
    argscore_targets,
    descendants_of,
    patched,
    span_stats,
)

SYNTH_MODEL = dict(max_seq_len=64, model_dim=32, num_layers=1, num_heads=4, ffn_dim=128,
                   num_cross_heads=4, mode="dual", dropout_rate=0.1)
DEFAULT_MODEL = dict(max_seq_len=64, model_dim=64, num_layers=2, num_heads=4, ffn_dim=256,
                     num_cross_heads=4, mode="dual", dropout_rate=0.1)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    key: int                 # derives the workload's input seed from the run seed
    synthetic: bool          # synth.make_records corpus; otherwise the Zipf corpus
    corpus_file: str         # the extension picks the format load_dataset parses
    splits: tuple[int, int, int, int]  # train, dev, test, and records in no split
    model: dict
    train: dict
    vocab_max_size: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-synth",
        why="the paper's acceptance model at the synth config: a 55-token vocabulary, so "
            "time goes to the per-example Python loop and the kernels, not embeddings or Adam",
        key=1, synthetic=True, corpus_file="corpus.jsonl", splits=(96, 24, 48, 0),
        model=SYNTH_MODEL,
        train=dict(gamma=0.5, batch_size=8, learning_rate=3e-3, epochs=2),
        vocab_max_size=2000,
    ),
    Workload(
        name="train-default",
        why="default-size training with a full 8000-token vocabulary: dense embedding "
            "gradients, the Adam step and GELU dominate, where batching and sparse grads show",
        key=2, synthetic=False, corpus_file="corpus.csv", splits=(32, 16, 32, 296),
        model=DEFAULT_MODEL, train=dict(epochs=2), vocab_max_size=8000,
    ),
    Workload(
        name="score-default",
        why="the scoring path at default size: evaluate runs forward only, and a cold and a "
            "warm augment pass measure cache misses and hits; training is a small share",
        key=3, synthetic=False, corpus_file="corpus.jsonl", splits=(16, 8, 96, 224),
        model=DEFAULT_MODEL, train=dict(epochs=2), vocab_max_size=8000,
    ),
)}

# A fixed small scoring case whose evaluation row is committed under
# reference/; score-default checks that the program still reproduces it.
REFERENCE = Workload(
    name="reference", why="", key=4, synthetic=False, corpus_file="reference.jsonl",
    splits=(0, 0, 24, 0), model=DEFAULT_MODEL, train={}, vocab_max_size=8000,
)
REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent.parent / "reference" / "score_reference.json"
REFERENCE_TOLERANCE = 1e-6

SETUP_REPEATS = 5
PHASE_MIN_SECONDS = 0.5

# the rate each round phase yields: name, unit
PHASE_RATES = {
    "augment_cold": ("augment_cold_records_per_s", "records/s"),
    "augment_warm": ("augment_warm_records_per_s", "records/s"),
    "train": ("train_examples_per_s", "examples/s"),
    "evaluate": ("eval_records_per_s", "records/s"),
}
# The end-to-end metrics, as BENCHMARK.json bounds them. The cold augment
# rate is printed but not bounded: it times small-file creation on the host's
# disk, whose speed shifted by up to 4x between runs minutes apart, far more
# than any bound allowed.
END_TO_END = (
    ("setup_s", "s"),
    ("train_examples_per_s", "examples/s"),
    ("eval_records_per_s", "records/s"),
    ("augment_warm_records_per_s", "records/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Inputs:
    """Everything set-up hands to the measured rounds."""

    dataset: corpus.Dataset
    augmentations: dict
    exemplars: list
    provider_seed: int
    vocab: vocab_mod.Vocabulary
    config: ModelConfig
    tcfg: train_mod.TrainConfig
    params: network.ModelParameters
    corpus_sha256: str


@dataclass
class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> [passed, evaluated]

    def check(self, name: str, ok: bool) -> bool:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += bool(ok)
        tally[1] += 1
        return bool(ok)

    def operations(self, count: int, ok: bool) -> None:
        self.attempted += count
        self.failed += 0 if ok else count

    @property
    def correct(self) -> bool:
        return all(passed == total for passed, total in self.checks.values())


def _texts(augmentations: dict) -> dict:
    return {rid: tuple(aug.get(k) for k in KIND_ORDER) for rid, aug in augmentations.items()}


def augment_pass(records, provider, cache, exemplars, tracer, span_name: str) -> dict:
    """The CLI's augment step: every kind for every (labelled) record."""
    result = {}
    for rec in records:
        with tracer.span(span_name):
            result[rec.id] = augment.generate(rec, KIND_ORDER, provider, cache=cache,
                                              exemplars=exemplars)
    return result


def setup(w: Workload, seed: int, work_dir: Path) -> Inputs:
    data_seed = derive_seed(seed, w.key)
    n_train, n_dev, n_test, _ = w.splits
    if w.synthetic:
        generated = synth.make_records(data_seed, n_train, n_dev, n_test)
    else:
        generated = inputs.zipf_dataset(data_seed, *w.splits)
    path = work_dir / w.corpus_file
    corpus.write_dataset(generated, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    dataset = corpus.load_dataset(path)

    exemplars = augment.load_exemplars()
    if w.synthetic:
        # planted context, as `argscore synth` builds it
        augmentations = synth.build_augmentations(dataset, data_seed)
    else:
        augmentations = augment_pass(dataset.records, MockProvider(seed=data_seed), None,
                                     exemplars, NullTracer(), "")
    texts = list(corpus.corpus_texts(dataset))
    for aug in augmentations.values():
        texts += [aug.get(k) for k in KIND_ORDER if aug.get(k)]
    vocab = vocab_mod.build_vocab(texts, max_size=w.vocab_max_size)

    config = ModelConfig(vocab_size=len(vocab), **w.model)
    params = network.init_parameters(config, derive_seed(data_seed, 0))
    ckpt_dir = work_dir / "checkpoint"
    checkpoint.save_checkpoint(ckpt_dir, params, config, vocab)
    params, config, vocab = checkpoint.load_checkpoint(ckpt_dir)
    shutil.rmtree(ckpt_dir)
    return Inputs(
        dataset=dataset, augmentations=augmentations, exemplars=exemplars,
        provider_seed=data_seed, vocab=vocab, config=config,
        tcfg=train_mod.TrainConfig(rng_seed=derive_seed(data_seed, 20), **w.train),
        params=params, corpus_sha256=digest,
    )


def row_finite(row: evaluation.EvalRow) -> bool:
    """Every correlation is defined and finite; a non-finite prediction would
    leave one undefined."""
    values = [v for k, v in asdict(row).items() if k.endswith(("_s", "_p"))]
    return all(v is not None and math.isfinite(v) for v in values)


def phase_operations(w: Workload, inp: Inputs) -> dict[str, int]:
    """Operations in one pass of each phase."""
    return {
        "augment_cold": len(inp.dataset.records),
        "augment_warm": len(inp.dataset.records),
        "train": inp.tcfg.epochs * w.splits[0],
        "evaluate": w.splits[2],
    }


def _repeat(once, min_seconds: float) -> tuple[int, float, bool]:
    """Call ``once`` until the seconds it reports add up to ``min_seconds``.
    Returns the passes made, their seconds, and whether every pass was good."""
    passes, seconds, ok = 0, 0.0, True
    while passes == 0 or seconds < min_seconds:
        elapsed, good = once()
        passes, seconds, ok = passes + 1, seconds + elapsed, ok and good
    return passes, seconds, ok


def run_round(w: Workload, inp: Inputs, work_dir: Path, tracer, ledger: Ledger,
              first: dict, min_seconds: float) -> dict[str, tuple[int, float, bool]]:
    """One round of the pipeline. Each phase repeats until it has run for
    ``min_seconds``, so no rate rests on a fraction of a second. Every output
    must equal the first one seen for its phase (kept in ``first``).
    Returns phase -> (operations, seconds, checks passed)."""
    records = inp.dataset.records
    cache_dir = work_dir / "cache"
    kinds_requested = len(records) * len(KIND_ORDER)
    trained = {}

    def repeats(key: str, value) -> bool:
        return ledger.check("outputs_repeat", first.setdefault(key, value) == value)

    def cold_once():
        shutil.rmtree(cache_dir, ignore_errors=True)
        provider = MockProvider(seed=inp.provider_seed)
        cache = PromptCache(cache_dir)
        start = perf_counter()
        texts = _texts(augment_pass(records, provider, cache, inp.exemplars, tracer,
                                    "augment.generate.cold"))
        elapsed = perf_counter() - start
        ok = ledger.check("augment_cold_one_request_per_kind",
                          provider.requests_made == kinds_requested)
        if not w.synthetic:
            ok &= ledger.check("augment_cold_matches_setup", texts == _texts(inp.augmentations))
        return elapsed, ok and repeats("augment", texts)

    def warm_once():
        provider = MockProvider(seed=inp.provider_seed)
        cache = PromptCache(cache_dir)
        start = perf_counter()
        texts = _texts(augment_pass(records, provider, cache, inp.exemplars, tracer,
                                    "augment.generate.warm"))
        elapsed = perf_counter() - start
        ok = ledger.check("augment_warm_no_requests", provider.requests_made == 0)
        return elapsed, ok and ledger.check("augment_warm_matches_cold", texts == first["augment"])

    def train_once():
        start = perf_counter()
        trained["params"], state, _ = train_mod.train(
            inp.params, inp.config, inp.tcfg, inp.dataset, inp.augmentations, inp.vocab)
        elapsed = perf_counter() - start
        losses = state.loss_history
        ok = ledger.check("train_losses_finite", all(math.isfinite(x) for x in losses))
        ok &= ledger.check("train_last_epoch_below_first", losses[-1] < losses[0])
        return elapsed, ok and repeats("losses", losses)

    def evaluate_once():
        start = perf_counter()
        row = evaluation.evaluate(trained["params"], inp.config, inp.vocab, inp.dataset,
                                  inp.augmentations, "test", KIND_ORDER)
        elapsed = perf_counter() - start
        ok = ledger.check("evaluate_predictions_finite", row_finite(row))
        return elapsed, ok and repeats("row", asdict(row))

    ops = phase_operations(w, inp)
    result = {}
    for phase, once in (("augment_cold", cold_once), ("augment_warm", warm_once),
                        ("train", train_once), ("evaluate", evaluate_once)):
        passes, seconds, ok = _repeat(once, min_seconds)
        result[phase] = (passes * ops[phase], seconds, ok)
    shutil.rmtree(cache_dir)
    return result


def reference_row(work_dir: Path) -> dict:
    """The evaluation row of the fixed reference case: set up, then score the
    loaded initial checkpoint, forward only."""
    inp = setup(REFERENCE, REFERENCE_SEED, work_dir)
    return asdict(evaluation.evaluate(inp.params, inp.config, inp.vocab, inp.dataset,
                                      inp.augmentations, "test", KIND_ORDER))


def matches_reference(work_dir: Path) -> bool:
    row = reference_row(work_dir)
    expected = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return row.keys() == expected.keys() and all(
        abs(row[k] - v) <= REFERENCE_TOLERANCE if isinstance(v, float) else row[k] == v
        for k, v in expected.items())


def _check_once(ledger: Ledger, name: str, check) -> None:
    """A check made once per run; it counts as one operation."""
    try:
        ok = check()
    except Exception:  # reported as a failed check, the run still prints its result
        traceback.print_exc()
        ok = False
    ledger.operations(1, ledger.check(name, ok))


@contextmanager
def _traced(tracer: Tracer, targets, root: str) -> Iterator[Tracer]:
    """Patch argscore and open a root span for one set-up or round."""
    with patched(tracer, targets), tracer.span(root):
        yield tracer


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict          # name -> (value, unit)
    unbounded: dict        # figures printed but not reported, name -> (value, unit)
    samples: dict          # metric -> its per-round rates, or the set-up seconds
    notes: dict            # metric -> how it was taken
    rounds: int
    tracer: Optional[Tracer]


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path) -> RunResult:
    w = WORKLOADS[name]
    ledger = Ledger()
    tracer = Tracer(f"{name}-seed{seed}") if trace else None
    targets = argscore_targets() if trace else []

    def traced(on: bool, root: str):
        return _traced(tracer, targets, root) if on else nullcontext(NullTracer())

    # set-up, repeated; the last repeat's inputs are measured (and traced)
    setup_seconds, digests = [], []
    for i in range(SETUP_REPEATS):
        with traced(trace and i == SETUP_REPEATS - 1, "setup"):
            start = perf_counter()
            inp = setup(w, seed, work_dir)
            setup_seconds.append(perf_counter() - start)
        digests.append(inp.corpus_sha256)
    ledger.operations(1, ledger.check("inputs_byte_identical_per_seed", len(set(digests)) == 1))
    if not w.synthetic:
        ledger.operations(1, ledger.check("vocab_full", len(inp.vocab) == w.vocab_max_size))

    # rounds until the time is up. A traced run alternates untraced and traced
    # rounds of one pass per phase, so that counts per round are exact.
    min_seconds = 0.0 if trace else PHASE_MIN_SECONDS
    measured: dict[str, list[tuple[int, float]]] = {p: [] for p in phase_operations(w, inp)}
    walls: dict[bool, list[float]] = {False: [], True: []}
    first: dict = {}
    completed = True
    deadline = perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or perf_counter() < deadline:
        on = trace and index % 2 == 1
        try:
            with traced(on, "round") as round_tracer:
                start = perf_counter()
                phases = run_round(w, inp, work_dir, round_tracer, ledger, first, min_seconds)
                walls[on].append(perf_counter() - start)
        except Exception:  # a failing round is reported, not fatal to the run
            traceback.print_exc()
            completed = ledger.check("rounds_complete", False)
            for count in phase_operations(w, inp).values():
                ledger.operations(count, False)
            break
        for phase, (count, phase_seconds, ok) in phases.items():
            ledger.operations(count, ok)
            if not on:
                measured[phase].append((count, phase_seconds))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    _check_once(ledger, "grad_check", lambda: train_mod.grad_check().passed)
    if w.name == "score-default":
        _check_once(ledger, "evaluate_matches_reference", lambda: matches_reference(work_dir))

    samples, notes, unbounded = {"setup_s": setup_seconds}, {}, {}
    if not completed:
        metrics = {}  # the run failed; its partial figures are not reported
    elif trace:
        metrics, notes = layer_metrics(tracer, walls)
    else:
        # a rate is all operations over all seconds of the untraced rounds
        values = {"setup_s": (statistics.median(setup_seconds), "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
        for phase, pairs in measured.items():
            name, unit = PHASE_RATES[phase]
            values[name] = (sum(c for c, _ in pairs) / sum(t for _, t in pairs), unit)
            samples[name] = [c / t for c, t in pairs]
        metrics = {name: values.pop(name) for name, _ in END_TO_END}
        unbounded = values
    return RunResult(ledger=ledger, metrics=metrics, unbounded=unbounded, samples=samples,
                     notes=notes, rounds=index, tracer=tracer)


# -- per-layer metrics of a traced run --

# span -> the statistics reported for it, per round
ROUND_SPANS = {
    **{f"kernels.{k}": ("calls", "total_ms", "elems", "computed_mb")
       for k in ("gelu", "gelu_grad", "layer_norm", "layer_norm_grad",
                 "masked_softmax", "masked_softmax_grad")},
    "kernels.adam_update": ("calls", "total_ms", "p50_ms"),
    "train.AdamOptimizer.step": ("calls", "total_ms", "p50_ms"),
    "network.zeros_like": ("calls", "total_ms", "bytes"),
    "network.backward": ("calls", "p50_ms", "tail_ms", "total_ms", "self_ms"),
    "network.forward": ("calls", "p50_ms", "tail_ms", "total_ms", "self_ms"),
    "network.predict": ("calls", "p50_ms", "tail_ms", "total_ms"),
    "encoding.encode_input": ("calls", "total_ms", "truncated_frac"),
    "train.clip_gradients": ("calls", "total_ms", "clipped_frac"),
    "train.train": ("calls", "total_ms"),
    "evaluation.evaluate": ("calls", "total_ms"),
    "evaluation.spearman": ("calls", "total_ms"),
    "augment.generate.cold": ("calls", "p50_ms", "tail_ms", "total_ms"),
    "augment.generate.warm": ("calls", "p50_ms", "tail_ms", "total_ms"),
    "augment.render_prompt": ("calls", "total_ms"),
    "cache.get": ("calls", "total_ms"),
    "cache.put": ("calls", "total_ms"),
    "providers.complete": ("calls", "total_ms"),
}
# span -> the statistics reported for it, per set-up
SETUP_SPANS = {
    "checkpoint.save_checkpoint": ("total_ms", "computed_mb"),
    "checkpoint.load_checkpoint": ("total_ms", "computed_mb"),
    "corpus.load_dataset": ("total_ms",),
    "vocab.build_vocab": ("total_ms",),
}
STATS = {  # stat -> unit, which direction is better
    "calls": ("calls/round", "lower"),
    "total_ms": ("ms/round", "lower"),
    "self_ms": ("ms/round", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "elems": ("elems/call", "higher"),  # fewer, larger kernel calls
    "computed_mb": ("MB/round", "lower"),
    "bytes": ("B/call", "lower"),
    "truncated_frac": ("ratio", "lower"),
    "clipped_frac": ("ratio", "lower"),
}
RATIOS = {
    "cache.hit_frac.cold": "higher",
    "cache.hit_frac.warm": "higher",
    "trace.overhead_frac": "lower",
}


def _unit(stat: str, per: str) -> str:
    return STATS[stat][0].replace("/round", f"/{per}")


def per_layer_spec() -> list[dict]:
    """The per-layer metrics a traced run reports, as BENCHMARK.json lists them."""
    spec = []
    for spans, per in ((ROUND_SPANS, "round"), (SETUP_SPANS, "setup")):
        for span, stats in spans.items():
            for stat in stats:
                spec.append({"name": f"{span}.{stat}", "unit": _unit(stat, per),
                             "better": STATS[stat][1]})
    spec += [{"name": n, "unit": "ratio", "better": b} for n, b in RATIOS.items()]
    return spec


def _stat_value(stats, stat: str, units: int) -> float:
    if stat in ("calls", "total_ms", "self_ms", "p50_ms", "tail_ms"):
        return getattr(stats, stat)
    if stat in ("elems", "bytes"):
        return stats.counter_mean(stat)
    if stat == "computed_mb":
        return stats.counters["bytes"] / units / 1e6
    if stat == "truncated_frac":
        return stats.counters["truncated"] / stats.counters["tokens"]
    return stats.counters["clipped"] / stats.counters["_n"]  # clipped_frac


def layer_metrics(tracer: Tracer, walls: dict[bool, list[float]]) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and notes on how some were
    taken (name -> text)."""
    spans = tracer.spans
    metrics, notes = {}, {}
    for root, table in (("round", ROUND_SPANS), ("setup", SETUP_SPANS)):
        units = sum(1 for s in spans if s.name == root)
        stats = span_stats(descendants_of(spans, root), units)
        for span, wanted in table.items():
            for stat in wanted:
                name = f"{span}.{stat}"
                metrics[name] = (_stat_value(stats[span], stat, units), _unit(stat, root))
                if stat == "tail_ms":
                    notes[name] = f"p{stats[span].tail_pct:g} of {stats[span].n} calls"
    for phase in ("cold", "warm"):
        gets = [s for s in descendants_of(spans, f"augment.generate.{phase}")
                if s.name == "cache.get"]
        metrics[f"cache.hit_frac.{phase}"] = (
            sum(s.counters["hit"] for s in gets) / len(gets), "ratio")
    traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    notes["trace.overhead_frac"] = (f"median round {traced:.3f} s traced, "
                                    f"{untraced:.3f} s untraced")
    return metrics, notes
