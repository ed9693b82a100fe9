import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from argscore.augment import KIND_ORDER, AugmentationKind, AugmentationSet
from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.model import (
    ModelConfig,
    ModelParameters,
    backward,
    build_vocab,
    encode_input,
    encoding,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from argscore import evaluation
from argscore.evaluation import evaluate
from argscore.seeding import derive_seed, stream
from argscore import train as train_mod
from argscore.train import (
    AdamOptimizer,
    NonFiniteLoss,
    TrainConfig,
    apply_masking,
    clip_gradients,
    grad_check,
    learning_rate_at,
    train,
)


FULL_AUG = AugmentationSet(feedback="keep this", similar_quality="maybe this",
                           assumptions="and this", counter_argument="this too")
ALL_KINDS = frozenset(KIND_ORDER)
SQ = AugmentationKind.SIMILAR_QUALITY


class TestApplyMasking:
    def test_gamma_zero_always_drops(self):
        rng = stream(0, "masking")
        for _ in range(1000):
            assert apply_masking(ALL_KINDS, 0.0, rng) == ALL_KINDS - {SQ}

    def test_gamma_one_always_keeps(self):
        rng = stream(0, "masking")
        for _ in range(1000):
            assert apply_masking(ALL_KINDS, 1.0, rng) == ALL_KINDS

    def test_keep_fraction_three_sigma(self):
        rng = stream(0, "masking")
        kept = sum(1 for _ in range(10_000) if SQ in apply_masking(ALL_KINDS, 0.5, rng))
        assert 0.485 <= kept / 10_000 <= 0.515

    def test_other_kinds_untouched(self):
        rng = stream(3, "masking")
        for _ in range(200):
            assert apply_masking(ALL_KINDS, 0.5, rng) - {SQ} == ALL_KINDS - {SQ}

    def test_consumes_exactly_one_draw_per_call(self):
        no_sq = frozenset({AugmentationKind.FEEDBACK})
        a = stream(9, "masking")
        b = stream(9, "masking")
        assert apply_masking(no_sq, 0.5, a) == no_sq
        b.random()
        assert a.random() == b.random()


def test_clip_gradients_bounds_global_norm():
    rng = np.random.default_rng(0)
    grads = ModelParameters(rng.normal(size=6 * 4 * 5), {f"t{i}": (4, 5) for i in range(6)})
    pre = clip_gradients(grads, 1.0)
    post = np.sqrt(sum((g ** 2).sum() for g in grads.values()))
    assert pre > 1.0
    assert post <= 1.0 + 1e-9
    small = ModelParameters(np.full(4, 1e-4), {"t": (2, 2)})
    clip_gradients(small, 1.0)
    assert (small["t"] == 1e-4).all()  # under the bound: untouched


def test_clip_gradients_sums_a_cut_table_as_the_full_one():
    rng = np.random.default_rng(3)
    full = ModelParameters(np.zeros(300 * 7 + 5), {"table": (300, 7), "bias": (5,)})
    rows = np.array([3, 40, 41, 299])
    full["table"][rows] = rng.normal(size=(4, 7)) * 1e-3
    full["bias"][:] = rng.normal(size=5) * 1e-3
    cut = ModelParameters(np.concatenate([full["table"][rows].ravel(), full["bias"]]),
                          {"table": (4, 7), "bias": (5,)})
    # summed where they lie, the cut rows' squares round differently
    assert (cut["table"] ** 2).sum() != (full["table"] ** 2).sum()
    scratch = np.zeros((300, 7))
    assert clip_gradients(cut, 1.0, {"table": rows}, scratch) == clip_gradients(full, 1.0)
    assert not scratch.any()


def _memo_dataset(n=16, seed=0):
    rng = np.random.default_rng(seed)
    words = ["river", "bridge", "market", "garden", "tower", "street", "window",
             "door", "stone", "cloud", "light", "sound", "paper", "glass"]
    records, assignment = [], {}
    for i in range(n):
        records.append(ArgumentRecord(
            id=f"m{i}", domain_tag="synthetic",
            topic=" ".join(rng.choice(words, 3)),
            argument=" ".join(rng.choice(words, 10)),
            labels=QualityScores(*np.round(rng.uniform(1, 5, 3), 2)),
        ))
        assignment[f"m{i}"] = "train"
    ds = Dataset(records=records, split_assignment=assignment, name="memo")
    vocab = build_vocab([t for r in records for t in (r.topic, r.argument)], 200)
    return ds, vocab


def _memo_config(vocab, dropout=0.0):
    return ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=32,
                       num_layers=1, num_heads=4, ffn_dim=128, num_cross_heads=4,
                       dropout_rate=dropout)


def _train_mse(params, config, vocab, dataset):
    errors = []
    for rec in dataset.split("train"):
        enc = encode_input(rec, None, vocab, config, set())
        out = forward(params, config, [enc])[0]
        errors.append(float(np.mean((out - np.array(rec.labels.normalized())) ** 2)))
    return float(np.mean(errors))


class TestTrainLoop:
    def test_memorizes_sixteen_examples(self):
        ds, vocab = _memo_dataset()
        config = _memo_config(vocab)
        tcfg = TrainConfig(epochs=200, rng_seed=0, active_kinds=frozenset())
        params = init_parameters(config, 1)
        best, state, _ = train(params, config, tcfg, ds, {}, vocab)
        assert _train_mse(best, config, vocab, ds) < 0.01
        # stability after the initial descent: no 20-epoch window may climb beyond
        # plateau jitter (well under the 0.01 acceptance level)
        for e in range(50, len(state.loss_history) - 20):
            assert state.loss_history[e + 20] <= state.loss_history[e] + 1e-3

    def test_zero_epochs_is_identity(self):
        ds, vocab = _memo_dataset()
        config = _memo_config(vocab)
        tcfg = TrainConfig(epochs=0, rng_seed=0, active_kinds=frozenset())
        params = init_parameters(config, 1)
        best, state, _ = train(params, config, tcfg, ds, {}, vocab)
        for name in params:
            assert (best[name] == params[name]).all()
        assert state.step == 0 and state.loss_history == []

    def test_deterministic_loss_history(self):
        ds, vocab = _memo_dataset()
        config = _memo_config(vocab, dropout=0.1)
        runs = []
        for _ in range(2):
            tcfg = TrainConfig(epochs=5, rng_seed=7)
            params = init_parameters(config, 2)
            aug = {r.id: FULL_AUG for r in ds.records}
            _, state, _ = train(params, config, tcfg, ds, aug, vocab)
            runs.append(state.loss_history)
        assert runs[0] == runs[1]

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        ds, vocab = _memo_dataset()
        config = _memo_config(vocab)
        tcfg = TrainConfig(epochs=50, learning_rate=1e18, rng_seed=0,
                           active_kinds=frozenset())
        params = init_parameters(config, 1)
        with pytest.raises(NonFiniteLoss) as err:
            train(params, config, tcfg, ds, {}, vocab)
        # the first update blows the weights up, so the divergence shows from
        # step 1 on and the run stops in its first epoch, not after 50
        assert err.value.diagnostics["epoch"] == 0
        assert err.value.diagnostics["reason"]

    def test_dev_selection_returns_best_epoch(self, tiny_dataset):
        vocab = build_vocab(
            [t for r in tiny_dataset.records for t in (r.topic, r.argument)], 300
        )
        config = ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=16,
                             num_layers=1, num_heads=2, ffn_dim=32, num_cross_heads=2,
                             dropout_rate=0.0)
        tcfg = TrainConfig(epochs=4, rng_seed=1, active_kinds=frozenset())
        params = init_parameters(config, 3)
        best, state, _ = train(params, config, tcfg, tiny_dataset, {}, vocab)
        assert 0 <= state.best_epoch < 4
        assert len(state.dev_spearman_history) == 4
        assert max(state.dev_spearman_history) == \
            state.dev_spearman_history[state.best_epoch]

    def test_one_record_dev_split_fails_before_the_first_step(self, monkeypatch):
        ds, vocab = _memo_dataset(n=12)
        ds.split_assignment["m11"] = "dev"
        config = _memo_config(vocab)

        def no_step(*args, **kwargs):
            raise AssertionError("a training step was taken")

        monkeypatch.setattr(train_mod, "backward", no_step)
        tcfg = TrainConfig(epochs=1, rng_seed=0, active_kinds=frozenset())
        with pytest.raises(ValueError, match="dev"):
            train(init_parameters(config, 1), config, tcfg, ds, {}, vocab)


def _unused_rows_case():
    """20 records, 4 of them dev, full context, and a vocabulary with words
    that no train encoding uses."""
    ds, vocab = _memo_dataset(n=20)
    for i in range(16, 20):
        ds.split_assignment[f"m{i}"] = "dev"
    vocab = build_vocab([t for r in ds.records for t in (r.topic, r.argument)]
                        + ["keep this maybe and too", "unused words only here"], 200)
    return ds, vocab, _memo_config(vocab), {r.id: FULL_AUG for r in ds.records}


def _used_rows(ds, vocab, config):
    """Per token-embedding table, the rows some train encoding uses under
    either kind set that masking leaves."""
    used = {"enc1.tok_emb": set(), "enc2.tok_emb": set()}
    for rec in ds.split("train"):
        for kinds in (ALL_KINDS, ALL_KINDS - {SQ}):
            enc = encode_input(rec, FULL_AUG, vocab, config, kinds)
            used["enc1.tok_emb"].update(enc.seq1.tolist())
            used["enc2.tok_emb"].update(enc.seq2.tolist())
    return {name: sorted(rows) for name, rows in used.items()}


def _dense_train(params, config, tcfg, ds, aug, vocab):
    """``train`` without the cut: ids as the vocabulary gives them, and
    full-size gradients, Adam moments and best snapshot. Returns the best
    parameters, the loss history and the dev history."""
    train_recs = ds.split("train")
    shuffle_rng, mask_rng = stream(tcfg.rng_seed, "shuffle"), stream(tcfg.rng_seed, "masking")
    params = params.copy()
    optimizer = AdamOptimizer(params, tcfg)
    total_steps = tcfg.epochs * math.ceil(len(train_recs) / tcfg.batch_size)
    best, best_score, losses, dev_scores, step = None, -np.inf, [], [], 0
    for epoch in range(tcfg.epochs):
        perm = shuffle_rng.permutation(len(train_recs))
        epoch_losses = []
        for start in range(0, len(perm), tcfg.batch_size):
            chunk = perm[start : start + tcfg.batch_size]
            grads = params.zeros_like()
            for j in chunk.tolist():
                rec = train_recs[j]
                kinds = apply_masking(tcfg.active_kinds, tcfg.gamma, mask_rng)
                enc = encode_input(rec, aug.get(rec.id), vocab, config, kinds)
                seeds = [derive_seed(tcfg.rng_seed, 3, epoch, j)]
                (loss,), grads = backward(params, config, [enc], [rec.labels.normalized()],
                                          seeds, grads=grads)
                epoch_losses.append(loss)
            grads.flat *= 1.0 / len(chunk)
            clip_gradients(grads, tcfg.grad_clip_norm)
            optimizer.step(params, grads, learning_rate_at(tcfg.learning_rate, step, total_steps))
            step += 1
        losses.append(float(np.mean(epoch_losses)))
        score = evaluate(params, config, vocab, ds, aug, "dev", tcfg.active_kinds).mean_spearman()
        dev_scores.append(0.0 if score is None else score)
        if dev_scores[-1] > best_score:
            best, best_score = params.copy(), dev_scores[-1]
    return best, losses, dev_scores


class TestCompactTraining:
    """``train`` optimises only the token-embedding rows the train split
    uses; the rest of each table must come back as it went in."""

    TCFG = TrainConfig(epochs=3, gamma=0.5, batch_size=4, rng_seed=0)

    def test_returns_the_bytes_of_dense_training(self):
        ds, vocab, config, aug = _unused_rows_case()
        params = init_parameters(config, 1)
        best, state, _ = train(params, config, self.TCFG, ds, aug, vocab)
        dense, losses, dev_scores = _dense_train(params, config, self.TCFG, ds, aug, vocab)
        assert state.best_epoch == 1  # before the last epoch, so the best is restored
        assert state.loss_history == losses
        assert state.dev_spearman_history == dev_scores
        assert best.flat.tobytes() == dense.flat.tobytes()

    def test_unused_rows_keep_the_input_bytes(self):
        ds, vocab, config, aug = _unused_rows_case()
        params = init_parameters(config, 1)
        before = params.flat.tobytes()
        best, _, _ = train(params, config, self.TCFG, ds, aug, vocab)
        assert params.flat.tobytes() == before
        assert np.isfinite(best.flat).all()
        for name, used in _used_rows(ds, vocab, config).items():
            unused = [i for i in range(config.vocab_size) if i not in used]
            assert unused
            assert best[name][unused].tobytes() == params[name][unused].tobytes()
            assert not np.array_equal(best[name][used], params[name][used])

    def test_optimizer_holds_twice_the_compact_size(self):
        ds, vocab, config, aug = _unused_rows_case()
        params = init_parameters(config, 1)
        _, _, optimizer = train(params, config, self.TCFG, ds, aug, vocab)
        used = sum(len(rows) for rows in _used_rows(ds, vocab, config).values())
        compact = params.flat.size - (2 * config.vocab_size - used) * config.model_dim
        assert compact < params.flat.size
        assert optimizer.m.size + optimizer.v.size == 2 * compact
        assert np.isfinite(optimizer.m).all() and np.isfinite(optimizer.v).all()

    def test_nan_in_an_unused_row_stops_the_first_step(self):
        ds, vocab, config, aug = _unused_rows_case()
        params = init_parameters(config, 1)
        used = _used_rows(ds, vocab, config)["enc1.tok_emb"]
        params["enc1.tok_emb"][next(i for i in range(config.vocab_size) if i not in used)] = np.nan
        with pytest.raises(NonFiniteLoss) as err:
            train(params, config, self.TCFG, ds, aug, vocab)
        diagnostics = err.value.diagnostics
        assert (diagnostics["reason"], diagnostics["epoch"], diagnostics["step"]) == (
            "non-finite parameter", 0, 0)

    def test_a_dev_only_token_keeps_its_row(self):
        """Dev scoring runs on the compact weights, so a token that only dev
        records use has a row there: its gradient and Adam moments stay zero,
        and it comes back with the bytes it went in with."""
        ds, _, _, aug = _unused_rows_case()
        records = [replace(r, topic=f"lighthouse {r.topic}") if ds.split_assignment[r.id] == "dev"
                   else r for r in ds.records]
        ds = Dataset(records=records, split_assignment=ds.split_assignment, name=ds.name)
        vocab = build_vocab([t for r in ds.records for t in (r.topic, r.argument)]
                            + ["keep this maybe and too"], 200)
        config = _memo_config(vocab)
        row = vocab.token_to_id["lighthouse"]
        assert row not in _used_rows(ds, vocab, config)["enc1.tok_emb"]
        params = init_parameters(config, 1)
        best, state, optimizer = train(params, config, self.TCFG, ds, aug, vocab)
        dense, losses, dev_scores = _dense_train(params, config, self.TCFG, ds, aug, vocab)
        assert (state.loss_history, state.dev_spearman_history) == (losses, dev_scores)
        assert best.flat.tobytes() == dense.flat.tobytes()
        assert best["enc1.tok_emb"][row].tobytes() == params["enc1.tok_emb"][row].tobytes()
        used = sum(len(rows) for rows in _used_rows(ds, vocab, config).values())
        compact = params.flat.size - (2 * config.vocab_size - used - 1) * config.model_dim
        assert optimizer.m.size == compact

    def test_peak_memory_is_about_one_model_when_tables_dominate(self):
        """With the tables at 95% of the model and few of their rows used, one
        run's traced peak stays under 2.75 times the parameter bytes: one
        full-size copy, the clip scratch (one table) and the compact vectors.
        Full-size gradients, best snapshot and working copy would reach 3.6."""
        ds, vocab, _, aug = _unused_rows_case()
        config = ModelConfig(vocab_size=4000, max_seq_len=16, model_dim=16, num_layers=1,
                             num_heads=2, ffn_dim=32, num_cross_heads=2, dropout_rate=0.0)
        params = init_parameters(config, 1)
        tables = params["enc1.tok_emb"].size + params["enc2.tok_emb"].size
        assert tables >= 0.9 * params.flat.size
        tracemalloc.start()
        try:
            train(params, config, TrainConfig(epochs=1, rng_seed=0), ds, aug, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * params.flat.nbytes


def test_seeded_dual_training_reproduces_recorded_values():
    """A guard for speed changes that must keep every output: 2 epochs of a
    2-layer dual model with dropout 0.1, gamma 0.5 and a dev split, and one
    dropout-on forward pass of the returned parameters, against values
    recorded from the plain (one temporary per operation) kernels and
    one-draw-per-mask dropout."""
    ds, vocab = _memo_dataset(n=20)
    for i in range(16, 20):
        ds.split_assignment[f"m{i}"] = "dev"
    config = ModelConfig(vocab_size=len(vocab), max_seq_len=16, model_dim=16, num_layers=2,
                         num_heads=2, ffn_dim=32, num_cross_heads=2, dropout_rate=0.1)
    tcfg = TrainConfig(epochs=2, gamma=0.5, batch_size=4, rng_seed=5)
    aug = {r.id: FULL_AUG for r in ds.records}
    best, state, _ = train(init_parameters(config, 4), config, tcfg, ds, aug, vocab)
    enc = encode_input(ds.records[0], FULL_AUG, vocab, config, ALL_KINDS)
    out = forward(best, config, [enc], seeds=[9])[0]

    def pinned(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)

    pinned(state.loss_history, [0.3489336440453829, 0.25622515006147684])
    pinned(state.dev_spearman_history, [-0.13333333333333333, -0.3333333333333333])
    pinned(out, [0.1419813290468829, 0.14427936155541488, 0.12262468605001356])


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
def test_each_record_and_kind_set_is_encoded_once(monkeypatch, gamma):
    """Only the kind sets masking can draw: with similar-quality at gamma 1,
    without it at gamma 0, and both in between. Each dev record is encoded
    once per run, under ``active_kinds``, and predicted once per epoch through
    ``evaluation.predict``, where the benchmark's tracer patches it."""
    ds, vocab = _memo_dataset(n=20)
    ds = Dataset(records=ds.records, name=ds.name,
                 split_assignment={r.id: "dev" if i >= 16 else "train"
                                   for i, r in enumerate(ds.records)})
    config = _memo_config(vocab)
    calls, predicted = [], []
    real_predict = evaluation.predict

    def counting(encode):
        def wrapper(record, aug, vocab, config, kinds):
            calls.append((record.id, frozenset(kinds)))
            return encode(record, aug, vocab, config, kinds)
        return wrapper

    def predict(*args, **kwargs):
        predicted.append(args)
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(train_mod, "encode_input", counting(train_mod.encode_input))
    monkeypatch.setattr(encoding, "encode_input", counting(encoding.encode_input))
    monkeypatch.setattr(evaluation, "predict", predict)
    aug = {r.id: FULL_AUG for r in ds.records}
    tcfg = TrainConfig(epochs=3, gamma=gamma, rng_seed=0)
    train(init_parameters(config, 1), config, tcfg, ds, aug, vocab)
    drawn = {0.0: {ALL_KINDS - {SQ}}, 0.5: {ALL_KINDS, ALL_KINDS - {SQ}}, 1.0: {ALL_KINDS}}[gamma]
    dev_ids = {r.id for r in ds.split("dev")}
    train_calls = [c for c in calls if c[0] not in dev_ids]
    assert len(train_calls) == len(set(train_calls)) == len(drawn) * len(ds.split("train"))
    assert {kinds for _, kinds in train_calls} == drawn
    assert [c for c in calls if c[0] in dev_ids] == [(r.id, ALL_KINDS) for r in ds.split("dev")]
    assert len(predicted) == tcfg.epochs
    assert all(len(args[2]) == len(dev_ids) for args in predicted)


def test_truncated_tokens_count_every_visit():
    ds, vocab = _memo_dataset(n=8)
    config = ModelConfig(vocab_size=len(vocab), max_seq_len=8, model_dim=16, num_layers=1,
                         num_heads=2, ffn_dim=32, num_cross_heads=2, dropout_rate=0.0)
    aug = {r.id: FULL_AUG for r in ds.records}
    per_epoch = sum(encode_input(r, FULL_AUG, vocab, config, ALL_KINDS).truncated_tokens
                    for r in ds.split("train"))
    assert per_epoch > 0
    tcfg = TrainConfig(epochs=3, gamma=1.0, rng_seed=0)
    _, state, _ = train(init_parameters(config, 1), config, tcfg, ds, aug, vocab)
    assert state.truncated_tokens == 3 * per_epoch


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    ds, vocab = _memo_dataset()
    config = _memo_config(vocab)
    tcfg = TrainConfig(epochs=2, rng_seed=0, active_kinds=frozenset())
    params = init_parameters(config, 1)
    best, _, _ = train(params, config, tcfg, ds, {}, vocab)
    save_checkpoint(tmp_path / "ckpt", best, config, vocab)

    loaded, loaded_config, loaded_vocab = load_checkpoint(tmp_path / "ckpt")
    assert loaded_config == config
    assert loaded_vocab.id_to_token == vocab.id_to_token
    for name in best:
        assert (loaded[name] == best[name]).all()


def test_grad_check_runs_inside_runtime_budget():
    import time

    start = time.time()
    report = grad_check(eps=1e-4, tolerance=1e-4, seed=1)
    assert report.passed
    assert time.time() - start < 60.0
