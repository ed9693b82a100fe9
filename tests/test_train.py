import numpy as np
import pytest

from argscore.augment import KIND_ORDER, AugmentationKind, AugmentationSet
from argscore.corpus import ArgumentRecord, Dataset, QualityScores
from argscore.model import (
    ModelConfig,
    ModelParameters,
    build_vocab,
    encode_input,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from argscore.model import kernels
from argscore.seeding import stream
from argscore import train as train_mod
from argscore.train import (
    AdamOptimizer,
    NonFiniteLoss,
    TrainConfig,
    apply_masking,
    clip_gradients,
    grad_check,
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
        out = forward(params, config, enc.seq1, enc.seq2).outputs
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

    def test_parameters_and_moments_stay_finite(self):
        ds, vocab = _memo_dataset()
        config = _memo_config(vocab)
        tcfg = TrainConfig(epochs=3, rng_seed=0, active_kinds=frozenset())
        params = init_parameters(config, 1)
        best, _, optimizer = train(params, config, tcfg, ds, {}, vocab)
        assert np.isfinite(best.flat).all()
        assert np.isfinite(optimizer.m).all() and np.isfinite(optimizer.v).all()
        assert optimizer.tables["enc1.tok_emb"].rows.size  # no context: enc2 has none
        for table in optimizer.tables.values():
            assert np.isfinite(table.m).all() and np.isfinite(table.v).all()

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


class TestRowMomentAdam:
    """``AdamOptimizer`` keeps token-embedding moments only for rows that have
    had a nonzero gradient, which must be exactly dense Adam."""

    def test_steps_equal_dense_adam_bitwise(self):
        config = ModelConfig(vocab_size=12, max_seq_len=8, model_dim=8, num_layers=1,
                             num_heads=2, ffn_dim=16, num_cross_heads=2, mode="dual")
        params = init_parameters(config, 5)
        initial = params.copy()
        reference = params.copy()
        m_ref = np.zeros_like(params.flat)
        v_ref = np.zeros_like(params.flat)
        tcfg = TrainConfig()
        optimizer = AdamOptimizer(params, tcfg)
        beta1, beta2 = tcfg.adam_betas
        rng = np.random.default_rng(0)
        grads = params.zeros_like()
        # step -> rows with a nonzero gradient, per table
        hits = {"enc1.tok_emb": {0: [1], 2: [2], 3: [2, 4], 6: [2]},
                "enc2.tok_emb": {t: [0] for t in range(10)} | {8: [0, 7]}}
        never_hit = {"enc1.tok_emb": [0, 3, 5, 6, 7, 8, 9, 10, 11],
                     "enc2.tok_emb": [1, 2, 3, 4, 5, 6, 8, 9, 10, 11]}
        for t in range(10):
            grads.flat[:] = rng.normal(size=grads.flat.size)
            for name, steps in hits.items():
                grads[name][:] = 0.0
                for row in steps.get(t, []):
                    grads[name][row] = rng.normal(size=config.model_dim)
            grads["enc1.tok_emb"][4, 1:] = 0.0  # a hit row that is mostly zero
            grads["enc1.tok_emb"][3] = -0.0  # a signed zero is no hit
            lr = 1e-2 * (1.0 - t / 10)
            optimizer.step(params, grads, lr)
            kernels.adam_update(reference.flat, grads.flat, m_ref, v_ref, lr, beta1, beta2,
                                tcfg.adam_eps, 1.0 - beta1 ** (t + 1), 1.0 - beta2 ** (t + 1))
            assert np.array_equal(params.flat, reference.flat)
            assert params.flat.tobytes() == reference.flat.tobytes()
            for name, rows in never_hit.items():
                assert params[name][rows].tobytes() == initial[name][rows].tobytes()
        assert sorted(optimizer.tables["enc1.tok_emb"].rows) == [1, 2, 4]
        assert sorted(optimizer.tables["enc2.tok_emb"].rows) == [0, 7]

    def test_moments_cover_only_the_rows_training_hits(self):
        ds, vocab = _memo_dataset()
        # words the train split never uses make the tables larger than its rows
        vocab = build_vocab([t for r in ds.records for t in (r.topic, r.argument)]
                            + ["keep this maybe and too", "unused words only here"], 200)
        config = _memo_config(vocab)
        tcfg = TrainConfig(epochs=2, gamma=1.0, rng_seed=0)
        aug = {r.id: FULL_AUG for r in ds.records}
        params = init_parameters(config, 1)
        _, _, optimizer = train(params, config, tcfg, ds, aug, vocab)
        encoded = [encode_input(r, FULL_AUG, vocab, config, ALL_KINDS) for r in ds.records]
        used = {"enc1.tok_emb": np.unique(np.concatenate([e.seq1 for e in encoded])),
                "enc2.tok_emb": np.unique(np.concatenate([e.seq2 for e in encoded]))}
        d = config.model_dim
        dense = params.flat.size - sum(params[name].size for name in used)
        held = optimizer.m.size + optimizer.v.size + sum(
            table.m.size + table.v.size for table in optimizer.tables.values())
        hit_rows = sum(rows.size for rows in used.values())
        assert hit_rows < 2 * config.vocab_size
        assert held == 2 * (dense + hit_rows * d)
        for name, rows in used.items():
            assert sorted(optimizer.tables[name].rows) == rows.tolist()


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
    out = forward(best, config, enc.seq1, enc.seq2, dropout_enabled=True, rng_seed=9).outputs

    def pinned(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)

    pinned(state.loss_history, [0.3489336440453829, 0.25622515006147684])
    pinned(state.dev_spearman_history, [-0.13333333333333333, -0.3333333333333333])
    pinned(out, [0.1419813290468829, 0.14427936155541488, 0.12262468605001356])


def test_each_record_and_kind_set_is_encoded_once(monkeypatch):
    ds, vocab = _memo_dataset()
    config = _memo_config(vocab)
    calls = []

    def counting(record, aug, vocab, config, kinds):
        calls.append((record.id, frozenset(kinds)))
        return encode_input(record, aug, vocab, config, kinds)

    monkeypatch.setattr(train_mod, "encode_input", counting)
    aug = {r.id: FULL_AUG for r in ds.records}
    tcfg = TrainConfig(epochs=3, gamma=0.5, rng_seed=0)
    train(init_parameters(config, 1), config, tcfg, ds, aug, vocab)
    assert len(calls) == len(set(calls))
    assert len(calls) <= 2 * len(ds.split("train"))  # with and without similar-quality


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
