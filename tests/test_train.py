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
from argscore.seeding import stream
from argscore import train as train_mod
from argscore.train import (
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
