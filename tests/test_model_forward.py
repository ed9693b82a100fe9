"""Forward-pass contracts: masking, attention normalization, degeneracies."""

import numpy as np
import pytest

from argscore.model import (
    ModelConfig,
    ShapeMismatch,
    backward,
    forward,
    init_parameters,
    parameter_shapes,
)
from argscore.model import kernels
from tests.conftest import random_example, small_config


def test_deterministic_init_and_forward():
    config = small_config()
    a = init_parameters(config, seed=9)
    b = init_parameters(config, seed=9)
    for name in a:
        assert (a[name] == b[name]).all()
    seq1, seq2, m1, m2 = random_example(config, 0)
    out_a = forward(a, config, seq1, seq2, m1, m2).outputs
    out_b = forward(b, config, seq1, seq2, m1, m2).outputs
    assert (out_a == out_b).all()


def test_attention_rows_sum_to_one_and_masked_keys_zero():
    config = small_config(num_layers=2)
    params = init_parameters(config, seed=1)
    seq1, seq2, m1, m2 = random_example(config, 3, pad1=3, pad2=4)
    trace = forward(params, config, seq1, seq2, m1, m2)
    for probs, mask in (
        [(p, m1) for p in trace.enc1_self_attn]
        + [(p, m2) for p in trace.enc2_self_attn]
        + [(trace.cross_attn, m2)]
    ):
        sums = probs.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6
        masked = probs[:, :, mask == 0]
        assert (masked == 0.0).all()


def test_all_pad_seq2_equals_cross_bypass():
    config = small_config()
    params = init_parameters(config, seed=2)
    seq1, seq2, m1, _ = random_example(config, 5)
    empty_mask = np.zeros_like(m1)
    with_ctx = forward(params, config, seq1, seq2, m1, empty_mask)
    no_seq2 = forward(params, config, seq1, np.zeros(0, dtype=np.int64), m1, np.zeros(0))
    assert (with_ctx.outputs == no_seq2.outputs).all()
    assert with_ctx.cross_attn is None and with_ctx.enc2_states is None


def test_single_mode_has_no_context_tensors_and_rejects_context():
    config = small_config(mode="single")
    assert not [n for n in parameter_shapes(config) if n.startswith(("enc2.", "cross."))]
    params = init_parameters(config, seed=2)
    seq1, seq2, m1, m2 = random_example(config, 5)
    trace = forward(params, config, seq1, seq2, m1, np.zeros_like(m2))
    assert trace.cross_attn is None and trace.enc2_states is None
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1, seq2, m1, m2)


def test_mean_pool_of_identical_rows():
    rows = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [9.0, 9.0, 9.0]])
    mask = np.array([1.0, 1.0, 0.0])
    pooled = (rows * mask[:, None]).sum(axis=0) / mask.sum()
    assert pooled.tolist() == [1.0, 2.0, 3.0]


def _padded_and_plain(rng, **overrides):
    """A random model and one random example, unpadded and padded."""
    config = small_config(
        max_seq_len=int(rng.integers(8, 13)),
        num_layers=int(rng.integers(1, 3)),
        **overrides,
    )
    params = init_parameters(config, seed=int(rng.integers(0, 10_000)))
    n1 = int(rng.integers(3, config.max_seq_len - 1))
    n2 = int(rng.integers(1, config.max_seq_len - 1))
    seq1 = rng.integers(0, config.vocab_size, n1)
    seq2 = rng.integers(0, config.vocab_size, n2)
    k1 = int(rng.integers(1, config.max_seq_len - n1 + 1))
    k2 = int(rng.integers(1, config.max_seq_len - n2 + 1))
    plain = (seq1, seq2, np.ones(n1), np.ones(n2))
    padded = (
        np.concatenate([seq1, np.zeros(k1, dtype=np.int64)]),
        np.concatenate([seq2, np.zeros(k2, dtype=np.int64)]),
        np.concatenate([np.ones(n1), np.zeros(k1)]),
        np.concatenate([np.ones(n2), np.zeros(k2)]),
    )
    return config, params, plain, padded


def test_padding_invariance_many_models():
    rng = np.random.default_rng(42)
    for trial in range(100):
        config, params, plain, padded = _padded_and_plain(rng)
        base = forward(params, config, *plain).outputs
        out = forward(params, config, *padded).outputs
        assert np.abs(out - base).max() < 1e-6, f"trial {trial}"


def test_padding_invariance_with_dropout():
    # dropout masks are drawn at max_seq_len rows, so padding does not shift them
    rng = np.random.default_rng(43)
    for trial in range(20):
        config, params, plain, padded = _padded_and_plain(rng, dropout_rate=0.3)
        target = rng.random(3)
        seed = int(rng.integers(0, 2**31))
        runs = []
        for inputs in (plain, padded):
            out = forward(params, config, *inputs, dropout_enabled=True, rng_seed=seed).outputs
            loss, grads = backward(params, config, *inputs, target,
                                   dropout_enabled=True, rng_seed=seed)
            runs.append((out, loss, grads.flat))
        (out_a, loss_a, grad_a), (out_b, loss_b, grad_b) = runs
        assert np.abs(out_a - out_b).max() < 1e-12, f"trial {trial}"
        assert abs(loss_a - loss_b) < 1e-12, f"trial {trial}"
        assert np.abs(grad_a - grad_b).max() < 1e-12, f"trial {trial}"


def test_permutation_sensitivity():
    config = small_config()
    params = init_parameters(config, seed=11)
    rng = np.random.default_rng(0)
    seq1, seq2, m1, m2 = random_example(config, 1, pad1=0, pad2=0)
    base = forward(params, config, seq1, seq2, m1, m2).outputs
    differs = False
    for _ in range(5):
        perm = rng.permutation(len(seq1))
        permuted = forward(params, config, seq1[perm], seq2, m1, m2).outputs
        if np.abs(permuted - base).max() > 1e-9:
            differs = True
            break
    assert differs, "positional embeddings should make order matter"


def test_dropout_seed_reproducibility():
    config = small_config(dropout_rate=0.2)
    params = init_parameters(config, seed=4)
    seq1, seq2, m1, m2 = random_example(config, 6)
    a = forward(params, config, seq1, seq2, m1, m2, dropout_enabled=True, rng_seed=77).outputs
    b = forward(params, config, seq1, seq2, m1, m2, dropout_enabled=True, rng_seed=77).outputs
    c = forward(params, config, seq1, seq2, m1, m2, dropout_enabled=True, rng_seed=78).outputs
    assert (a == b).all()
    assert np.abs(a - c).max() > 0


def test_shape_mismatch_errors():
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2, m1, m2 = random_example(config, 0)
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1[:4], seq2, m1, m2)
    with pytest.raises(ShapeMismatch):
        forward(params, config, np.concatenate([seq1, seq1]), seq2,
                np.concatenate([m1, m1]), m2)
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1, seq2, np.zeros_like(m1), m2)


def test_masked_softmax_fully_masked_row_is_zero():
    scores = np.zeros((1, 2, 3))
    probs = kernels.masked_softmax(scores, np.zeros(3))
    assert (probs == 0.0).all()
