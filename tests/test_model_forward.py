"""Forward-pass contracts: attention normalization, input checks, degeneracies."""

import numpy as np
import pytest

from argscore.model import ShapeMismatch, forward, init_parameters, parameter_shapes
from tests.conftest import random_example, small_config


def test_deterministic_init_and_forward():
    config = small_config()
    a = init_parameters(config, seed=9)
    b = init_parameters(config, seed=9)
    for name in a:
        assert (a[name] == b[name]).all()
    seq1, seq2 = random_example(config, 0)
    out_a = forward(a, config, seq1, seq2).outputs
    out_b = forward(b, config, seq1, seq2).outputs
    assert (out_a == out_b).all()


def test_attention_rows_sum_to_one_and_masked_keys_zero():
    config = small_config(num_layers=2)
    params = init_parameters(config, seed=1)
    seq1, seq2 = random_example(config, 3, pad1=3, pad2=4)
    trace = forward(params, config, seq1, seq2)
    for probs in trace.enc1_self_attn + trace.enc2_self_attn + [trace.cross_attn]:
        sums = probs.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6


def test_all_pad_seq2_equals_cross_bypass():
    # an empty context reduces a dual model to its first encoder and heads,
    # which is what a single-mode model with the same tensors computes
    config = small_config()
    params = init_parameters(config, seed=2)
    single = small_config(mode="single")
    alone = init_parameters(single, seed=0)
    for name in alone:
        alone[name][...] = params[name]
    seq1, seq2 = random_example(config, 5)
    no_seq2 = forward(params, config, seq1, seq2[:0])
    assert (no_seq2.outputs == forward(alone, single, seq1, seq2[:0]).outputs).all()
    assert no_seq2.cross_attn is None and no_seq2.enc2_states is None


def test_single_mode_has_no_context_tensors_and_rejects_context():
    config = small_config(mode="single")
    assert not [n for n in parameter_shapes(config) if n.startswith(("enc2.", "cross."))]
    params = init_parameters(config, seed=2)
    seq1, seq2 = random_example(config, 5)
    trace = forward(params, config, seq1, seq2[:0])
    assert trace.cross_attn is None and trace.enc2_states is None
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1, seq2)


def test_permutation_sensitivity():
    config = small_config()
    params = init_parameters(config, seed=11)
    rng = np.random.default_rng(0)
    seq1, seq2 = random_example(config, 1, pad1=0, pad2=0)
    base = forward(params, config, seq1, seq2).outputs
    differs = False
    for _ in range(5):
        perm = rng.permutation(len(seq1))
        permuted = forward(params, config, seq1[perm], seq2).outputs
        if np.abs(permuted - base).max() > 1e-9:
            differs = True
            break
    assert differs, "positional embeddings should make order matter"


def test_dropout_seed_reproducibility():
    config = small_config(dropout_rate=0.2)
    params = init_parameters(config, seed=4)
    seq1, seq2 = random_example(config, 6)
    a = forward(params, config, seq1, seq2, dropout_enabled=True, rng_seed=77).outputs
    b = forward(params, config, seq1, seq2, dropout_enabled=True, rng_seed=77).outputs
    c = forward(params, config, seq1, seq2, dropout_enabled=True, rng_seed=78).outputs
    assert (a == b).all()
    assert np.abs(a - c).max() > 0


def test_shape_mismatch_errors():
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2 = random_example(config, 0, pad1=0)
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1.reshape(2, -1), seq2)
    with pytest.raises(ShapeMismatch):
        forward(params, config, np.concatenate([seq1, seq1]), seq2)
    with pytest.raises(ShapeMismatch):
        forward(params, config, seq1[:0], seq2)


def test_token_ids_outside_the_table_raise():
    """As indexing the table by them would: the workspace's take wraps ids."""
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2 = random_example(config, 0)
    for bad in (config.vocab_size, -config.vocab_size - 1):
        with pytest.raises(IndexError):
            forward(params, config, np.append(seq1, bad), seq2)
        with pytest.raises(IndexError):
            forward(params, config, seq1, np.append(seq2, bad))
    wrapped = np.append(seq1[:-1], seq1[-1] - config.vocab_size)  # a negative id counts back
    assert forward(params, config, wrapped, seq2).outputs.tobytes() == \
        forward(params, config, seq1, seq2).outputs.tobytes()
