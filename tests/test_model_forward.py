"""Forward-pass contracts: attention normalization, input checks, degeneracies."""

import numpy as np
import pytest

from argscore.model import (EncodedExample, ShapeMismatch, Workspace, forward, init_parameters,
                            parameter_shapes)
from tests.conftest import random_example, small_config


def _one(params, config, seq1, seq2, **kwargs):
    """The outputs of one example."""
    return forward(params, config, [EncodedExample(seq1, seq2)], **kwargs)[0]


def test_deterministic_init_and_forward():
    config = small_config()
    a = init_parameters(config, seed=9)
    b = init_parameters(config, seed=9)
    for name in a:
        assert (a[name] == b[name]).all()
    seq1, seq2 = random_example(config, 0)
    out_a = _one(a, config, seq1, seq2)
    out_b = _one(b, config, seq1, seq2)
    assert (out_a == out_b).all()


def test_attention_rows_sum_to_one_and_masked_keys_zero():
    config = small_config(num_layers=2)
    params = init_parameters(config, seed=1)
    seq1, seq2 = random_example(config, 3, pad1=3, pad2=4)
    workspace = Workspace(config)
    _one(params, config, seq1, seq2, workspace=workspace)
    n1, n2, h = len(seq1), len(seq2), config.num_heads
    slots = [(f"{enc}.layer{i}.attn", n, n) for enc, n in (("enc1", n1), ("enc2", n2))
             for i in range(config.num_layers)] + [("cross", n1, n2)]
    for prefix, nq, nk in slots:
        probs = workspace.heads(f"{prefix}.probs", h, nq, nk)
        sums = probs.sum(axis=-1)
        assert np.abs(sums - 1.0).max() < 1e-6, prefix


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
    workspace = Workspace(config)
    for array in workspace.slots.values():
        array.fill(np.nan)
    no_seq2 = _one(params, config, seq1, seq2[:0], workspace=workspace)
    assert (no_seq2 == _one(alone, single, seq1, seq2[:0])).all()
    # neither the context encoder nor the cross-attention ran
    for name in ("cross.probs", "cross.q", "enc2.final_ln.y", "enc2.layer0.attn.probs"):
        assert np.isnan(workspace.slots[name]).all(), name


def test_single_mode_has_no_context_tensors_and_rejects_context():
    config = small_config(mode="single")
    assert not [n for n in parameter_shapes(config) if n.startswith(("enc2.", "cross."))]
    params = init_parameters(config, seed=2)
    seq1, seq2 = random_example(config, 5)
    assert not [n for n in Workspace(config).slots if n.startswith(("enc2.", "cross."))]
    assert np.isfinite(_one(params, config, seq1, seq2[:0])).all()
    with pytest.raises(ShapeMismatch):
        _one(params, config, seq1, seq2)


def test_permutation_sensitivity():
    config = small_config()
    params = init_parameters(config, seed=11)
    rng = np.random.default_rng(0)
    seq1, seq2 = random_example(config, 1, pad1=0, pad2=0)
    base = _one(params, config, seq1, seq2)
    differs = False
    for _ in range(5):
        perm = rng.permutation(len(seq1))
        permuted = _one(params, config, seq1[perm], seq2)
        if np.abs(permuted - base).max() > 1e-9:
            differs = True
            break
    assert differs, "positional embeddings should make order matter"


def test_dropout_seed_reproducibility():
    config = small_config(dropout_rate=0.2)
    params = init_parameters(config, seed=4)
    seq1, seq2 = random_example(config, 6)
    a = _one(params, config, seq1, seq2, seeds=[77])
    b = _one(params, config, seq1, seq2, seeds=[77])
    c = _one(params, config, seq1, seq2, seeds=[78])
    assert (a == b).all()
    assert np.abs(a - c).max() > 0


def test_shape_mismatch_errors():
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2 = random_example(config, 0, pad1=0)
    with pytest.raises(ShapeMismatch):
        _one(params, config, seq1.reshape(2, -1), seq2)
    with pytest.raises(ShapeMismatch):
        _one(params, config, np.concatenate([seq1, seq1]), seq2)
    with pytest.raises(ShapeMismatch):
        _one(params, config, seq1[:0], seq2)


def test_token_ids_outside_the_table_raise():
    """As indexing the table by them would: the workspace's take wraps ids."""
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2 = random_example(config, 0)
    for bad in (config.vocab_size, -config.vocab_size - 1):
        with pytest.raises(IndexError):
            _one(params, config, np.append(seq1, bad), seq2)
        with pytest.raises(IndexError):
            _one(params, config, seq1, np.append(seq2, bad))
    wrapped = np.append(seq1[:-1], seq1[-1] - config.vocab_size)  # a negative id counts back
    assert _one(params, config, wrapped, seq2).tobytes() == \
        _one(params, config, seq1, seq2).tobytes()
