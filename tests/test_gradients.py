"""Analytic gradients against the central finite-difference oracle."""

from dataclasses import replace

import numpy as np
import pytest

from argscore.model import ModelConfig, backward, forward, init_parameters
from argscore.train import default_gradcheck_config, grad_check
from tests.conftest import random_example, small_config


def test_grad_check_passes_default_small_config():
    report = grad_check(eps=1e-4, tolerance=1e-4, seed=0)
    assert report.passed, f"worst: {report.worst}"


def test_grad_check_passes_two_layers():
    report = grad_check(replace(default_gradcheck_config(), num_layers=2))
    assert report.passed, f"worst: {report.worst}"


def test_grad_check_flags_exactly_the_corrupted_tensor(monkeypatch):
    def corrupted_backward(*args, **kwargs):
        loss, grads = backward(*args, **kwargs)
        grads["head.cogency.w"] *= 1.1
        return loss, grads

    monkeypatch.setattr("argscore.train.backward", corrupted_backward)
    report = grad_check(eps=1e-4, tolerance=1e-4, seed=0)
    assert report.failures == ["head.cogency.w"]


def test_grad_check_deterministic():
    a = grad_check(eps=1e-4, tolerance=1e-4, seed=3)
    b = grad_check(eps=1e-4, tolerance=1e-4, seed=3)
    assert a.max_rel_errors == b.max_rel_errors


def test_grad_check_rejects_large_configs():
    with pytest.raises(ValueError):
        grad_check(config=ModelConfig(vocab_size=32, max_seq_len=64, model_dim=64))


def test_masked_context_parameters_get_zero_gradient():
    config = small_config()
    params = init_parameters(config, seed=1)
    seq1, seq2 = random_example(config, 2)
    target = np.array([0.3, 0.5, 0.7])
    _, grads = backward(params, config, seq1, seq2[:0], target)
    for name, g in grads.items():
        if name.startswith("enc2.") or name.startswith("cross."):
            assert (g == 0.0).all(), name


def test_head_bias_gradient_formula():
    # with zeroed head weights the output is exactly the bias, so the loss
    # derivative at each bias is 2*(output - target)/3
    config = small_config()
    params = init_parameters(config, seed=5)
    for head in ("cogency", "effectiveness", "reasonableness"):
        params[f"head.{head}.w"][:] = 0.0
    params["head.cogency.b"][:] = 0.25
    params["head.effectiveness.b"][:] = -0.5
    params["head.reasonableness.b"][:] = 0.0
    seq1, seq2 = random_example(config, 7)
    target = np.zeros(3)
    loss, grads = backward(params, config, seq1, seq2, target)
    assert grads["head.cogency.b"][0] == pytest.approx(2 * 0.25 / 3, abs=1e-15)
    assert grads["head.effectiveness.b"][0] == pytest.approx(2 * -0.5 / 3, abs=1e-15)
    assert grads["head.reasonableness.b"][0] == pytest.approx(0.0, abs=1e-15)
    assert loss == pytest.approx((0.25 ** 2 + 0.5 ** 2) / 3, abs=1e-15)


def test_gradient_store_aligned_with_parameters():
    config = small_config()
    params = init_parameters(config, seed=0)
    seq1, seq2 = random_example(config, 0)
    _, grads = backward(params, config, seq1, seq2, np.zeros(3))
    assert set(grads) == set(params)
    for name in grads:
        assert grads[name].shape == params[name].shape


def test_backward_with_dropout_matches_seeded_forward():
    config = small_config(dropout_rate=0.3)
    params = init_parameters(config, seed=8)
    seq1, seq2 = random_example(config, 9)
    target = np.array([0.2, 0.4, 0.6])
    trace = forward(params, config, seq1, seq2, dropout_enabled=True, rng_seed=5)
    loss, _ = backward(params, config, seq1, seq2, target, dropout_enabled=True, rng_seed=5)
    assert loss == pytest.approx(float(np.mean((trace.outputs - target) ** 2)), abs=1e-15)


def test_backward_accumulates_into_given_grads():
    config = small_config(vocab_size=200)
    params = init_parameters(config, seed=4)
    examples = [random_example(config, s) for s in (11, 12)]
    targets = [np.array([0.1, 0.5, 0.9]), np.array([0.7, 0.2, 0.4])]
    fresh = [backward(params, config, *ex, t)[1] for ex, t in zip(examples, targets)]

    acc = params.zeros_like()
    for ex, t in zip(examples, targets):
        _, returned = backward(params, config, *ex, t, grads=acc)
        assert returned is acc
    for name in acc:
        np.testing.assert_allclose(acc[name], fresh[0][name] + fresh[1][name],
                                   rtol=0.0, atol=1e-12, err_msg=name)

    for enc, seq_index in (("enc1", 0), ("enc2", 1)):
        hit = np.zeros(config.vocab_size, dtype=bool)
        for ex in examples:
            hit[ex[seq_index]] = True
        assert not hit.all()
        assert (acc[f"{enc}.tok_emb"][~hit] == 0.0).all(), enc
