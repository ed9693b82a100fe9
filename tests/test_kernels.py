"""The numpy kernels against their plain reference expressions."""

import math

import numpy as np

from argscore.model import kernels

_C = math.sqrt(2.0 / math.pi)
_A = 0.044715


def _reference_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_C * (x + _A * x ** 3)))


def _reference_gelu_grad(dy, x):
    t = np.tanh(_C * (x + _A * x ** 3))
    dinner = _C * (1.0 + 3.0 * _A * x ** 2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _gelu_inputs():
    rng = np.random.default_rng(0)
    special = np.array([0.0, 1e-8, -1e-8, 10.0, -10.0, 1.0, -1.0])
    grid = np.linspace(-10.0, 10.0, 2001)
    x = np.concatenate([special, grid, rng.uniform(-10.0, 10.0, 2000)])
    return x.reshape(-1, 8)


def test_gelu_matches_power_form():
    x = _gelu_inputs()
    np.testing.assert_allclose(
        kernels.gelu(x), _reference_gelu(x), rtol=1e-14, atol=1e-15
    )


def test_gelu_grad_matches_power_form():
    x = _gelu_inputs()
    dy = np.random.default_rng(1).normal(size=x.shape)
    np.testing.assert_allclose(
        kernels.gelu_grad(dy, x), _reference_gelu_grad(dy, x),
        rtol=1e-14, atol=1e-15,
    )


def test_masked_softmax_masked_keys_get_exactly_zero():
    scores = np.random.default_rng(0).normal(size=(3, 6, 6))
    mask = np.array([1.0, 1, 0, 1, 0, 1])
    probs = kernels.masked_softmax(scores, mask)
    assert (probs[:, :, mask == 0] == 0).all()


def test_adam_update_bitwise_equals_one_line_expression():
    rng = np.random.default_rng(2)
    n = 512
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
    p = rng.normal(size=n)
    m = np.zeros(n)
    v = np.zeros(n)
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    for t in range(1, 51):
        # magnitudes from 1e-8 to 1e2, both signs
        g = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 2.0, n)
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        kernels.adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2)
        ref_m *= beta1
        ref_m += (1.0 - beta1) * g
        ref_v *= beta2
        ref_v += (1.0 - beta2) * g * g
        ref_p -= lr * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + eps)
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v), t
        assert np.array_equal(p, ref_p), t
