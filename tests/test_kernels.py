"""The numpy kernels against their plain reference expressions."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

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
    tanh = np.empty_like(x)
    kernels.gelu(x, tanh=tanh)
    np.testing.assert_allclose(
        kernels.gelu_grad(dy, x, tanh), _reference_gelu_grad(dy, x),
        rtol=1e-14, atol=1e-15,
    )


def test_masked_softmax_bitwise_equals_plain_softmax():
    scores = np.random.default_rng(0).normal(size=(3, 6, 7))
    e = np.exp(scores - scores.max(-1, keepdims=True))
    assert np.array_equal(kernels.masked_softmax(scores), e / e.sum(-1, keepdims=True))


def test_masked_softmax_finite_for_large_scores():
    scores = np.random.default_rng(1).choice([-1e3, 1e3], size=(2, 5, 5))
    scores[0, 0] = 1e3  # a row of ties
    probs = kernels.masked_softmax(scores)
    assert np.isfinite(probs).all()
    assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-12


def test_adam_update_bitwise_equals_one_line_expression():
    rng = np.random.default_rng(2)
    n = 512
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 1e-3
    p = rng.normal(size=n)
    m = np.zeros(n)
    v = np.zeros(n)
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    scratch = kernels.adam_scratch(n)  # one for all 50 steps, as AdamOptimizer keeps it
    for t in range(1, 51):
        # magnitudes from 1e-8 to 1e2, both signs
        g = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 2.0, n)
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        kernels.adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2, scratch=scratch)
        ref_m *= beta1
        ref_m += (1.0 - beta1) * g
        ref_v *= beta2
        ref_v += (1.0 - beta2) * g * g
        ref_p -= lr * (ref_m / bc1) / (np.sqrt(ref_v / bc2) + eps)
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v), t
        assert np.array_equal(p, ref_p), t


def test_adam_update_scratch_is_smaller_than_one_vector():
    n = 1 << 17
    p, g, m, v = (np.full(n, x) for x in (1.0, 0.5, 0.1, 0.2))
    tracemalloc.start()
    try:
        kernels.adam_update(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.nbytes


def test_adam_update_blocks_equal_one_pass():
    n = 2 * kernels._ADAM_BLOCK + 3  # two full blocks and a partial one
    rng = np.random.default_rng(3)
    p, g, m = rng.normal(size=(3, n))
    v = rng.random(n)
    ref_p, ref_m, ref_v = p.copy(), m.copy(), v.copy()
    kernels.adam_update(p, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
    ref_m *= 0.9
    ref_m += (1.0 - 0.9) * g
    ref_v *= 0.999
    ref_v += (1.0 - 0.999) * g * g
    ref_p -= 1e-3 * (ref_m / 0.1) / (np.sqrt(ref_v / 0.001) + 1e-8)
    assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)
    assert np.array_equal(p, ref_p)


# The kernels as plain expressions, one temporary per operation. The in-place
# kernels must equal these bitwise.

def _plain_masked_softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _plain_masked_softmax_grad(probs, dprobs):
    row = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - row)


def _plain_layer_norm(x, gamma, beta, eps):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * rstd
    return xhat * gamma + beta, xhat, rstd[:, 0]


def _plain_layer_norm_grad(dy, gamma, xhat, rstd):
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (dxhat - m1 - xhat * m2) * rstd[:, None]


def _plain_tanh(x):
    return np.tanh(_C * (x + _A * (x * x * x)))


def _plain_gelu(x):
    return 0.5 * x * (1.0 + _plain_tanh(x))


def _plain_gelu_grad(dy, x, t):
    dinner = _C * (1.0 + 3.0 * _A * (x * x))
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _mixed(rng, shape, top=3.0):
    """Both signs, magnitudes from 1e-3 up to 10**top."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, top, shape)


def _kernel_cases(rows, width):
    """(kernel, plain expression, arguments) for every kernel at one shape."""
    rng = np.random.default_rng(rows * 1000 + width)
    x = _mixed(rng, (rows, width))
    dy = _mixed(rng, (rows, width))
    gamma, beta = _mixed(rng, (2, width), top=1.0)
    probs = _plain_masked_softmax(_mixed(rng, (rows, width)))
    _, xhat, rstd = _plain_layer_norm(x, gamma, beta, 1e-5)
    return [
        (kernels.masked_softmax, _plain_masked_softmax, (x,)),
        (kernels.masked_softmax_grad, _plain_masked_softmax_grad, (probs, dy)),
        (kernels.layer_norm, _plain_layer_norm, (x, gamma, beta, 1e-5)),
        (kernels.layer_norm_grad, _plain_layer_norm_grad, (dy, gamma, xhat, rstd)),
        (kernels.gelu, _plain_gelu, (x,)),
        (kernels.gelu_grad, _plain_gelu_grad, (dy, x, _plain_tanh(x))),
    ]


def _as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


def _buffers(kernel, want):
    """The keyword form: ``out`` shaped as the plain results, and ``scratch``
    where the kernel takes one, all NaN so that a value left unwritten shows.
    Each is the head of a larger array, as the network's workspace passes it."""
    out = tuple(np.full(2 * w.size, np.nan)[: w.size].reshape(w.shape) for w in want)
    kwargs = {"out": out if len(out) > 1 else out[0]}
    if "scratch" in inspect.signature(kernel).parameters:
        kwargs["scratch"] = np.full(4 * want[0].size, np.nan)
    return kwargs


@pytest.mark.parametrize("rows", [1, 49])
@pytest.mark.parametrize("width", [8, 32, 128])
def test_kernels_bitwise_equal_plain_expressions(rows, width):
    """Each kernel, allocating and with ``out``/``scratch``."""
    for kernel, plain, args in _kernel_cases(rows, width):
        want = _as_tuple(plain(*args))
        for kwargs in ({}, _buffers(kernel, want)):
            got = _as_tuple(kernel(*args, **kwargs))
            assert len(got) == len(want), kernel.__name__
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w), kernel.__name__
            if kwargs:  # the results are the given out arrays themselves
                assert all(g is o for g, o in zip(got, _as_tuple(kwargs["out"]))), kernel.__name__


@pytest.mark.parametrize("rows", [1, 49])
def test_kernels_leave_their_arguments_unchanged(rows):
    """Each kernel, allocating and with ``out``/``scratch``."""
    for kernel, plain, args in _kernel_cases(rows, 32):
        before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        for kwargs in ({}, _buffers(kernel, _as_tuple(plain(*args)))):
            result = _as_tuple(kernel(*args, **kwargs))
            for a, b in zip(args, before):
                assert np.array_equal(a, b), kernel.__name__
            for r in result:  # no result is a view of an argument
                assert not any(np.shares_memory(r, a) for a in args
                               if isinstance(a, np.ndarray)), kernel.__name__


@pytest.mark.parametrize("rows", [1, 49])
@pytest.mark.parametrize("width", [8, 128])
def test_gelu_writes_the_tanh_of_its_plain_expression(rows, width):
    """``gelu``'s ``tanh=`` array, allocating and with ``out``/``scratch``:
    the result is unchanged, ``x`` is left as it was, and the array holds
    the tanh that ``gelu_grad`` reads, bitwise."""
    x = _mixed(np.random.default_rng(rows * 1000 + width), (rows, width))
    before = x.copy()
    for kwargs in ({}, _buffers(kernels.gelu, (_plain_gelu(x),))):
        tanh = np.full(2 * x.size, np.nan)[: x.size].reshape(x.shape)
        got = kernels.gelu(x, tanh=tanh, **kwargs)
        assert np.array_equal(got, _plain_gelu(x))
        assert np.array_equal(tanh, _plain_tanh(x))
        assert np.array_equal(x, before)
        assert not np.shares_memory(got, tanh) and not np.shares_memory(tanh, x)
