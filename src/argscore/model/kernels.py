"""Hot numeric kernels, in numpy. All kernels operate on float64 arrays.

Callers look each kernel up as ``kernels.<name>`` at call time, so the
``kernels.*`` spans of ``python3 benchmarks/run.py --trace 1`` can time each
one per call and per round.
"""

from __future__ import annotations

import math

import numpy as np

# There is no JIT backend; kept because benchmark reports record which one ran.
USING_NUMBA = False

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Row softmax over unmasked keys; masked keys are exactly zero and rows
    with no unmasked key come back all-zero."""
    neg = np.where(key_mask > 0.0, 0.0, -np.inf)
    shifted = scores + neg
    row_max = shifted.max(axis=-1, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    e = np.exp(shifted - row_max)
    denom = e.sum(axis=-1, keepdims=True)
    safe = np.where(denom > 0.0, denom, 1.0)
    return e / safe


def masked_softmax_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    row = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - row)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * rstd
    return xhat * gamma + beta, xhat, rstd[:, 0]


def layer_norm_grad(dy: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, rstd: np.ndarray):
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * rstd[:, None]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    return dx, dgamma, dbeta


# Powers are written as products: numpy evaluates a float ``x ** 3`` with
# ``pow`` per element, which costs about ten times the rest of the GELU.

def gelu(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    x2 = x * x
    inner = _GELU_C * (x + _GELU_A * (x2 * x))
    t = np.tanh(inner)
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, beta1: float, beta2: float, eps: float, bc1: float, bc2: float,
) -> None:
    """In-place Adam step on flat float64 views; bc1/bc2 are the bias
    corrections 1 - beta^t.

    Computes ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` through two
    scratch arrays, operation for operation, so the result is bitwise that
    of the plain expression without its five full-size temporaries."""
    a = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += a
    b = np.multiply(g, 1.0 - beta2)
    b *= g
    v *= beta2
    v += b
    np.divide(m, bc1, out=a)
    a *= lr
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    p -= a
