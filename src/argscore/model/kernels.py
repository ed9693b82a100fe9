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


def masked_softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis. Every key is real, so nothing is masked:
    the name is kept because it is the benchmark's span name for this kernel."""
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


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


_ADAM_BLOCK = 1 << 15  # elements: 256 KB per scratch array


def adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, beta1: float, beta2: float, eps: float, bc1: float, bc2: float,
) -> None:
    """In-place Adam step on flat float64 vectors; bc1/bc2 are the bias
    corrections 1 - beta^t.

    Computes ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` operation for
    operation, so the result is bitwise that of the plain expression, but
    block by block through two scratch arrays of ``_ADAM_BLOCK`` elements
    instead of its five full-size temporaries. A full-size scratch allocated
    on every step raised the default-size benchmark's peak RSS by 8 to 16%."""
    scratch = np.empty((2, min(p.size, _ADAM_BLOCK)))
    for start in range(0, p.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        a, b = scratch[:, : pb.size]
        np.multiply(gb, 1.0 - beta1, out=a)
        mb *= beta1
        mb += a
        np.multiply(gb, 1.0 - beta2, out=b)
        b *= gb
        vb *= beta2
        vb += b
        np.divide(mb, bc1, out=a)
        a *= lr
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += eps
        a /= b
        pb -= a
