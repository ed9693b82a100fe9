"""Hot numeric kernels, in numpy. All kernels operate on float64 arrays.

Two rules hold for every kernel, and ``tests/test_kernels.py`` checks both:
a kernel never writes into its arguments (``adam_update`` excepted, whose
job is to update ``p``, ``m`` and ``v``), and its results equal bitwise
those of its plain expression, one temporary per operation. The kernels
evaluate the same operations in the same order, but into a few temporaries
of their own through ``out=`` and in-place operators. Row means are
``np.add.reduce(x, axis=-1, keepdims=True) / d`` and column sums
``np.add.reduce(x, axis=0)``: the same reductions as ``.mean`` and ``.sum``,
without their Python wrappers.

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
    e = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def masked_softmax_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    g = dprobs * probs
    row = np.add.reduce(g, axis=-1, keepdims=True)
    np.subtract(dprobs, row, out=g)
    g *= probs
    return g


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    y = xhat * xhat
    rstd = np.add.reduce(y, axis=-1, keepdims=True) / d
    rstd += eps
    np.sqrt(rstd, out=rstd)
    np.divide(1.0, rstd, out=rstd)
    xhat *= rstd
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, xhat, rstd[:, 0]


def layer_norm_grad(dy: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, rstd: np.ndarray):
    d = dy.shape[-1]
    dx = dy * gamma  # dxhat until it is scaled
    t = dx * xhat
    m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
    dx -= m1
    np.multiply(xhat, m2, out=t)
    dx -= t
    dx *= rstd[:, None]
    np.multiply(dy, xhat, out=t)
    return dx, np.add.reduce(t, axis=0), np.add.reduce(dy, axis=0)


# Powers are written as products: numpy evaluates a float ``x ** 3`` with
# ``pow`` per element, which costs about ten times the rest of the GELU.

def gelu(x: np.ndarray) -> np.ndarray:
    """``0.5 * x * (1 + tanh(C * (x + A * x**3)))``."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    out = np.multiply(x, 0.5)
    out *= t
    return out


def gelu_grad(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``dy * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner)``, where ``t``
    is the forward pass's tanh and ``dinner = C * (1 + 3 * A * x**2)``."""
    dinner = x * x
    t = dinner * x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    dinner *= 3.0 * _GELU_A
    dinner += 1.0
    dinner *= _GELU_C
    slope = np.multiply(x, 0.5)
    u = t * t
    np.subtract(1.0, u, out=u)
    slope *= u
    slope *= dinner
    t += 1.0
    t *= 0.5
    t += slope
    t *= dy
    return t


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
