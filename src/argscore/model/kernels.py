"""Hot numeric kernels, in numpy. All kernels operate on float64 arrays.

Two rules hold for every kernel, and ``tests/test_kernels.py`` checks both:
a kernel writes only into ``out`` and ``scratch`` (``adam_update`` also
updates ``p``, ``m`` and ``v``, which is its job, and ``gelu`` writes its
``tanh``), and its results equal bitwise those of its plain expression, one
temporary per operation. The kernels evaluate the same operations in the same order, but into their
outputs and a few temporaries through ``out=`` and in-place operators. Row
means are ``np.add.reduce(x, axis=-1, keepdims=True) / d`` and column sums
``np.add.reduce(x, axis=0)``: the same reductions as ``.mean`` and ``.sum``,
without their Python wrappers.

``out`` and ``scratch`` are keyword-only and optional. ``out`` takes the
result, or each array of a tuple result, and must have its shape and be
C-contiguous. ``scratch`` is a 1-d array that holds the kernel's one
temporary the size of its first operand (``gelu``, ``gelu_grad`` and
``layer_norm_grad``). Either is allocated when it is not given, so the
network's workspace can pass both and every other caller neither. Only row
statistics, of shape ``(..., 1)``, are still allocated on each call.
``gelu`` also writes its ``tanh`` into a ``tanh=`` array when given one, and
``gelu_grad`` reads it back instead of computing it again.

Callers look each kernel up as ``kernels.<name>`` at call time, so the
``kernels.*`` spans of ``python3 benchmarks/run.py --trace 1`` can time each
one per call and per round; those count positional arrays only.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# There is no JIT backend; kept because benchmark reports record which one ran.
USING_NUMBA = False

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _temporary(scratch: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """An array of ``shape``: a contiguous view of the front of ``scratch``,
    or a new array when there is none."""
    return np.empty(shape) if scratch is None else scratch[: math.prod(shape)].reshape(shape)


def masked_softmax(scores: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis. Every key is real, so nothing is masked:
    the name is kept because it is the benchmark's span name for this kernel."""
    e = np.subtract(scores, np.maximum.reduce(scores, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def masked_softmax_grad(probs: np.ndarray, dprobs: np.ndarray, *,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    g = np.multiply(dprobs, probs, out=out)
    row = np.add.reduce(g, axis=-1, keepdims=True)
    np.subtract(dprobs, row, out=g)
    g *= probs
    return g


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, *,
               out: Optional[tuple] = None):
    """``(y, xhat, rstd)``; ``out`` is that tuple, ``rstd`` of shape ``x.shape[:-1]``."""
    d = x.shape[-1]
    y, xhat, rstd = out or (np.empty_like(x), np.empty_like(x), np.empty(x.shape[:-1]))
    r = rstd[..., None]  # the row mean first, then the reciprocal deviation
    np.add.reduce(x, axis=-1, keepdims=True, out=r)
    r /= d
    np.subtract(x, r, out=xhat)
    np.multiply(xhat, xhat, out=y)
    np.add.reduce(y, axis=-1, keepdims=True, out=r)
    r /= d
    r += eps
    np.sqrt(r, out=r)
    np.divide(1.0, r, out=r)
    xhat *= r
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, xhat, rstd


def layer_norm_grad(dy: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, rstd: np.ndarray, *,
                    out: Optional[np.ndarray] = None,
                    scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``dx``, row by row. The parameters' gradients are column sums, which
    the caller takes over the rows of one example at a time."""
    d = dy.shape[-1]
    t = _temporary(scratch, dy.shape)
    dx = np.multiply(dy, gamma, out=out)  # dxhat until it is scaled
    np.multiply(dx, xhat, out=t)
    m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
    dx -= m1
    np.multiply(xhat, m2, out=t)
    dx -= t
    dx *= rstd[:, None]
    return dx


# Powers are written as products: numpy evaluates a float ``x ** 3`` with
# ``pow`` per element, which costs about ten times the rest of the GELU.

def gelu(x: np.ndarray, *, out: Optional[np.ndarray] = None,
         scratch: Optional[np.ndarray] = None,
         tanh: Optional[np.ndarray] = None) -> np.ndarray:
    """``0.5 * x * (1 + tanh(C * (x + A * x**3)))``; the ``tanh`` goes to
    ``tanh`` when given, for ``gelu_grad``."""
    u = _temporary(scratch, x.shape)
    t = u if tanh is None else tanh
    np.multiply(x, x, out=t)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.add(t, 1.0, out=u)
    out = np.multiply(x, 0.5, out=out)
    out *= u
    return out


def gelu_grad(dy: np.ndarray, x: np.ndarray, tanh: np.ndarray, *,
              out: Optional[np.ndarray] = None,
              scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """``dy * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * dinner)``, where ``t``
    is ``tanh``, the forward pass's, and ``dinner = C * (1 + 3 * A * x**2)``."""
    slope = _temporary(scratch, x.shape)
    np.multiply(x, 0.5, out=slope)
    g = np.multiply(tanh, tanh, out=out)
    np.subtract(1.0, g, out=g)
    slope *= g
    np.multiply(x, x, out=g)  # dinner
    g *= 3.0 * _GELU_A
    g += 1.0
    g *= _GELU_C
    slope *= g
    np.add(tanh, 1.0, out=g)
    g *= 0.5
    g += slope
    g *= dy
    return g


_ADAM_BLOCK = 1 << 15  # elements: 256 KB per scratch array


def adam_scratch(size: int) -> np.ndarray:
    """The two blocks of scratch that ``adam_update`` on vectors of ``size`` uses."""
    return np.empty((2, min(size, _ADAM_BLOCK)))


def adam_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, beta1: float, beta2: float, eps: float, bc1: float, bc2: float, *,
    scratch: Optional[np.ndarray] = None,
) -> None:
    """In-place Adam step on flat float64 vectors; bc1/bc2 are the bias
    corrections 1 - beta^t.

    Computes ``p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)`` operation for
    operation, so the result is bitwise that of the plain expression, but
    block by block through the two rows of ``scratch`` (``adam_scratch``,
    made here when not given) instead of its five full-size temporaries. A
    full-size scratch allocated on every step raised the default-size
    benchmark's peak RSS by 8 to 16%."""
    if scratch is None:
        scratch = adam_scratch(p.size)
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
