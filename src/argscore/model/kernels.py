"""Hot numeric kernels with two interchangeable backends.

The JIT path (numba) and the pure-numpy path implement identical math; the
active backend is chosen at import time. Set ``ARGSCORE_NO_NUMBA=1`` to force
the numpy fallback (also used automatically when numba is not installed).
All kernels operate on float64 arrays.

The ``kernels.*`` spans of ``python3 benchmarks/run.py --trace 1`` time each
kernel of the active backend per call and per round.
"""

from __future__ import annotations

import math
import os

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


# -- pure numpy backend --

def _np_masked_softmax(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
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


def _np_masked_softmax_grad(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    row = (dprobs * probs).sum(axis=-1, keepdims=True)
    return probs * (dprobs - row)


def _np_layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * rstd
    return xhat * gamma + beta, xhat, rstd[:, 0]


def _np_layer_norm_grad(dy: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, rstd: np.ndarray):
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * rstd[:, None]
    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    return dx, dgamma, dbeta


# Powers are written as products: numpy evaluates a float ``x ** 3`` with
# ``pow`` per element, which costs about ten times the rest of the GELU.

def _np_gelu(x: np.ndarray) -> np.ndarray:
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def _np_gelu_grad(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    x2 = x * x
    inner = _GELU_C * (x + _GELU_A * (x2 * x))
    t = np.tanh(inner)
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def _np_adam_update(
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


NUMPY_KERNELS = {
    "masked_softmax": _np_masked_softmax,
    "masked_softmax_grad": _np_masked_softmax_grad,
    "layer_norm": _np_layer_norm,
    "layer_norm_grad": _np_layer_norm_grad,
    "gelu": _np_gelu,
    "gelu_grad": _np_gelu_grad,
    "adam_update": _np_adam_update,
}


# -- numba backend --

def _numba_disabled() -> bool:
    return os.environ.get("ARGSCORE_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}


NUMBA_KERNELS: dict | None = None
try:
    from numba import njit

    @njit(cache=True)
    def _nb_masked_softmax(scores, key_mask):
        n_heads, n_q, n_k = scores.shape
        out = np.zeros((n_heads, n_q, n_k))
        for h in range(n_heads):
            for i in range(n_q):
                mx = -np.inf
                for j in range(n_k):
                    if key_mask[j] > 0.0 and scores[h, i, j] > mx:
                        mx = scores[h, i, j]
                if mx == -np.inf:
                    continue
                s = 0.0
                for j in range(n_k):
                    if key_mask[j] > 0.0:
                        e = math.exp(scores[h, i, j] - mx)
                        out[h, i, j] = e
                        s += e
                inv = 1.0 / s
                for j in range(n_k):
                    out[h, i, j] *= inv
        return out

    @njit(cache=True)
    def _nb_masked_softmax_grad(probs, dprobs):
        n_heads, n_q, n_k = probs.shape
        out = np.empty((n_heads, n_q, n_k))
        for h in range(n_heads):
            for i in range(n_q):
                row = 0.0
                for j in range(n_k):
                    row += dprobs[h, i, j] * probs[h, i, j]
                for j in range(n_k):
                    out[h, i, j] = probs[h, i, j] * (dprobs[h, i, j] - row)
        return out

    @njit(cache=True)
    def _nb_layer_norm(x, gamma, beta, eps):
        n, d = x.shape
        y = np.empty((n, d))
        xhat = np.empty((n, d))
        rstd = np.empty(n)
        for i in range(n):
            mean = 0.0
            for j in range(d):
                mean += x[i, j]
            mean /= d
            var = 0.0
            for j in range(d):
                diff = x[i, j] - mean
                var += diff * diff
            var /= d
            r = 1.0 / math.sqrt(var + eps)
            rstd[i] = r
            for j in range(d):
                xh = (x[i, j] - mean) * r
                xhat[i, j] = xh
                y[i, j] = xh * gamma[j] + beta[j]
        return y, xhat, rstd

    @njit(cache=True)
    def _nb_layer_norm_grad(dy, gamma, xhat, rstd):
        n, d = dy.shape
        dx = np.empty((n, d))
        dgamma = np.zeros(d)
        dbeta = np.zeros(d)
        for i in range(n):
            m1 = 0.0
            m2 = 0.0
            for j in range(d):
                dxh = dy[i, j] * gamma[j]
                m1 += dxh
                m2 += dxh * xhat[i, j]
            m1 /= d
            m2 /= d
            for j in range(d):
                dxh = dy[i, j] * gamma[j]
                dx[i, j] = (dxh - m1 - xhat[i, j] * m2) * rstd[i]
                dgamma[j] += dy[i, j] * xhat[i, j]
                dbeta[j] += dy[i, j]
        return dx, dgamma, dbeta

    @njit(cache=True)
    def _nb_gelu(x):
        n, d = x.shape
        y = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                xv = x[i, j]
                inner = _GELU_C * (xv + _GELU_A * xv * xv * xv)
                y[i, j] = 0.5 * xv * (1.0 + math.tanh(inner))
        return y

    @njit(cache=True)
    def _nb_gelu_grad(dy, x):
        n, d = x.shape
        dx = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                xv = x[i, j]
                inner = _GELU_C * (xv + _GELU_A * xv * xv * xv)
                t = math.tanh(inner)
                dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xv * xv)
                dx[i, j] = dy[i, j] * (0.5 * (1.0 + t) + 0.5 * xv * (1.0 - t * t) * dinner)
        return dx

    @njit(cache=True)
    def _nb_adam_update(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
        for i in range(p.shape[0]):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
            p[i] -= lr * (m[i] / bc1) / (math.sqrt(v[i] / bc2) + eps)

    NUMBA_KERNELS = {
        "masked_softmax": _nb_masked_softmax,
        "masked_softmax_grad": _nb_masked_softmax_grad,
        "layer_norm": _nb_layer_norm,
        "layer_norm_grad": _nb_layer_norm_grad,
        "gelu": _nb_gelu,
        "gelu_grad": _nb_gelu_grad,
        "adam_update": _nb_adam_update,
    }
except ImportError:
    NUMBA_KERNELS = None


USING_NUMBA = NUMBA_KERNELS is not None and not _numba_disabled()
_ACTIVE = NUMBA_KERNELS if USING_NUMBA else NUMPY_KERNELS

masked_softmax = _ACTIVE["masked_softmax"]
masked_softmax_grad = _ACTIVE["masked_softmax_grad"]
layer_norm = _ACTIVE["layer_norm"]
layer_norm_grad = _ACTIVE["layer_norm_grad"]
gelu = _ACTIVE["gelu"]
gelu_grad = _ACTIVE["gelu_grad"]
adam_update = _ACTIVE["adam_update"]


def warmup() -> None:
    """Trigger JIT compilation on tiny inputs so timings exclude compile cost."""
    x = np.zeros((2, 4))
    gamma = np.ones(4)
    beta = np.zeros(4)
    scores = np.zeros((1, 2, 2))
    mask = np.ones(2)
    probs = masked_softmax(scores, mask)
    masked_softmax_grad(probs, scores)
    y, xhat, rstd = layer_norm(x, gamma, beta, 1e-5)
    layer_norm_grad(y, gamma, xhat, rstd)
    gelu_grad(gelu(x), x)
    flat = np.zeros(4)
    adam_update(flat.copy(), flat, flat.copy(), flat.copy(), 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001)
