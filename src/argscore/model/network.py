"""Dual-encoder regression network: forward pass and exact analytic gradients.

One encoder reads the topic/argument sequence, the other reads the generated
context sequence. Multi-head cross-attention (queries from the first encoder's
token states, keys and values from the second's) is added residually onto the
first encoder's states; the result is mean-pooled over all positions and fed
to three affine heads, one per quality metric.

There is no padding and no attention mask: a sequence is its own length, and
every position of it is real. An empty context sequence skips the context
encoder and the cross-attention, so the model reduces to the first encoder
alone. Single mode is that first encoder alone: it has no context encoder or
cross-attention, and its context sequence must be empty.

Each dropout mask is drawn at ``max_seq_len`` rows and cut to the sequence's
length, so the seeded stream does not depend on how long a sequence is.

Everything is float64. Encoders are pre-norm transformer blocks with learned
absolute positional embeddings and a GELU feed-forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from argscore.model import kernels
from argscore.model.config import ModelConfig

LN_EPS = 1e-5
HEAD_NAMES = ("cogency", "effectiveness", "reasonableness")


class ShapeMismatch(Exception):
    pass


class ModelParameters(dict):
    """Every parameter tensor, by name, as a view of one float64 vector.

    ``flat`` holds the tensors back to back, C order, in the order of
    ``shapes`` (that of ``parameter_shapes``), as a checkpoint's ``params.bin``
    does. So a whole-model operation, such as an Adam step, is one operation
    on ``flat``. ``zeros_like`` gives gradients the same layout."""

    def __init__(self, flat: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        super().__init__()
        size = parameter_count(shapes)
        if flat.shape != (size,):
            raise ShapeMismatch(f"flat vector has shape {flat.shape}, the layout needs ({size},)")
        offset = 0
        for name, shape in shapes.items():
            count = math.prod(shape)
            self[name] = flat[offset : offset + count].reshape(shape)
            offset += count
        self.flat = flat
        self.shapes = shapes

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.flat.copy(), self.shapes)

    def zeros_like(self) -> "ModelParameters":
        return ModelParameters(np.zeros_like(self.flat), self.shapes)


@dataclass
class ForwardTrace:
    """Intermediate quantities exposed for inspection and tests."""

    enc1_states: np.ndarray
    enc2_states: Optional[np.ndarray]
    enc1_self_attn: list[np.ndarray] = field(default_factory=list)
    enc2_self_attn: list[np.ndarray] = field(default_factory=list)
    cross_attn: Optional[np.ndarray] = None
    pooled: np.ndarray = None
    outputs: np.ndarray = None


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in the one fixed order that
    initialisation draws in and checkpoints store. Single mode never reads
    the context encoder, so it has no ``enc2.*`` or ``cross.*`` tensors."""
    d = config.model_dim
    f = config.ffn_dim
    attention = {"wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
                 "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,)}
    shapes: dict[str, tuple[int, ...]] = {}
    dual = config.mode == "dual"
    for enc in ("enc1", "enc2") if dual else ("enc1",):
        shapes[f"{enc}.tok_emb"] = (config.vocab_size, d)
        shapes[f"{enc}.pos_emb"] = (config.max_seq_len, d)
        for layer in range(config.num_layers):
            base = f"{enc}.layer{layer}"
            shapes[f"{base}.ln1.gamma"] = (d,)
            shapes[f"{base}.ln1.beta"] = (d,)
            shapes.update({f"{base}.attn.{w}": s for w, s in attention.items()})
            shapes[f"{base}.ln2.gamma"] = (d,)
            shapes[f"{base}.ln2.beta"] = (d,)
            shapes[f"{base}.ffn.w1"] = (d, f)
            shapes[f"{base}.ffn.b1"] = (f,)
            shapes[f"{base}.ffn.w2"] = (f, d)
            shapes[f"{base}.ffn.b2"] = (d,)
        shapes[f"{enc}.final_ln.gamma"] = (d,)
        shapes[f"{enc}.final_ln.beta"] = (d,)
    if dual:
        shapes.update({f"cross.{w}": s for w, s in attention.items()})
    for head in HEAD_NAMES:
        shapes[f"head.{head}.w"] = (d,)
        shapes[f"head.{head}.b"] = (1,)
    return shapes


def parameter_count(shapes: dict[str, tuple[int, ...]]) -> int:
    """Length of the flat vector that holds tensors of these shapes."""
    return sum(math.prod(shape) for shape in shapes.values())


def init_parameters(config: ModelConfig, seed: int = 0) -> ModelParameters:
    """Weights ~ N(0, 0.02), biases and layer-norm shifts zero, scales one.
    Draw order follows ``parameter_shapes`` so initialization is bit-stable."""
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(config)
    params = ModelParameters(np.zeros(parameter_count(shapes)), shapes)
    for name, tensor in params.items():
        if name.endswith(".gamma"):
            tensor[...] = 1.0
        elif not name.rsplit(".", 1)[1].startswith("b"):  # not a bias or a beta
            tensor[...] = rng.normal(0.0, 0.02, size=tensor.shape)
    return params


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def _dropout_mask(rng: np.random.Generator, n: int, config: ModelConfig) -> np.ndarray:
    """Inverted-dropout mask for ``n`` positions, the first ``n`` rows of a
    ``(max_seq_len, model_dim)`` draw."""
    rate = config.dropout_rate
    keep = rng.random((config.max_seq_len, config.model_dim))[:n] >= rate
    return keep / (1.0 - rate)


def _attention(p, prefix, xq, xkv, num_heads):
    """Shared multi-head attention; returns output and backward cache."""
    wq, bq = p[f"{prefix}.wq"], p[f"{prefix}.bq"]
    wk, bk = p[f"{prefix}.wk"], p[f"{prefix}.bk"]
    wv, bv = p[f"{prefix}.wv"], p[f"{prefix}.bv"]
    wo, bo = p[f"{prefix}.wo"], p[f"{prefix}.bo"]
    q = xq @ wq + bq
    k = xkv @ wk + bk
    v = xkv @ wv + bv
    qh = _split_heads(q, num_heads)
    kh = _split_heads(k, num_heads)
    vh = _split_heads(v, num_heads)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    probs = kernels.masked_softmax(np.ascontiguousarray(scores))
    ctx = _merge_heads(np.matmul(probs, vh))
    out = ctx @ wo + bo
    cache = {
        "xq": xq, "xkv": xkv, "qh": qh, "kh": kh, "vh": vh,
        "probs": probs, "ctx": ctx, "scale": scale, "num_heads": num_heads,
    }
    return out, cache


def _attention_backward(p, prefix, cache, dout, grads):
    """Returns (dxq, dxkv) and accumulates parameter gradients."""
    wq, wk, wv, wo = p[f"{prefix}.wq"], p[f"{prefix}.wk"], p[f"{prefix}.wv"], p[f"{prefix}.wo"]
    xq, xkv = cache["xq"], cache["xkv"]
    qh, kh, vh = cache["qh"], cache["kh"], cache["vh"]
    probs, ctx, scale = cache["probs"], cache["ctx"], cache["scale"]
    num_heads = cache["num_heads"]

    grads[f"{prefix}.wo"] += ctx.T @ dout
    grads[f"{prefix}.bo"] += dout.sum(axis=0)
    dctx = dout @ wo.T
    dctx_h = _split_heads(dctx, num_heads)
    dprobs = np.matmul(dctx_h, vh.transpose(0, 2, 1))
    dvh = np.matmul(probs.transpose(0, 2, 1), dctx_h)
    dscores = kernels.masked_softmax_grad(probs, np.ascontiguousarray(dprobs))
    dqh = np.matmul(dscores, kh) * scale
    dkh = np.matmul(dscores.transpose(0, 2, 1), qh) * scale
    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    grads[f"{prefix}.wq"] += xq.T @ dq
    grads[f"{prefix}.bq"] += dq.sum(axis=0)
    grads[f"{prefix}.wk"] += xkv.T @ dk
    grads[f"{prefix}.bk"] += dk.sum(axis=0)
    grads[f"{prefix}.wv"] += xkv.T @ dv
    grads[f"{prefix}.bv"] += dv.sum(axis=0)
    dxq = dq @ wq.T
    dxkv = dk @ wk.T + dv @ wv.T
    return dxq, dxkv


def _encoder_forward(p, enc, ids, config, rng, dropout_on):
    n = ids.shape[0]
    x = p[f"{enc}.tok_emb"][ids] + p[f"{enc}.pos_emb"][:n]
    cache: dict = {"ids": ids, "layers": [], "attn_probs": []}
    if dropout_on:
        dm = _dropout_mask(rng, n, config)
        cache["dm_emb"] = dm
        x = x * dm
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        y1, xh1, rstd1 = kernels.layer_norm(
            x, p[f"{base}.ln1.gamma"], p[f"{base}.ln1.beta"], LN_EPS
        )
        attn_out, ac = _attention(p, f"{base}.attn", y1, y1, config.num_heads)
        lc: dict = {"xh1": xh1, "rstd1": rstd1, "attn": ac}
        cache["attn_probs"].append(ac["probs"])
        if dropout_on:
            lc["dm_attn"] = _dropout_mask(rng, n, config)
            attn_out = attn_out * lc["dm_attn"]
        x = x + attn_out
        y2, xh2, rstd2 = kernels.layer_norm(
            x, p[f"{base}.ln2.gamma"], p[f"{base}.ln2.beta"], LN_EPS
        )
        lc["y2"], lc["xh2"], lc["rstd2"] = y2, xh2, rstd2
        h1 = y2 @ p[f"{base}.ffn.w1"] + p[f"{base}.ffn.b1"]
        a = kernels.gelu(h1)
        f = a @ p[f"{base}.ffn.w2"] + p[f"{base}.ffn.b2"]
        lc["h1"], lc["a"] = h1, a
        if dropout_on:
            lc["dm_ffn"] = _dropout_mask(rng, n, config)
            f = f * lc["dm_ffn"]
        x = x + f
        cache["layers"].append(lc)
    out, xhf, rstdf = kernels.layer_norm(
        x, p[f"{enc}.final_ln.gamma"], p[f"{enc}.final_ln.beta"], LN_EPS
    )
    cache["xhf"], cache["rstdf"] = xhf, rstdf
    return out, cache


def _encoder_backward(p, enc, config, cache, dout, grads):
    dx, dgf, dbf = kernels.layer_norm_grad(
        dout, p[f"{enc}.final_ln.gamma"], cache["xhf"], cache["rstdf"]
    )
    grads[f"{enc}.final_ln.gamma"] += dgf
    grads[f"{enc}.final_ln.beta"] += dbf
    for layer in reversed(range(config.num_layers)):
        base = f"{enc}.layer{layer}"
        lc = cache["layers"][layer]
        df = dx * lc["dm_ffn"] if "dm_ffn" in lc else dx
        grads[f"{base}.ffn.w2"] += lc["a"].T @ df
        grads[f"{base}.ffn.b2"] += df.sum(axis=0)
        da = df @ p[f"{base}.ffn.w2"].T
        dh1 = kernels.gelu_grad(da, lc["h1"])
        grads[f"{base}.ffn.w1"] += lc["y2"].T @ dh1
        grads[f"{base}.ffn.b1"] += dh1.sum(axis=0)
        dy2 = dh1 @ p[f"{base}.ffn.w1"].T
        dx1_ln, dg2, db2 = kernels.layer_norm_grad(
            dy2, p[f"{base}.ln2.gamma"], lc["xh2"], lc["rstd2"]
        )
        grads[f"{base}.ln2.gamma"] += dg2
        grads[f"{base}.ln2.beta"] += db2
        dx1 = dx + dx1_ln
        dattn = dx1 * lc["dm_attn"] if "dm_attn" in lc else dx1
        # self-attention: queries and keys/values are the same states
        dy1q, dy1kv = _attention_backward(p, f"{base}.attn", lc["attn"], dattn, grads)
        dy1 = dy1q + dy1kv
        dx0_ln, dg1, db1 = kernels.layer_norm_grad(
            dy1, p[f"{base}.ln1.gamma"], lc["xh1"], lc["rstd1"]
        )
        grads[f"{base}.ln1.gamma"] += dg1
        grads[f"{base}.ln1.beta"] += db1
        dx = dx1 + dx0_ln
    if "dm_emb" in cache:
        dx = dx * cache["dm_emb"]
    np.add.at(grads[f"{enc}.tok_emb"], cache["ids"], dx)
    grads[f"{enc}.pos_emb"][: dx.shape[0]] += dx


def _check_inputs(config, seq1, seq2):
    for name, seq in (("seq1", seq1), ("seq2", seq2)):
        if seq.ndim != 1:
            raise ShapeMismatch(f"{name}: ids must be 1-d")
        if seq.shape[0] > config.max_seq_len:
            raise ShapeMismatch(
                f"{name}: length {seq.shape[0]} exceeds max_seq_len {config.max_seq_len}"
            )
    if seq1.shape[0] == 0:
        raise ShapeMismatch("seq1 must not be empty")
    if config.mode == "single" and seq2.shape[0] > 0:
        raise ShapeMismatch("seq2 must be empty in single mode")


def _forward_internal(p, config, seq1, seq2, dropout_on, rng_seed):
    _check_inputs(config, seq1, seq2)
    rng = np.random.default_rng(rng_seed) if dropout_on else None
    enc1_out, c1 = _encoder_forward(p, "enc1", seq1, config, rng, dropout_on)
    cache: dict = {"c1": c1}
    has_context = seq2.shape[0] > 0
    cross_probs = None
    enc2_out = None
    if has_context:
        enc2_out, c2 = _encoder_forward(p, "enc2", seq2, config, rng, dropout_on)
        cross_out, cx = _attention(p, "cross", enc1_out, enc2_out, config.num_cross_heads)
        cross_probs = cx["probs"]
        cache["c2"], cache["cx"] = c2, cx
        if dropout_on:
            cache["dm_cross"] = _dropout_mask(rng, seq1.shape[0], config)
            cross_out = cross_out * cache["dm_cross"]
        fused = enc1_out + cross_out
    else:
        fused = enc1_out
    pooled = fused.sum(axis=0) / seq1.shape[0]
    outputs = np.empty(3)
    for i, head in enumerate(HEAD_NAMES):
        outputs[i] = pooled @ p[f"head.{head}.w"] + p[f"head.{head}.b"][0]
    cache["pooled"] = pooled
    trace = ForwardTrace(
        enc1_states=enc1_out,
        enc2_states=enc2_out,
        enc1_self_attn=c1["attn_probs"],
        enc2_self_attn=cache.get("c2", {}).get("attn_probs", []),
        cross_attn=cross_probs,
        pooled=pooled,
        outputs=outputs,
    )
    return trace, cache


def forward(
    params: ModelParameters,
    config: ModelConfig,
    seq1: np.ndarray,
    seq2: np.ndarray,
    dropout_enabled: bool = False,
    rng_seed: int = 0,
) -> ForwardTrace:
    trace, _ = _forward_internal(params, config, seq1, seq2, dropout_enabled, rng_seed)
    return trace


def backward(
    params: ModelParameters,
    config: ModelConfig,
    seq1: np.ndarray,
    seq2: np.ndarray,
    target: np.ndarray,
    dropout_enabled: bool = False,
    rng_seed: int = 0,
    grads: Optional[ModelParameters] = None,
) -> tuple[float, ModelParameters]:
    """Loss (mean squared error over the three heads) and its exact gradient
    for every parameter tensor. Re-runs the forward pass internally, so the
    dropout seed must match the paired forward when dropout is enabled.

    The gradient is added into ``grads``, which is returned; it defaults to a
    fresh ``params.zeros_like()``. One accumulator can thus sum a whole batch,
    and embedding rows no token of the example hits are left untouched."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (3,):
        raise ShapeMismatch(f"target must have shape (3,), got {target.shape}")
    trace, cache = _forward_internal(params, config, seq1, seq2, dropout_enabled, rng_seed)
    if grads is None:
        grads = params.zeros_like()
    diff = trace.outputs - target
    loss = float(np.mean(diff ** 2))
    douts = 2.0 * diff / 3.0

    pooled = cache["pooled"]
    dpooled = np.zeros_like(pooled)
    for i, head in enumerate(HEAD_NAMES):
        grads[f"head.{head}.w"] += douts[i] * pooled
        grads[f"head.{head}.b"] += douts[i]
        dpooled += douts[i] * params[f"head.{head}.w"]

    dfused = np.tile(dpooled / seq1.shape[0], (seq1.shape[0], 1))  # each row pools at 1/n

    denc1 = dfused.copy()
    if "cx" in cache:
        dcross = dfused * cache["dm_cross"] if "dm_cross" in cache else dfused
        dxq, dxkv = _attention_backward(params, "cross", cache["cx"], dcross, grads)
        denc1 += dxq
        _encoder_backward(params, "enc2", config, cache["c2"], dxkv, grads)
    _encoder_backward(params, "enc1", config, cache["c1"], denc1, grads)
    return loss, grads
