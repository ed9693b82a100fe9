"""Dual-encoder regression network: forward pass and exact analytic gradients.

One encoder reads the topic/argument sequence, the other reads the generated
context sequence. Multi-head cross-attention (queries from the first encoder's
token states, keys and values from the second's) is added residually onto the
first encoder's states; the result is mean-pooled over unmasked positions and
fed to three affine heads, one per quality metric. When the context sequence
is fully masked the cross-attention term is exactly zero and the model reduces
to the first encoder alone.

Everything is float64. Encoders are pre-norm transformer blocks with learned
absolute positional embeddings and a GELU feed-forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from argscore.model import kernels
from argscore.model.config import ModelConfig

LN_EPS = 1e-5
HEAD_NAMES = ("cogency", "effectiveness", "reasonableness")


class ShapeMismatch(Exception):
    pass


@dataclass
class ModelParameters:
    """Named tensor store; names are stable and iteration order is fixed."""

    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def copy(self) -> "ModelParameters":
        return ModelParameters({k: v.copy() for k, v in self.tensors.items()})

    def zeros_like(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def all_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.tensors.values())


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


@dataclass
class Prediction:
    raw: tuple[float, float, float]
    clamped: tuple[float, float, float]


def _attention_param_names(prefix: str) -> list[str]:
    return [f"{prefix}.{w}" for w in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]


def parameter_names(config: ModelConfig) -> list[str]:
    names: list[str] = []
    for enc in ("enc1", "enc2"):
        names += [f"{enc}.tok_emb", f"{enc}.pos_emb"]
        for layer in range(config.num_layers):
            base = f"{enc}.layer{layer}"
            names += [f"{base}.ln1.gamma", f"{base}.ln1.beta"]
            names += _attention_param_names(f"{base}.attn")
            names += [f"{base}.ln2.gamma", f"{base}.ln2.beta"]
            names += [f"{base}.ffn.w1", f"{base}.ffn.b1", f"{base}.ffn.w2", f"{base}.ffn.b2"]
        names += [f"{enc}.final_ln.gamma", f"{enc}.final_ln.beta"]
    names += _attention_param_names("cross")
    for head in HEAD_NAMES:
        names += [f"head.{head}.w", f"head.{head}.b"]
    return names


def init_parameters(config: ModelConfig, seed: int = 0) -> ModelParameters:
    """Weights ~ N(0, 0.02), biases and layer-norm shifts zero, scales one.
    Draw order follows ``parameter_names`` so initialization is bit-stable."""
    rng = np.random.default_rng(seed)
    d = config.model_dim
    f = config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {}
    for enc in ("enc1", "enc2"):
        shapes[f"{enc}.tok_emb"] = (config.vocab_size, d)
        shapes[f"{enc}.pos_emb"] = (config.max_seq_len, d)
        for layer in range(config.num_layers):
            base = f"{enc}.layer{layer}"
            shapes[f"{base}.ln1.gamma"] = (d,)
            shapes[f"{base}.ln1.beta"] = (d,)
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"{base}.attn.{w}"] = (d, d)
            for b in ("bq", "bk", "bv", "bo"):
                shapes[f"{base}.attn.{b}"] = (d,)
            shapes[f"{base}.ln2.gamma"] = (d,)
            shapes[f"{base}.ln2.beta"] = (d,)
            shapes[f"{base}.ffn.w1"] = (d, f)
            shapes[f"{base}.ffn.b1"] = (f,)
            shapes[f"{base}.ffn.w2"] = (f, d)
            shapes[f"{base}.ffn.b2"] = (d,)
        shapes[f"{enc}.final_ln.gamma"] = (d,)
        shapes[f"{enc}.final_ln.beta"] = (d,)
    for w in ("wq", "wk", "wv", "wo"):
        shapes[f"cross.{w}"] = (d, d)
    for b in ("bq", "bk", "bv", "bo"):
        shapes[f"cross.{b}"] = (d,)
    for head in HEAD_NAMES:
        shapes[f"head.{head}.w"] = (d,)
        shapes[f"head.{head}.b"] = (1,)

    tensors: dict[str, np.ndarray] = {}
    for name in parameter_names(config):
        shape = shapes[name]
        if name.endswith(".gamma"):
            tensors[name] = np.ones(shape)
        elif name.endswith(".beta") or name.rsplit(".", 1)[1].startswith("b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.normal(0.0, 0.02, size=shape)
    return ModelParameters(tensors)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def _dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _attention(p, prefix, xq, xkv, key_mask, num_heads):
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
    probs = kernels.masked_softmax(np.ascontiguousarray(scores), key_mask)
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


def _encoder_forward(p, enc, ids, mask, config, rng, dropout_on):
    rate = config.dropout_rate
    n = ids.shape[0]
    x = p[f"{enc}.tok_emb"][ids] + p[f"{enc}.pos_emb"][:n]
    cache: dict = {"ids": ids, "mask": mask, "layers": [], "attn_probs": []}
    if dropout_on:
        dm = _dropout_mask(rng, x.shape, rate)
        cache["dm_emb"] = dm
        x = x * dm
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        lc: dict = {"x0": x}
        y1, xh1, rstd1 = kernels.layer_norm(
            x, p[f"{base}.ln1.gamma"], p[f"{base}.ln1.beta"], LN_EPS
        )
        lc["y1"], lc["xh1"], lc["rstd1"] = y1, xh1, rstd1
        attn_out, ac = _attention(p, f"{base}.attn", y1, y1, mask, config.num_heads)
        lc["attn"] = ac
        cache["attn_probs"].append(ac["probs"])
        if dropout_on:
            lc["dm_attn"] = _dropout_mask(rng, attn_out.shape, rate)
            attn_out = attn_out * lc["dm_attn"]
        x = x + attn_out
        lc["x1"] = x
        y2, xh2, rstd2 = kernels.layer_norm(
            x, p[f"{base}.ln2.gamma"], p[f"{base}.ln2.beta"], LN_EPS
        )
        lc["y2"], lc["xh2"], lc["rstd2"] = y2, xh2, rstd2
        h1 = y2 @ p[f"{base}.ffn.w1"] + p[f"{base}.ffn.b1"]
        a = kernels.gelu(h1)
        f = a @ p[f"{base}.ffn.w2"] + p[f"{base}.ffn.b2"]
        lc["h1"], lc["a"] = h1, a
        if dropout_on:
            lc["dm_ffn"] = _dropout_mask(rng, f.shape, rate)
            f = f * lc["dm_ffn"]
        x = x + f
        cache["layers"].append(lc)
    cache["x_final_in"] = x
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


def _check_inputs(config, seq1, seq2, mask1, mask2):
    for name, seq, mask in (("seq1", seq1, mask1), ("seq2", seq2, mask2)):
        if seq.ndim != 1 or mask.ndim != 1 or seq.shape[0] != mask.shape[0]:
            raise ShapeMismatch(f"{name}: ids and mask must be 1-d and equal length")
        if seq.shape[0] > config.max_seq_len:
            raise ShapeMismatch(
                f"{name}: length {seq.shape[0]} exceeds max_seq_len {config.max_seq_len}"
            )
    if mask1.sum() < 1:
        raise ShapeMismatch("seq1 must contain at least one unmasked position")


def _forward_internal(params, config, seq1, seq2, mask1, mask2, dropout_on, rng_seed):
    _check_inputs(config, seq1, seq2, mask1, mask2)
    p = params.tensors
    rng = np.random.default_rng(rng_seed) if dropout_on else None
    enc1_out, c1 = _encoder_forward(p, "enc1", seq1, mask1, config, rng, dropout_on)
    cache: dict = {"c1": c1, "mask1": mask1, "mask2": mask2}
    has_context = seq2.shape[0] > 0 and mask2.sum() > 0
    cross_probs = None
    enc2_out = None
    if has_context:
        enc2_out, c2 = _encoder_forward(p, "enc2", seq2, mask2, config, rng, dropout_on)
        cross_out, cx = _attention(p, "cross", enc1_out, enc2_out, mask2, config.num_cross_heads)
        cross_probs = cx["probs"]
        cache["c2"], cache["cx"] = c2, cx
        if dropout_on:
            cache["dm_cross"] = _dropout_mask(rng, cross_out.shape, config.dropout_rate)
            cross_out = cross_out * cache["dm_cross"]
        fused = enc1_out + cross_out
    else:
        fused = enc1_out
    cache["enc1_out"], cache["fused"] = enc1_out, fused
    n_pool = mask1.sum()
    pooled = (fused * mask1[:, None]).sum(axis=0) / n_pool
    outputs = np.empty(3)
    for i, head in enumerate(HEAD_NAMES):
        outputs[i] = pooled @ p[f"head.{head}.w"] + p[f"head.{head}.b"][0]
    cache["pooled"], cache["n_pool"] = pooled, n_pool
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
    mask1: np.ndarray,
    mask2: np.ndarray,
    dropout_enabled: bool = False,
    rng_seed: int = 0,
) -> ForwardTrace:
    trace, _ = _forward_internal(params, config, seq1, seq2, mask1, mask2,
                                 dropout_enabled, rng_seed)
    return trace


def backward(
    params: ModelParameters,
    config: ModelConfig,
    seq1: np.ndarray,
    seq2: np.ndarray,
    mask1: np.ndarray,
    mask2: np.ndarray,
    target: np.ndarray,
    dropout_enabled: bool = False,
    rng_seed: int = 0,
    grads: Optional[dict[str, np.ndarray]] = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss (mean squared error over the three heads) and its exact gradient
    for every parameter tensor. Re-runs the forward pass internally, so the
    dropout seed must match the paired forward when dropout is enabled.

    The gradient is added into ``grads``, a dict shaped like
    ``params.zeros_like()``, which is returned; one accumulator can thus sum a
    whole batch, and embedding rows no token of the example hits are left
    untouched. Without ``grads`` a fresh zero dict is allocated."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (3,):
        raise ShapeMismatch(f"target must have shape (3,), got {target.shape}")
    trace, cache = _forward_internal(params, config, seq1, seq2, mask1, mask2,
                                     dropout_enabled, rng_seed)
    p = params.tensors
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
        dpooled += douts[i] * p[f"head.{head}.w"]

    mask1 = cache["mask1"]
    dfused = mask1[:, None] * (dpooled / cache["n_pool"])

    denc1 = dfused.copy()
    if "cx" in cache:
        dcross = dfused * cache["dm_cross"] if "dm_cross" in cache else dfused
        dxq, dxkv = _attention_backward(p, "cross", cache["cx"], dcross, grads)
        denc1 += dxq
        _encoder_backward(p, "enc2", config, cache["c2"], dxkv, grads)
    _encoder_backward(p, "enc1", config, cache["c1"], denc1, grads)
    return loss, grads


def predict(params, config, vocab, record, aug, active_kinds=()) -> Prediction:
    """Deterministic inference for one record; no dropout, no masking."""
    from argscore.model.encoding import encode_input

    enc = encode_input(record, aug, vocab, config, active_kinds)
    trace = forward(params, config, enc.seq1, enc.seq2, enc.mask1, enc.mask2,
                    dropout_enabled=False, rng_seed=0)
    raw = tuple(float(v) for v in trace.outputs)
    clamped = tuple(float(np.clip(v, 0.0, 1.0)) for v in trace.outputs)
    return Prediction(raw=raw, clamped=clamped)
