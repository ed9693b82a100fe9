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
length, so the seeded stream does not depend on how long a sequence is. A
forward pass draws all its masks in one ``rng.random`` call of shape
``(count, max_seq_len, model_dim)``: ``1 + 2 * num_layers`` per encoder run
(embedding, then attention and FFN per layer), and one for cross-attention.
They are handed out in that order, encoder 1 first, which reads the stream
exactly as one draw per mask would. Each mask is ``(draw >= rate) / (1 -
rate)`` (inverted dropout), made in place over the whole block at once.

A ``Workspace`` holds every array that one example's forward and backward
passes write: the dropout draws, each layer's activations, attention scores
and probabilities, the FFN and GELU temporaries, and the backward deltas.
Each is sized at ``max_seq_len`` rows and used through contiguous views of
its head. ``forward`` and ``backward`` make a fresh one unless they are given
one; ``train`` keeps one for its run and ``evaluation.predict`` one per split,
so a run of examples allocates none of these arrays per example. What is still
allocated per call is small: the kernels' row statistics and numpy's own
iterator buffers.
Results go there through ``out=`` into contiguous arrays of the shapes the
plain expressions would allocate, which keeps their BLAS calls, their
reduction order and every output byte. A ``ForwardTrace`` made with a shared
workspace aliases it: its arrays hold until the workspace's next use.

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
    """Intermediate quantities exposed for inspection and tests. Its arrays
    are views of the pass's workspace, so they hold until that is used again."""

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


class Workspace:
    """Every array that one example's ``forward`` and ``backward`` write,
    made once for ``config`` and reused by every example (see the module
    docstring).

    Each array is a named slot. A row slot has ``max_seq_len`` rows, and
    ``rows(name, n)`` is its first ``n``. A head slot is flat, and
    ``heads(name, h, n, k)`` is its first ``h * n * k`` elements as a
    contiguous (h, n, k) array. A slot named after a layer norm, FFN or
    attention (``enc1.layer0.ln1.y``, ``cross.probs``) holds what ``backward``
    reads of that part's forward pass; the others hold temporaries that each
    part reuses in turn."""

    def __init__(self, config: ModelConfig):
        L, d, f = config.max_seq_len, config.model_dim, config.ffn_dim
        dual = config.mode == "dual"
        encoders = ("enc1", "enc2") if dual else ("enc1",)
        layers = [f"{enc}.layer{layer}" for enc in encoders for layer in range(config.num_layers)]
        attentions = [f"{base}.attn" for base in layers] + ["cross"] * dual
        norms = [f"{base}.{ln}" for base in layers for ln in ("ln1", "ln2")]
        norms += [f"{enc}.final_ln" for enc in encoders]
        square = max(config.num_heads, config.num_cross_heads) * L * L
        shapes = {f"{ln}.{name}": (L, d) for ln in norms for name in ("y", "xhat")}
        shapes.update({f"{ln}.rstd": (L,) for ln in norms})
        shapes.update({f"{base}.{name}": (L, f) for base in layers for name in ("h1", "a")})
        shapes.update({f"{attn}.{name}": (L, d) for attn in attentions
                       for name in ("q", "k", "v", "ctx")})
        shapes.update({f"{attn}.probs": (square,) for attn in attentions})
        # the dropout masks: a (max_seq_len, model_dim) block per use in one pass
        shapes["draws"] = ((1 + 2 * config.num_layers) * len(encoders) + dual, L, d)
        shapes.update(dict.fromkeys(("x", "proj", "denc1", "dx", "dmasked", "dy", "dln", "dctx",
                                     "dq", "dk", "dv", "dxq", "dxkv", "dxkv_v"), (L, d)))
        shapes.update(da=(L, f), dh1=(L, f))
        shapes.update(dict.fromkeys(("scores", "dprobs", "dscores"), (square,)))
        shapes.update(dict.fromkeys(("heads", "dvh", "dqh", "dkh"), (L * d,)))
        shapes.update(dict.fromkeys(("pooled", "dpooled", "dgamma", "dbeta"), (d,)))
        shapes["outputs"] = (3,)
        shapes["scratch"] = (3 * L * max(d, f),)  # the kernels' temporaries
        shapes["column"] = (max(d, f),)  # a bias's gradient
        shapes["product"] = (d * max(d, f),)  # a weight's gradient
        self.slots = slots = {name: np.empty(shape) for name, shape in shapes.items()}
        self.scratch, self.column = slots["scratch"], slots["column"]
        self.outputs, self.pooled = slots["outputs"], slots["pooled"]
        self.dpooled, self.dgamma, self.dbeta = slots["dpooled"], slots["dgamma"], slots["dbeta"]
        self.product = {shape: slots["product"][: shape[0] * shape[1]].reshape(shape)
                        for shape in ((d, d), (d, f), (f, d))}

    def rows(self, name: str, n: int) -> np.ndarray:
        return self.slots[name][:n]

    def heads(self, name: str, h: int, n: int, k: int) -> np.ndarray:
        return self.slots[name][: h * n * k].reshape(h, n, k)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, num_heads, d // num_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x`` of shape (h, n, dh) into ``out`` of shape (n, h * dh)."""
    h, n, dh = x.shape
    np.copyto(out.reshape(n, h, dh), x.transpose(1, 0, 2))
    return out


def _add_product(grad: np.ndarray, a: np.ndarray, b: np.ndarray, ws: Workspace) -> None:
    """``grad += a @ b``, the product made in the workspace."""
    grad += np.matmul(a, b, out=ws.product[grad.shape])


def _add_column_sum(grad: np.ndarray, x: np.ndarray, ws: Workspace) -> None:
    """``grad += x.sum(axis=0)``, the sum made in the workspace."""
    grad += np.add.reduce(x, axis=0, out=ws.column[: x.shape[1]])


def _dropped(dx: np.ndarray, mask: Optional[np.ndarray], ws: Workspace) -> np.ndarray:
    """``dx * mask`` in the workspace, or ``dx`` when dropout is off."""
    return dx if mask is None else np.multiply(dx, mask, out=ws.rows("dmasked", dx.shape[0]))


def _layer_norm(p, ln, x, ws):
    """``kernels.layer_norm`` of ``x`` by the ``ln`` parameters, into its slots."""
    n = x.shape[0]
    return kernels.layer_norm(x, p[f"{ln}.gamma"], p[f"{ln}.beta"], LN_EPS, out=(
        ws.rows(f"{ln}.y", n), ws.rows(f"{ln}.xhat", n), ws.rows(f"{ln}.rstd", n)))


def _layer_norm_backward(p, ln, dy, ws, slot, grads):
    """The gradient at the input of layer norm ``ln``, into ``slot``; adds
    those of its parameters into ``grads``."""
    dx, dgamma, dbeta = kernels.layer_norm_grad(
        dy, p[f"{ln}.gamma"], ws.rows(f"{ln}.xhat", dy.shape[0]),
        ws.rows(f"{ln}.rstd", dy.shape[0]), scratch=ws.scratch,
        out=(ws.rows(slot, dy.shape[0]), ws.dgamma, ws.dbeta))
    grads[f"{ln}.gamma"] += dgamma
    grads[f"{ln}.beta"] += dbeta
    return dx


def _attention(p, prefix, xq, xkv, num_heads, ws):
    """Shared multi-head attention; returns output and backward cache. What
    backward reads goes to the ``prefix`` slots, the output to ``proj``."""
    wq, bq = p[f"{prefix}.wq"], p[f"{prefix}.bq"]
    wk, bk = p[f"{prefix}.wk"], p[f"{prefix}.bk"]
    wv, bv = p[f"{prefix}.wv"], p[f"{prefix}.bv"]
    wo, bo = p[f"{prefix}.wo"], p[f"{prefix}.bo"]
    (nq, d), nk = xq.shape, xkv.shape[0]
    q = np.matmul(xq, wq, out=ws.rows(f"{prefix}.q", nq))
    q += bq
    k = np.matmul(xkv, wk, out=ws.rows(f"{prefix}.k", nk))
    k += bk
    v = np.matmul(xkv, wv, out=ws.rows(f"{prefix}.v", nk))
    v += bv
    qh = _split_heads(q, num_heads)
    kh = _split_heads(k, num_heads)
    vh = _split_heads(v, num_heads)
    scale = 1.0 / np.sqrt(qh.shape[-1])
    scores = np.matmul(qh, kh.transpose(0, 2, 1), out=ws.heads("scores", num_heads, nq, nk))
    scores *= scale
    probs = kernels.masked_softmax(scores, out=ws.heads(f"{prefix}.probs", num_heads, nq, nk))
    heads = np.matmul(probs, vh, out=ws.heads("heads", num_heads, nq, d // num_heads))
    ctx = _merge_heads(heads, ws.rows(f"{prefix}.ctx", nq))
    out = np.matmul(ctx, wo, out=ws.rows("proj", nq))
    out += bo
    cache = {
        "xq": xq, "xkv": xkv, "qh": qh, "kh": kh, "vh": vh,
        "probs": probs, "ctx": ctx, "scale": scale, "num_heads": num_heads,
    }
    return out, cache


def _attention_backward(p, prefix, cache, dout, grads, ws):
    """Returns (dxq, dxkv), in the ``dxq`` and ``dxkv`` slots, and accumulates
    parameter gradients."""
    wq, wk, wv, wo = p[f"{prefix}.wq"], p[f"{prefix}.wk"], p[f"{prefix}.wv"], p[f"{prefix}.wo"]
    xq, xkv = cache["xq"], cache["xkv"]
    qh, kh, vh = cache["qh"], cache["kh"], cache["vh"]
    probs, ctx, scale = cache["probs"], cache["ctx"], cache["scale"]
    num_heads = cache["num_heads"]
    nq, nk, dh = xq.shape[0], xkv.shape[0], vh.shape[-1]

    _add_product(grads[f"{prefix}.wo"], ctx.T, dout, ws)
    _add_column_sum(grads[f"{prefix}.bo"], dout, ws)
    dctx = np.matmul(dout, wo.T, out=ws.rows("dctx", nq))
    dctx_h = _split_heads(dctx, num_heads)
    dprobs = np.matmul(dctx_h, vh.transpose(0, 2, 1), out=ws.heads("dprobs", num_heads, nq, nk))
    dvh = np.matmul(probs.transpose(0, 2, 1), dctx_h, out=ws.heads("dvh", num_heads, nk, dh))
    dscores = kernels.masked_softmax_grad(probs, dprobs, out=ws.heads("dscores", num_heads, nq, nk))
    dqh = np.matmul(dscores, kh, out=ws.heads("dqh", num_heads, nq, dh))
    dqh *= scale
    dkh = np.matmul(dscores.transpose(0, 2, 1), qh, out=ws.heads("dkh", num_heads, nk, dh))
    dkh *= scale
    dq = _merge_heads(dqh, ws.rows("dq", nq))
    dk = _merge_heads(dkh, ws.rows("dk", nk))
    dv = _merge_heads(dvh, ws.rows("dv", nk))
    _add_product(grads[f"{prefix}.wq"], xq.T, dq, ws)
    _add_column_sum(grads[f"{prefix}.bq"], dq, ws)
    _add_product(grads[f"{prefix}.wk"], xkv.T, dk, ws)
    _add_column_sum(grads[f"{prefix}.bk"], dk, ws)
    _add_product(grads[f"{prefix}.wv"], xkv.T, dv, ws)
    _add_column_sum(grads[f"{prefix}.bv"], dv, ws)
    dxq = np.matmul(dq, wq.T, out=ws.rows("dxq", nq))
    dxkv = np.matmul(dk, wk.T, out=ws.rows("dxkv", nk))
    dxkv += np.matmul(dv, wv.T, out=ws.rows("dxkv_v", nk))
    return dxq, dxkv


def _encoder_forward(p, enc, ids, config, masks, ws):
    """``masks`` yields the ``(max_seq_len, model_dim)`` inverted-dropout
    masks, one per use; None turns dropout off."""
    n = ids.shape[0]
    dropout_on = masks is not None
    table = p[f"{enc}.tok_emb"]
    size = table.shape[0]
    # indexing's bounds check: take's mode="raise" would write through a copy of `out`
    if not -size <= np.minimum.reduce(ids) <= np.maximum.reduce(ids) < size:
        raise IndexError(f"{enc}: a token id is out of range for {size} embedding rows")
    x = table.take(ids, axis=0, out=ws.rows("x", n), mode="wrap")
    x += p[f"{enc}.pos_emb"][:n]
    cache: dict = {"ids": ids, "layers": [], "attn_probs": []}
    if dropout_on:
        dm = next(masks)[:n]
        cache["dm_emb"] = dm
        x *= dm
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        y1, _, _ = _layer_norm(p, f"{base}.ln1", x, ws)
        attn_out, ac = _attention(p, f"{base}.attn", y1, y1, config.num_heads, ws)
        lc: dict = {"attn": ac}
        cache["attn_probs"].append(ac["probs"])
        if dropout_on:
            lc["dm_attn"] = next(masks)[:n]
            attn_out *= lc["dm_attn"]
        x += attn_out
        y2, _, _ = _layer_norm(p, f"{base}.ln2", x, ws)
        h1 = np.matmul(y2, p[f"{base}.ffn.w1"], out=ws.rows(f"{base}.h1", n))
        h1 += p[f"{base}.ffn.b1"]
        a = kernels.gelu(h1, out=ws.rows(f"{base}.a", n), scratch=ws.scratch)
        ffn_out = np.matmul(a, p[f"{base}.ffn.w2"], out=ws.rows("proj", n))
        ffn_out += p[f"{base}.ffn.b2"]
        lc["y2"], lc["h1"], lc["a"] = y2, h1, a
        if dropout_on:
            lc["dm_ffn"] = next(masks)[:n]
            ffn_out *= lc["dm_ffn"]
        x += ffn_out
        cache["layers"].append(lc)
    out, _, _ = _layer_norm(p, f"{enc}.final_ln", x, ws)
    return out, cache


def _encoder_backward(p, enc, config, cache, dout, grads, ws):
    """Reads ``dout`` before it writes any slot that ``dout`` may be."""
    n = dout.shape[0]
    dx = _layer_norm_backward(p, f"{enc}.final_ln", dout, ws, "dx", grads)
    for layer in reversed(range(config.num_layers)):
        base = f"{enc}.layer{layer}"
        lc = cache["layers"][layer]
        df = _dropped(dx, lc.get("dm_ffn"), ws)
        _add_product(grads[f"{base}.ffn.w2"], lc["a"].T, df, ws)
        _add_column_sum(grads[f"{base}.ffn.b2"], df, ws)
        da = np.matmul(df, p[f"{base}.ffn.w2"].T, out=ws.rows("da", n))
        dh1 = kernels.gelu_grad(da, lc["h1"], out=ws.rows("dh1", n), scratch=ws.scratch)
        _add_product(grads[f"{base}.ffn.w1"], lc["y2"].T, dh1, ws)
        _add_column_sum(grads[f"{base}.ffn.b1"], dh1, ws)
        dy2 = np.matmul(dh1, p[f"{base}.ffn.w1"].T, out=ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln2", dy2, ws, "dln", grads)  # dx1
        dattn = _dropped(dx, lc.get("dm_attn"), ws)
        # self-attention: queries and keys/values are the same states
        dy1q, dy1kv = _attention_backward(p, f"{base}.attn", lc["attn"], dattn, grads, ws)
        dy1 = np.add(dy1q, dy1kv, out=ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln1", dy1, ws, "dln", grads)
    if "dm_emb" in cache:
        dx *= cache["dm_emb"]
    np.add.at(grads[f"{enc}.tok_emb"], cache["ids"], dx)
    grads[f"{enc}.pos_emb"][:n] += dx


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


def _forward_internal(p, config, seq1, seq2, dropout_on, rng_seed, ws):
    _check_inputs(config, seq1, seq2)
    has_context = seq2.shape[0] > 0
    n1 = seq1.shape[0]
    masks = None
    if dropout_on:
        # every mask of the run from one call: the same numbers, in the same
        # order, as one (max_seq_len, model_dim) draw per mask
        per_encoder = 1 + 2 * config.num_layers
        count = 2 * per_encoder + 1 if has_context else per_encoder
        draws = ws.rows("draws", count)
        np.random.default_rng(rng_seed).random(out=draws)
        np.greater_equal(draws, config.dropout_rate, out=draws)  # 1.0 or 0.0
        draws /= 1.0 - config.dropout_rate
        masks = iter(draws)
    enc1_out, c1 = _encoder_forward(p, "enc1", seq1, config, masks, ws)
    cache: dict = {"c1": c1}
    cross_probs = None
    enc2_out = None
    if has_context:
        enc2_out, c2 = _encoder_forward(p, "enc2", seq2, config, masks, ws)
        cross_out, cx = _attention(p, "cross", enc1_out, enc2_out, config.num_cross_heads, ws)
        cross_probs = cx["probs"]
        cache["c2"], cache["cx"] = c2, cx
        if dropout_on:
            cache["dm_cross"] = next(masks)[:n1]
            cross_out *= cache["dm_cross"]
        fused = np.add(enc1_out, cross_out, out=cross_out)
    else:
        fused = enc1_out
    pooled = np.add.reduce(fused, axis=0, out=ws.pooled)
    pooled /= n1
    outputs = ws.outputs
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
    workspace: Optional[Workspace] = None,
) -> ForwardTrace:
    """The trace's arrays live in ``workspace`` (a fresh one by default), so
    with a shared workspace they hold until its next use."""
    ws = Workspace(config) if workspace is None else workspace
    trace, _ = _forward_internal(params, config, seq1, seq2, dropout_enabled, rng_seed, ws)
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
    workspace: Optional[Workspace] = None,
) -> tuple[float, ModelParameters]:
    """Loss (mean squared error over the three heads) and its exact gradient
    for every parameter tensor. Re-runs the forward pass internally, so the
    dropout seed must match the paired forward when dropout is enabled.

    The gradient is added into ``grads``, which is returned; it defaults to a
    fresh ``params.zeros_like()``. One accumulator can thus sum a whole batch,
    and embedding rows no token of the example hits are left untouched.
    ``workspace`` holds the pass's arrays, as for ``forward``."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (3,):
        raise ShapeMismatch(f"target must have shape (3,), got {target.shape}")
    ws = Workspace(config) if workspace is None else workspace
    trace, cache = _forward_internal(params, config, seq1, seq2, dropout_enabled, rng_seed, ws)
    if grads is None:
        grads = params.zeros_like()
    diff = trace.outputs - target
    loss = float(np.mean(diff ** 2))
    douts = 2.0 * diff / 3.0

    pooled = cache["pooled"]
    n1, d = seq1.shape[0], pooled.shape[0]
    dpooled = ws.dpooled
    dpooled.fill(0.0)
    vec = ws.column[:d]
    for i, head in enumerate(HEAD_NAMES):
        grads[f"head.{head}.w"] += np.multiply(douts[i], pooled, out=vec)
        grads[f"head.{head}.b"] += douts[i]
        dpooled += np.multiply(douts[i], params[f"head.{head}.w"], out=vec)

    denc1 = ws.rows("denc1", n1)
    denc1[...] = np.divide(dpooled, n1, out=vec)  # each row pools at 1/n
    if "cx" in cache:
        dcross = _dropped(denc1, cache.get("dm_cross"), ws)
        dxq, dxkv = _attention_backward(params, "cross", cache["cx"], dcross, grads, ws)
        denc1 += dxq
        _encoder_backward(params, "enc2", config, cache["c2"], dxkv, grads, ws)
    _encoder_backward(params, "enc1", config, cache["c1"], denc1, grads, ws)
    return loss, grads
