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
``(count, max_seq_len, model_dim)``, which reads the stream exactly as one
draw per mask would, and makes each ``(draw >= rate) / (1 - rate)``
(inverted dropout) in place. The forward and backward passes read a mask by
its index in that block: an encoder's embedding mask at 0, its layer ``l``'s
attention mask at ``1 + 2l`` and FFN mask at ``2 + 2l``; encoder 1's block
first, then encoder 2's (from ``1 + 2 * num_layers``), then cross-attention's
last. A pass without context draws encoder 1's alone.

A ``Workspace`` holds every array that one example's forward and backward
passes write: the dropout draws, each layer's activations, attention scores
and probabilities, the FFN and GELU temporaries, and the backward deltas.
Each is sized at ``max_seq_len`` rows and used through contiguous views of
its head. A slot named after a part of the model (``enc1.layer0.ln2.y``,
``enc1.layer0.h1``, ``cross.probs``) is the one record of that part's forward
pass: ``backward`` runs the forward pass into the workspace, then reads each
part's inputs and activations back from those slots. ``forward`` and
``backward`` make a fresh workspace unless they are given one; ``train``
keeps one for its run and ``evaluation.predict`` one per split, so a run of
examples allocates none of these arrays per example. What is still allocated
per call is small: the kernels' row statistics and numpy's own iterator
buffers.
Results go there through ``out=`` into contiguous arrays of the shapes the
plain expressions would allocate, which keeps their BLAS calls, their
reduction order and every output byte. A ``ForwardTrace``'s arrays are views
of the workspace's slots: they alias it, and hold until its next use.

Everything is float64. Encoders are pre-norm transformer blocks with learned
absolute positional embeddings and a GELU feed-forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Intermediate quantities exposed for inspection and tests. Each array is
    a view of a slot of the pass's workspace (``enc1.final_ln.y``,
    ``enc1.layer0.attn.probs``, ``cross.probs``, ...), not a copy: it aliases
    the workspace and holds until that is used again."""

    enc1_states: np.ndarray
    enc2_states: Optional[np.ndarray]
    enc1_self_attn: list[np.ndarray]
    enc2_self_attn: list[np.ndarray]
    cross_attn: Optional[np.ndarray]
    pooled: np.ndarray
    outputs: np.ndarray


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
    attention (``enc1.layer0.ln1.y``, ``cross.probs``) is the one record of
    that part's forward pass, and ``backward`` reads it from there; the
    others hold temporaries that each part reuses in turn. ``draws`` holds
    the pass's dropout masks, read by index in the order the module
    docstring states."""

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


def _dropped(dx: np.ndarray, masks: Optional[np.ndarray], i: int, ws: Workspace) -> np.ndarray:
    """``dx`` times mask ``i`` of ``masks`` in the workspace, or ``dx`` when
    dropout is off (``masks`` is None)."""
    n = dx.shape[0]
    return dx if masks is None else np.multiply(dx, masks[i][:n], out=ws.rows("dmasked", n))


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


def _split_qkv(prefix, nq, nk, num_heads, ws):
    """The queries, keys and values in the ``prefix`` slots, split into heads."""
    return (_split_heads(ws.rows(f"{prefix}.q", nq), num_heads),
            _split_heads(ws.rows(f"{prefix}.k", nk), num_heads),
            _split_heads(ws.rows(f"{prefix}.v", nk), num_heads))


def _attention(p, prefix, xq, xkv, num_heads, ws):
    """Multi-head attention of ``xq`` onto ``xkv``; the output goes to
    ``proj``, and what ``backward`` reads to the ``prefix`` slots."""
    (nq, d), nk = xq.shape, xkv.shape[0]
    for name, x in (("q", xq), ("k", xkv), ("v", xkv)):
        projected = np.matmul(x, p[f"{prefix}.w{name}"], out=ws.rows(f"{prefix}.{name}", len(x)))
        projected += p[f"{prefix}.b{name}"]
    qh, kh, vh = _split_qkv(prefix, nq, nk, num_heads, ws)
    scores = np.matmul(qh, kh.transpose(0, 2, 1), out=ws.heads("scores", num_heads, nq, nk))
    scores *= 1.0 / math.sqrt(d // num_heads)
    probs = kernels.masked_softmax(scores, out=ws.heads(f"{prefix}.probs", num_heads, nq, nk))
    heads = np.matmul(probs, vh, out=ws.heads("heads", num_heads, nq, d // num_heads))
    ctx = _merge_heads(heads, ws.rows(f"{prefix}.ctx", nq))
    out = np.matmul(ctx, p[f"{prefix}.wo"], out=ws.rows("proj", nq))
    out += p[f"{prefix}.bo"]
    return out


def _attention_backward(p, prefix, xq, xkv, num_heads, dout, grads, ws):
    """Returns (dxq, dxkv), in the ``dxq`` and ``dxkv`` slots, and accumulates
    parameter gradients; reads the forward pass from the ``prefix`` slots."""
    (nq, d), nk = xq.shape, xkv.shape[0]
    dh = d // num_heads
    qh, kh, vh = _split_qkv(prefix, nq, nk, num_heads, ws)
    probs = ws.heads(f"{prefix}.probs", num_heads, nq, nk)
    scale = 1.0 / math.sqrt(dh)

    _add_product(grads[f"{prefix}.wo"], ws.rows(f"{prefix}.ctx", nq).T, dout, ws)
    _add_column_sum(grads[f"{prefix}.bo"], dout, ws)
    dctx = np.matmul(dout, p[f"{prefix}.wo"].T, out=ws.rows("dctx", nq))
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
    for name, x, dy in (("q", xq, dq), ("k", xkv, dk), ("v", xkv, dv)):
        _add_product(grads[f"{prefix}.w{name}"], x.T, dy, ws)
        _add_column_sum(grads[f"{prefix}.b{name}"], dy, ws)
    dxq = np.matmul(dq, p[f"{prefix}.wq"].T, out=ws.rows("dxq", nq))
    dxkv = np.matmul(dk, p[f"{prefix}.wk"].T, out=ws.rows("dxkv", nk))
    dxkv += np.matmul(dv, p[f"{prefix}.wv"].T, out=ws.rows("dxkv_v", nk))
    return dxq, dxkv


def _encoder_forward(p, enc, ids, config, masks, ws):
    """The encoder's output, in its ``final_ln.y`` slot. ``masks`` holds its
    inverted-dropout masks by index: the embedding's at 0, layer ``l``'s
    attention at ``1 + 2l`` and FFN at ``2 + 2l``; None turns dropout off."""
    n = ids.shape[0]
    table = p[f"{enc}.tok_emb"]
    size = table.shape[0]
    # indexing's bounds check: take's mode="raise" would write through a copy of `out`
    if not -size <= np.minimum.reduce(ids) <= np.maximum.reduce(ids) < size:
        raise IndexError(f"{enc}: a token id is out of range for {size} embedding rows")
    x = table.take(ids, axis=0, out=ws.rows("x", n), mode="wrap")
    x += p[f"{enc}.pos_emb"][:n]
    if masks is not None:
        x *= masks[0][:n]
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        y1, _, _ = _layer_norm(p, f"{base}.ln1", x, ws)
        attn_out = _attention(p, f"{base}.attn", y1, y1, config.num_heads, ws)
        if masks is not None:
            attn_out *= masks[1 + 2 * layer][:n]
        x += attn_out
        y2, _, _ = _layer_norm(p, f"{base}.ln2", x, ws)
        h1 = np.matmul(y2, p[f"{base}.ffn.w1"], out=ws.rows(f"{base}.h1", n))
        h1 += p[f"{base}.ffn.b1"]
        a = kernels.gelu(h1, out=ws.rows(f"{base}.a", n), scratch=ws.scratch)
        ffn_out = np.matmul(a, p[f"{base}.ffn.w2"], out=ws.rows("proj", n))
        ffn_out += p[f"{base}.ffn.b2"]
        if masks is not None:
            ffn_out *= masks[2 + 2 * layer][:n]
        x += ffn_out
    out, _, _ = _layer_norm(p, f"{enc}.final_ln", x, ws)
    return out


def _encoder_backward(p, enc, ids, config, masks, dout, grads, ws):
    """Reads the forward pass of ``ids`` from the encoder's slots and
    ``masks`` as ``_encoder_forward`` does, and ``dout`` before it writes any
    slot that ``dout`` may be."""
    n = ids.shape[0]
    dx = _layer_norm_backward(p, f"{enc}.final_ln", dout, ws, "dx", grads)
    for layer in reversed(range(config.num_layers)):
        base = f"{enc}.layer{layer}"
        df = _dropped(dx, masks, 2 + 2 * layer, ws)
        _add_product(grads[f"{base}.ffn.w2"], ws.rows(f"{base}.a", n).T, df, ws)
        _add_column_sum(grads[f"{base}.ffn.b2"], df, ws)
        da = np.matmul(df, p[f"{base}.ffn.w2"].T, out=ws.rows("da", n))
        dh1 = kernels.gelu_grad(da, ws.rows(f"{base}.h1", n), out=ws.rows("dh1", n),
                                scratch=ws.scratch)
        _add_product(grads[f"{base}.ffn.w1"], ws.rows(f"{base}.ln2.y", n).T, dh1, ws)
        _add_column_sum(grads[f"{base}.ffn.b1"], dh1, ws)
        dy2 = np.matmul(dh1, p[f"{base}.ffn.w1"].T, out=ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln2", dy2, ws, "dln", grads)  # dx1
        dattn = _dropped(dx, masks, 1 + 2 * layer, ws)
        # self-attention: queries and keys/values are the same states
        y1 = ws.rows(f"{base}.ln1.y", n)
        dy1q, dy1kv = _attention_backward(p, f"{base}.attn", y1, y1, config.num_heads,
                                          dattn, grads, ws)
        dy1 = np.add(dy1q, dy1kv, out=ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln1", dy1, ws, "dln", grads)
    if masks is not None:
        dx *= masks[0][:n]
    np.add.at(grads[f"{enc}.tok_emb"], ids, dx)
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
    """The pass's trace, and its dropout masks (the ``draws`` rows) or None."""
    _check_inputs(config, seq1, seq2)
    (n1,), (n2,) = seq1.shape, seq2.shape
    masks = None
    if dropout_on:
        # every mask of the run from one call: the same numbers, in the same
        # order, as one (max_seq_len, model_dim) draw per mask
        per_encoder = 1 + 2 * config.num_layers
        masks = ws.rows("draws", 2 * per_encoder + 1 if n2 else per_encoder)
        np.random.default_rng(rng_seed).random(out=masks)
        np.greater_equal(masks, config.dropout_rate, out=masks)  # 1.0 or 0.0
        masks /= 1.0 - config.dropout_rate
    fused = enc1_out = _encoder_forward(p, "enc1", seq1, config, masks, ws)
    enc2_out = cross_probs = None
    if n2:
        enc2_masks = None if masks is None else masks[1 + 2 * config.num_layers:]
        enc2_out = _encoder_forward(p, "enc2", seq2, config, enc2_masks, ws)
        cross_out = _attention(p, "cross", enc1_out, enc2_out, config.num_cross_heads, ws)
        cross_probs = ws.heads("cross.probs", config.num_cross_heads, n1, n2)
        if masks is not None:
            cross_out *= masks[-1][:n1]
        fused = np.add(enc1_out, cross_out, out=cross_out)
    pooled = np.add.reduce(fused, axis=0, out=ws.pooled)
    pooled /= n1
    outputs = ws.outputs
    for i, head in enumerate(HEAD_NAMES):
        outputs[i] = pooled @ p[f"head.{head}.w"] + p[f"head.{head}.b"][0]
    h, layers = config.num_heads, range(config.num_layers)
    trace = ForwardTrace(
        enc1_states=enc1_out,
        enc2_states=enc2_out,
        enc1_self_attn=[ws.heads(f"enc1.layer{i}.attn.probs", h, n1, n1) for i in layers],
        enc2_self_attn=[ws.heads(f"enc2.layer{i}.attn.probs", h, n2, n2) for i in layers if n2],
        cross_attn=cross_probs,
        pooled=pooled,
        outputs=outputs,
    )
    return trace, masks


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
    trace, masks = _forward_internal(params, config, seq1, seq2, dropout_enabled, rng_seed, ws)
    if grads is None:
        grads = params.zeros_like()
    diff = trace.outputs - target
    loss = float(np.mean(diff ** 2))
    douts = 2.0 * diff / 3.0

    pooled = trace.pooled
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
    if trace.enc2_states is not None:
        dcross = _dropped(denc1, masks, -1, ws)
        dxq, dxkv = _attention_backward(params, "cross", trace.enc1_states, trace.enc2_states,
                                        config.num_cross_heads, dcross, grads, ws)
        denc1 += dxq
        enc2_masks = None if masks is None else masks[1 + 2 * config.num_layers:]
        _encoder_backward(params, "enc2", seq2, config, enc2_masks, dxkv, grads, ws)
    _encoder_backward(params, "enc1", seq1, config, masks, denc1, grads, ws)
    return loss, grads
