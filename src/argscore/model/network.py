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

A forward pass runs one example or a chunk of them. A chunk's sequences are
stacked: its seq1 ids back to back, example 0's rows first, and likewise its
seq2 ids, where an example without context owns no rows. Every position-wise
operation runs once over the stacked rows: the embedding gather and positions,
each layer norm, the attention projections, the FFN and GELU. Self-attention,
cross-attention (an example's first-encoder rows onto its own context rows),
pooling and the heads loop over the examples, so no example sees another's
rows, and each example's outputs are bitwise those of a pass over it alone.
numpy computes a one-row product by ``gemv``, though, which rounds
differently from the rows of a ``gemm``, so a one-row sequence keeps that
only in a chunk of its own (``evaluation.predict`` packs it alone). Dropout
and ``backward`` take one example: a chunk of one.

A ``Workspace`` holds every array that the forward and backward passes
write: the dropout draws, each layer's activations, attention scores and
probabilities, the FFN and GELU temporaries, and the backward deltas. A slot
that the forward pass writes row by row has the workspace's row capacity, at
least ``max_seq_len``; the others are sized for one example. Each is used
through contiguous views of its head. A slot named after a part of the model
(``enc1.layer0.ln2.y``, ``enc1.layer0.h1``, ``cross.probs``) is the one
record of that part's forward pass: ``backward`` runs the forward pass into
the workspace, then reads each part's inputs and activations back from those
slots. The attention probabilities are per example, and after a chunk hold
its last example that ran that attention. ``forward`` and ``backward`` make
a fresh workspace unless they are given one; ``train`` keeps one for its run
and ``evaluation.predict`` one per split, so a run of examples allocates
none of these arrays per example. What is still allocated per call is small:
the kernels' row statistics, the chunk's ids and positions, and numpy's own
iterator buffers.
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
from typing import Optional, Sequence, Union

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
    the workspace and holds until that is used again.

    For a chunk, ``enc1_states`` and ``enc2_states`` are its stacked rows
    (example ``i`` owns those after examples ``0`` to ``i - 1``), ``pooled``
    and ``outputs`` have a row per example, and the attention probabilities
    are those of the chunk's last example (for ``enc2_self_attn`` and
    ``cross_attn``, its last example with context)."""

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
    """Every array that ``forward`` and ``backward`` write, made once for
    ``config`` and reused by every pass (see the module docstring).

    Each array is a named slot. A row slot that the forward pass writes has
    ``rows`` rows (``max_seq_len`` by default, and never fewer), its
    ``capacity``; one that only ``backward`` writes has ``max_seq_len``. In a
    chunk, example ``i`` owns the rows of an encoder's slots that follow
    those of examples ``0`` to ``i - 1``, and row ``i`` of ``pooled`` and
    ``outputs``. ``rows(name, n)`` is a slot's first ``n`` rows. A head slot
    is flat and sized for one example: ``heads(name, h, n, k)`` is its first
    ``h * n * k`` elements as a contiguous (h, n, k) array. A slot named
    after a layer norm, FFN or attention (``enc1.layer0.ln1.y``,
    ``cross.probs``) is the one record of that part's forward pass, and
    ``backward`` reads it from there; after a chunk, the attention
    probabilities hold only its last example that ran that attention. The
    other slots hold temporaries that each part reuses in turn. ``draws``
    holds the pass's dropout masks, read by index in the order the module
    docstring states."""

    def __init__(self, config: ModelConfig, rows: Optional[int] = None):
        L, d, f = config.max_seq_len, config.model_dim, config.ffn_dim
        R = L if rows is None else rows
        if R < L:
            raise ValueError(f"a workspace needs at least max_seq_len ({L}) rows, got {R}")
        dual = config.mode == "dual"
        encoders = ("enc1", "enc2") if dual else ("enc1",)
        layers = [f"{enc}.layer{layer}" for enc in encoders for layer in range(config.num_layers)]
        attentions = [f"{base}.attn" for base in layers] + ["cross"] * dual
        norms = [f"{base}.{ln}" for base in layers for ln in ("ln1", "ln2")]
        norms += [f"{enc}.final_ln" for enc in encoders]
        square = max(config.num_heads, config.num_cross_heads) * L * L
        shapes = {f"{ln}.{name}": (R, d) for ln in norms for name in ("y", "xhat")}
        shapes.update({f"{ln}.rstd": (R,) for ln in norms})
        shapes.update({f"{base}.{name}": (R, f) for base in layers for name in ("h1", "a")})
        shapes.update({f"{attn}.{name}": (R, d) for attn in attentions
                       for name in ("q", "k", "v", "ctx")})
        shapes.update({f"{attn}.probs": (square,) for attn in attentions})
        # the dropout masks: a (max_seq_len, model_dim) block per use in one pass
        shapes["draws"] = ((1 + 2 * config.num_layers) * len(encoders) + dual, L, d)
        shapes.update(x=(R, d), proj=(R, d), pooled=(R, d), outputs=(R, 3))
        shapes.update(dict.fromkeys(("denc1", "dx", "dmasked", "dy", "dln", "dctx",
                                     "dq", "dk", "dv", "dxq", "dxkv", "dxkv_v"), (L, d)))
        shapes.update(da=(L, f), dh1=(L, f))
        shapes.update(dict.fromkeys(("scores", "dprobs", "dscores"), (square,)))
        shapes.update(dict.fromkeys(("heads", "dvh", "dqh", "dkh"), (L * d,)))
        shapes.update(dict.fromkeys(("dpooled", "dgamma", "dbeta"), (d,)))
        # the kernels' temporaries: gelu's one over a chunk, gelu_grad's three over an example
        shapes["scratch"] = (max(R, 3 * L) * max(d, f),)
        shapes["column"] = (max(d, f),)  # a bias's gradient
        shapes["product"] = (d * max(d, f),)  # a weight's gradient
        self.slots = slots = {name: np.empty(shape) for name, shape in shapes.items()}
        self.scratch, self.column = slots["scratch"], slots["column"]
        self.dpooled, self.dgamma, self.dbeta = slots["dpooled"], slots["dgamma"], slots["dbeta"]
        self.product = {shape: slots["product"][: shape[0] * shape[1]].reshape(shape)
                        for shape in ((d, d), (d, f), (f, d))}

    @property
    def capacity(self) -> int:
        """The rows a chunk's seq1s, and its seq2s, may each take in all."""
        return self.slots["x"].shape[0]

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


def _split_qkv(prefix, qrows, krows, num_heads, ws):
    """The queries of the ``qrows`` and the keys and values of the ``krows``
    (slices) in the ``prefix`` slots, split into heads."""
    return (_split_heads(ws.slots[f"{prefix}.q"][qrows], num_heads),
            _split_heads(ws.slots[f"{prefix}.k"][krows], num_heads),
            _split_heads(ws.slots[f"{prefix}.v"][krows], num_heads))


def _attention(p, prefix, xq, xkv, pairs, num_heads, ws):
    """Multi-head attention of ``xq`` onto ``xkv``; the output goes to
    ``proj``, and what ``backward`` reads to the ``prefix`` slots. The
    projections run over all rows at once. Each (query rows, key rows) slice
    pair of ``pairs`` is an example, whose queries attend to its own keys
    only; an example without keys gets a zero context."""
    (nq, d), dh = xq.shape, xq.shape[1] // num_heads
    for name, x in (("q", xq), ("k", xkv), ("v", xkv)):
        projected = np.matmul(x, p[f"{prefix}.w{name}"], out=ws.rows(f"{prefix}.{name}", len(x)))
        projected += p[f"{prefix}.b{name}"]
    ctx = ws.rows(f"{prefix}.ctx", nq)
    for qrows, krows in pairs:
        if krows.start == krows.stop:
            ctx[qrows] = 0.0
            continue
        qh, kh, vh = _split_qkv(prefix, qrows, krows, num_heads, ws)
        n, k = qh.shape[1], kh.shape[1]
        scores = np.matmul(qh, kh.transpose(0, 2, 1), out=ws.heads("scores", num_heads, n, k))
        scores *= 1.0 / math.sqrt(dh)
        probs = kernels.masked_softmax(scores, out=ws.heads(f"{prefix}.probs", num_heads, n, k))
        heads = np.matmul(probs, vh, out=ws.heads("heads", num_heads, n, dh))
        _merge_heads(heads, ctx[qrows])
    out = np.matmul(ctx, p[f"{prefix}.wo"], out=ws.rows("proj", nq))
    out += p[f"{prefix}.bo"]
    return out


def _attention_backward(p, prefix, xq, xkv, num_heads, dout, grads, ws):
    """Returns (dxq, dxkv), in the ``dxq`` and ``dxkv`` slots, and accumulates
    parameter gradients; reads the forward pass of one example from the
    ``prefix`` slots."""
    (nq, d), nk = xq.shape, xkv.shape[0]
    dh = d // num_heads
    qh, kh, vh = _split_qkv(prefix, slice(nq), slice(nk), num_heads, ws)
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


def _encoder_forward(p, enc, ids, rows, config, masks, ws):
    """The encoder's output, in its ``final_ln.y`` slot. ``ids`` are the
    chunk's sequences back to back, and ``rows`` the slice of them that each
    example owns. ``masks`` holds its inverted-dropout masks by index: the
    embedding's at 0, layer ``l``'s attention at ``1 + 2l`` and FFN at
    ``2 + 2l``; None turns dropout off."""
    n = ids.shape[0]
    table = p[f"{enc}.tok_emb"]
    size = table.shape[0]
    # indexing's bounds check: take's mode="raise" would write through a copy of `out`
    if not -size <= np.minimum.reduce(ids) <= np.maximum.reduce(ids) < size:
        raise IndexError(f"{enc}: a token id is out of range for {size} embedding rows")
    x = table.take(ids, axis=0, out=ws.rows("x", n), mode="wrap")
    positions = p[f"{enc}.pos_emb"]
    for r in rows:  # one add per example costs less than a chunk's index of positions
        x[r] += positions[: r.stop - r.start]
    if masks is not None:
        x *= masks[0][:n]
    pairs = [(r, r) for r in rows if r.stop > r.start]
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        y1, _, _ = _layer_norm(p, f"{base}.ln1", x, ws)
        attn_out = _attention(p, f"{base}.attn", y1, y1, pairs, config.num_heads, ws)
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


def _check_inputs(config, seqs1, seqs2, dropout_on, capacity):
    """Each example's slice of the chunk's seq1 rows and of its seq2 rows,
    once every example has passed the checks; an error names the example."""
    if not seqs1 or len(seqs1) != len(seqs2):
        raise ShapeMismatch(f"a chunk needs as many seq2s as seq1s, and at least one: "
                            f"got {len(seqs1)} and {len(seqs2)}")
    if dropout_on and len(seqs1) > 1:
        raise ValueError(f"dropout runs one example at a time, not a chunk of {len(seqs1)}")
    rows1, rows2 = [], []
    end1 = end2 = 0
    for i, (seq1, seq2) in enumerate(zip(seqs1, seqs2)):
        for name, seq in (("seq1", seq1), ("seq2", seq2)):
            if seq.ndim != 1:
                raise ShapeMismatch(f"example {i}: {name}: ids must be 1-d")
            if seq.shape[0] > config.max_seq_len:
                raise ShapeMismatch(f"example {i}: {name}: length {seq.shape[0]} exceeds "
                                    f"max_seq_len {config.max_seq_len}")
        if seq1.shape[0] == 0:
            raise ShapeMismatch(f"example {i}: seq1 must not be empty")
        if config.mode == "single" and seq2.shape[0] > 0:
            raise ShapeMismatch(f"example {i}: seq2 must be empty in single mode")
        rows1.append(slice(end1, end1 + seq1.shape[0]))
        rows2.append(slice(end2, end2 + seq2.shape[0]))
        end1, end2 = rows1[-1].stop, rows2[-1].stop
    if max(end1, end2) > capacity:
        raise ShapeMismatch(f"the chunk's {end1} seq1 rows and {end2} seq2 rows do not both "
                            f"fit the workspace's {capacity}")
    return rows1, rows2


def _forward_internal(p, config, seq1, seq2, dropout_on, rng_seed, ws):
    """The pass's trace, and its dropout masks (the ``draws`` rows) or None.
    ``seq1`` and ``seq2`` are one example's arrays, or a chunk's lists."""
    one = isinstance(seq1, np.ndarray)
    seqs1, seqs2 = ([seq1], [seq2]) if one else (list(seq1), list(seq2))
    rows1, rows2 = _check_inputs(config, seqs1, seqs2, dropout_on, ws.capacity)
    ids1, ids2 = (seq1, seq2) if one else (np.concatenate(seqs1), np.concatenate(seqs2))
    n1, n2 = ids1.shape[0], ids2.shape[0]
    masks = None
    if dropout_on:
        # every mask of the run from one call: the same numbers, in the same
        # order, as one (max_seq_len, model_dim) draw per mask
        per_encoder = 1 + 2 * config.num_layers
        masks = ws.rows("draws", 2 * per_encoder + 1 if n2 else per_encoder)
        np.random.default_rng(rng_seed).random(out=masks)
        np.greater_equal(masks, config.dropout_rate, out=masks)  # 1.0 or 0.0
        masks /= 1.0 - config.dropout_rate
    fused = enc1_out = _encoder_forward(p, "enc1", ids1, rows1, config, masks, ws)
    enc2_out = None
    if n2:
        enc2_masks = None if masks is None else masks[1 + 2 * config.num_layers:]
        enc2_out = _encoder_forward(p, "enc2", ids2, rows2, config, enc2_masks, ws)
        cross_out = _attention(p, "cross", enc1_out, enc2_out, list(zip(rows1, rows2)),
                               config.num_cross_heads, ws)
        if masks is not None:
            cross_out *= masks[-1][:n1]
        fused = np.add(enc1_out, cross_out, out=cross_out)
    pooled, outputs = ws.rows("pooled", len(rows1)), ws.rows("outputs", len(rows1))
    for i, (r1, r2) in enumerate(zip(rows1, rows2)):
        # an example without context pools its first encoder's states alone
        row = np.add.reduce((fused if r2.stop > r2.start else enc1_out)[r1], axis=0,
                            out=pooled[i])
        row /= r1.stop - r1.start
        for m, head in enumerate(HEAD_NAMES):
            outputs[i, m] = row @ p[f"head.{head}.w"] + p[f"head.{head}.b"][0]
    # the attention slots hold the last example that ran each attention
    h, layers = config.num_heads, range(config.num_layers)
    last = len(seqs1[-1])
    c1, c2 = [(len(s1), len(s2)) for s1, s2 in zip(seqs1, seqs2) if len(s2)][-1] if n2 else (0, 0)
    trace = ForwardTrace(
        enc1_states=enc1_out,
        enc2_states=enc2_out,
        enc1_self_attn=[ws.heads(f"enc1.layer{i}.attn.probs", h, last, last) for i in layers],
        enc2_self_attn=[ws.heads(f"enc2.layer{i}.attn.probs", h, c2, c2) for i in layers if n2],
        cross_attn=ws.heads("cross.probs", config.num_cross_heads, c1, c2) if n2 else None,
        pooled=pooled[0] if one else pooled,
        outputs=outputs[0] if one else outputs,
    )
    return trace, masks


def forward(
    params: ModelParameters,
    config: ModelConfig,
    seq1: Union[np.ndarray, Sequence[np.ndarray]],
    seq2: Union[np.ndarray, Sequence[np.ndarray]],
    dropout_enabled: bool = False,
    rng_seed: int = 0,
    workspace: Optional[Workspace] = None,
) -> ForwardTrace:
    """The pass over one example (``seq1`` and ``seq2`` arrays of ids), or
    over a chunk of them (lists of such arrays, one pair per example) whose
    seq1s, and whose seq2s, fit the workspace's ``capacity`` rows in all. A
    chunk's ``outputs`` is (examples, 3) and its ``pooled`` (examples, d),
    and it runs without dropout. The trace's arrays live in ``workspace``
    (a fresh one of ``max_seq_len`` rows by default), so with a shared
    workspace they hold until its next use."""
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
