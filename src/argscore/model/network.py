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

Each example draws its dropout masks from its own seed, at ``max_seq_len``
rows each, cut to its sequences' lengths, so the seeded stream does not
depend on how long a sequence is or which chunk it runs in. An example draws
all its masks in one ``rng.random`` call of shape ``(count, max_seq_len,
model_dim)``, which reads the stream exactly as one draw per mask would; its
masks' first rows go to the rows it owns in the chunk's masks, which are made
``(draw >= rate) / (1 - rate)`` (inverted dropout) in place. The forward and
backward passes read a mask by its index: an encoder's embedding mask at 0,
its layer ``l``'s attention mask at ``1 + 2l`` and FFN mask at ``2 + 2l``;
encoder 1's block first, then encoder 2's (from ``1 + 2 * num_layers``), then
cross-attention's last. An example without context draws encoder 1's alone.

``forward`` and ``backward`` take a list of examples, each with a ``seq1``
and a ``seq2``, and run it in chunks: ``chunks`` packs consecutive examples
while their seq1s, and their seq2s, fit the workspace's rows. A chunk's
sequences are stacked: its seq1 ids back to back, example 0's rows first, and
likewise its seq2 ids, where an example without context owns no rows. Every
position-wise operation runs once over the stacked rows: the embedding gather
and positions, dropout, each layer norm, the attention projections, the FFN
and GELU. Self-attention, cross-attention (an example's first-encoder rows
onto its own context rows), pooling and the heads loop over the examples, so
no example sees another's rows, and each example's outputs are bitwise those
of a pass over it alone. numpy computes a one-row product by ``gemv``,
though, which rounds differently from the rows of a ``gemm``, so a one-row
sequence keeps that only in a chunk of its own; ``chunks`` packs it alone.

``backward`` runs a chunk's forward pass once and then its gradient, reading
each example's rows back from the workspace. Position-wise work runs once over
the stacked rows: dropout, ``gelu_grad``, each layer norm's input gradient,
the embedding rows' ``add.at``. Each parameter's gradient is summed per
example, in example order: the weight products, bias and layer-norm column
sums, the attention core, pooling and heads, and the positions. So every
tensor gets the same sequence of adds as one call per example would make, and
the same bytes. So do the products with a transposed weight (``dy @ w.T``),
which run per example too: OpenBLAS takes another path for a small product
with a transposed operand, so a chunk's product would round an example's rows
otherwise than a product over them alone.

A ``Workspace`` holds every array that the forward and backward passes
write: the dropout draws and masks, each layer's activations, attention
scores and probabilities, the FFN and GELU temporaries, and the backward
deltas. A row slot has ``CHUNK_SEQUENCES * max_seq_len`` rows; a slot of one
example's attention core is sized for one example. Each is used through
contiguous views. A slot named after a part of the model
(``enc1.layer0.ln2.xhat``, ``enc1.layer0.tanh``, ``cross.probs``) is the one
record of that part's forward pass, which ``backward`` reads back. The
attention probabilities of every example stay there, one after the other,
when ``backward`` runs the pass; after ``forward`` they hold the last
chunk's last example that ran that attention. ``forward`` and ``backward``
make a fresh workspace unless they are given one; ``train`` keeps one for
its run, batches and dev scoring alike, so a run of examples allocates none
of these arrays per example. What is still allocated per call is small: the
kernels' row statistics, the chunk's ids and positions, and numpy's own
iterator buffers. Results go there through ``out=`` into contiguous arrays
of the shapes the plain expressions would allocate, which keeps their BLAS
calls, their reduction order and every output byte.

Everything is float64. Encoders are pre-norm transformer blocks with learned
absolute positional embeddings and a GELU feed-forward.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

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


# a workspace's rows, as a multiple of max_seq_len: 128 and 512 rows scored
# no faster than 256 at max_seq_len 64
CHUNK_SEQUENCES = 4


class Workspace:
    """Every array that ``forward`` and ``backward`` write, made once for
    ``config`` and reused by every pass (see the module docstring).

    Each array is a named slot. A row slot has ``CHUNK_SEQUENCES *
    max_seq_len`` rows, its ``capacity``. In a chunk, example ``i`` owns the
    rows of an encoder's slots that follow those of examples ``0`` to
    ``i - 1``, and row ``i`` of ``pooled`` and ``outputs``.
    ``rows(name, n)`` is a slot's first ``n`` rows. A head slot is flat:
    ``heads(name, h, n, k, offset)`` is its ``h * n * k`` elements from
    ``offset`` on as a contiguous (h, n, k) array. A slot named after a layer
    norm, FFN or attention (``enc1.layer0.ln1.xhat``, ``enc1.layer0.tanh``,
    ``cross.probs``) is the one record of that part's forward pass over the
    chunk, and ``backward`` reads it from there. An attention's ``probs``
    hold room for ``capacity * max_seq_len`` per head: each example's
    probabilities, back to back, when ``backward`` runs the pass, and the
    last example's after ``forward``. The other slots hold temporaries that
    each part reuses in turn; those of one example's attention core are
    sized for one example. ``draws`` holds one example's dropout draws and
    ``masks`` the chunk's masks, read by index in the order the module
    docstring states."""

    def __init__(self, config: ModelConfig):
        L, d, f = config.max_seq_len, config.model_dim, config.ffn_dim
        R = CHUNK_SEQUENCES * L
        dual = config.mode == "dual"
        encoders = ("enc1", "enc2") if dual else ("enc1",)
        layers = [f"{enc}.layer{layer}" for enc in encoders for layer in range(config.num_layers)]
        heads = {f"{base}.attn": config.num_heads for base in layers}
        heads.update({"cross": config.num_cross_heads} if dual else {})
        norms = [f"{base}.{ln}" for base in layers for ln in ("ln1", "ln2")]
        norms += [f"{enc}.final_ln" for enc in encoders]
        square = max(heads.values()) * L * L
        shapes = {f"{ln}.xhat": (R, d) for ln in norms}
        shapes.update({f"{enc}.final_ln.y": (R, d) for enc in encoders})
        shapes.update({f"{ln}.rstd": (R,) for ln in norms})
        shapes.update({f"{base}.{name}": (R, f) for base in layers for name in ("h1", "tanh")})
        shapes.update({f"{attn}.{name}": (R, d) for attn in heads
                       for name in ("q", "k", "v", "ctx")})
        shapes.update({f"{attn}.probs": (h * L * R,) for attn, h in heads.items()})
        # the dropout masks: a (max_seq_len, model_dim) block per use in one pass
        count = (1 + 2 * config.num_layers) * len(encoders) + dual
        shapes.update(draws=(count, L, d), masks=(count, R, d))
        shapes.update(dict.fromkeys(("x", "y", "proj", "pooled", "dpooled", "denc1", "dx",
                                     "dmasked", "dy", "dln", "dctx", "dq", "dk", "dv", "dxq",
                                     "dxkv", "dxkv_v"), (R, d)))
        shapes.update(outputs=(R, 3), a=(R, f), dh1=(R, f))
        shapes.update(dict.fromkeys(("scores", "dscores"), (square,)))
        shapes.update(dict.fromkeys(("heads", "dvh", "dqh", "dkh"), (L * d,)))
        # the kernels' one temporary over a chunk, and a backward pass's (rows, d) one
        shapes["scratch"] = (R * max(d, f),)
        shapes["column"] = (max(d, f),)  # a bias's gradient
        shapes["product"] = (d * max(d, f),)  # a weight's gradient
        self.slots = slots = {name: np.empty(shape) for name, shape in shapes.items()}
        self.scratch, self.column = slots["scratch"], slots["column"]
        self.product = {shape: slots["product"][: shape[0] * shape[1]].reshape(shape)
                        for shape in ((d, d), (d, f), (f, d))}

    @property
    def capacity(self) -> int:
        """The rows a chunk's seq1s, and its seq2s, may each take in all."""
        return self.slots["x"].shape[0]

    def rows(self, name: str, n: int) -> np.ndarray:
        return self.slots[name][:n]

    def heads(self, name: str, h: int, n: int, k: int, offset: int = 0) -> np.ndarray:
        return self.slots[name][offset : offset + h * n * k].reshape(h, n, k)


def chunks(examples: Sequence, capacity: int) -> Iterator[slice]:
    """Consecutive runs of ``examples`` (each with a ``seq1`` and a ``seq2``),
    each as long as its seq1s, and its seq2s, fit ``capacity`` rows in all.
    An example with a one-row sequence is a run of its own: numpy computes a
    one-row product by ``gemv``, which rounds differently from the rows of a
    ``gemm``."""
    start = rows1 = rows2 = 0
    for i, example in enumerate(examples):
        n1, n2 = len(example.seq1), len(example.seq2)
        if i > start and (rows1 + n1 > capacity or rows2 + n2 > capacity
                          or 1 in (n1, n2, rows1, rows2)):
            yield slice(start, i)
            start, rows1, rows2 = i, 0, 0
        rows1, rows2 = rows1 + n1, rows2 + n2
    if start < len(examples):
        yield slice(start, len(examples))


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


def _product_t(x: np.ndarray, w: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """``x @ w.T`` into ``out``, one product per example's ``rows``. OpenBLAS
    takes another path for a transposed operand when a product is small, so
    one product over a chunk's rows would round an example's rows
    differently from a product over them alone."""
    for r in rows:
        np.matmul(x[r], w.T, out=out[r])
    return out


def _dropped(dx: np.ndarray, masks: Optional[np.ndarray], i: int, ws: Workspace) -> np.ndarray:
    """``dx`` times mask ``i`` of ``masks`` in the workspace, or ``dx`` when
    dropout is off (``masks`` is None)."""
    n = dx.shape[0]
    return dx if masks is None else np.multiply(dx, masks[i][:n], out=ws.rows("dmasked", n))


def _layer_norm(p, ln, x, ws, y_slot):
    """``kernels.layer_norm`` of ``x`` by the ``ln`` parameters, into its
    slots; returns its output, which goes into ``y_slot``."""
    n = x.shape[0]
    return kernels.layer_norm(x, p[f"{ln}.gamma"], p[f"{ln}.beta"], LN_EPS, out=(
        ws.rows(y_slot, n), ws.rows(f"{ln}.xhat", n), ws.rows(f"{ln}.rstd", n)))[0]


def _layer_norm_output(p, ln, n, ws):
    """The output of layer norm ``ln`` over ``n`` rows, made again from its
    ``xhat`` by ``kernels.layer_norm``'s operations, in the ``y`` slot."""
    y = np.multiply(ws.rows(f"{ln}.xhat", n), p[f"{ln}.gamma"], out=ws.rows("y", n))
    y += p[f"{ln}.beta"]
    return y


def _layer_norm_backward(p, ln, dy, rows, ws, slot, grads):
    """The gradient at the input of layer norm ``ln``, into ``slot``, over all
    rows at once; adds each example's (``rows``) gradients of its parameters
    into ``grads``."""
    (n, d), xhat = dy.shape, ws.rows(f"{ln}.xhat", dy.shape[0])
    dx = kernels.layer_norm_grad(dy, p[f"{ln}.gamma"], xhat, ws.rows(f"{ln}.rstd", n),
                                 out=ws.rows(slot, n), scratch=ws.scratch)
    dgamma = np.multiply(dy, xhat, out=ws.scratch[: n * d].reshape(n, d))
    for r in rows:
        _add_column_sum(grads[f"{ln}.gamma"], dgamma[r], ws)
        _add_column_sum(grads[f"{ln}.beta"], dy[r], ws)
    return dx


def _split_qkv(prefix, qrows, krows, num_heads, ws):
    """The queries of the ``qrows`` and the keys and values of the ``krows``
    (slices) in the ``prefix`` slots, split into heads."""
    return (_split_heads(ws.slots[f"{prefix}.q"][qrows], num_heads),
            _split_heads(ws.slots[f"{prefix}.k"][krows], num_heads),
            _split_heads(ws.slots[f"{prefix}.v"][krows], num_heads))


def _attention(p, prefix, xq, xkv, pairs, num_heads, ws, keep):
    """Multi-head attention of ``xq`` onto ``xkv``; the output goes to
    ``proj``, and what ``backward`` reads to the ``prefix`` slots. The
    projections run over all rows at once. Each (query rows, key rows) slice
    pair of ``pairs`` is an example, whose queries attend to its own keys
    only; an example without keys gets a zero context. With ``keep`` each
    example's probabilities follow the last one's, for ``backward``; without,
    each overwrites the last."""
    (nq, d), dh = xq.shape, xq.shape[1] // num_heads
    for name, x in (("q", xq), ("k", xkv), ("v", xkv)):
        projected = np.matmul(x, p[f"{prefix}.w{name}"], out=ws.rows(f"{prefix}.{name}", len(x)))
        projected += p[f"{prefix}.b{name}"]
    ctx = ws.rows(f"{prefix}.ctx", nq)
    offset = 0
    for qrows, krows in pairs:
        if krows.start == krows.stop:
            ctx[qrows] = 0.0
            continue
        qh, kh, vh = _split_qkv(prefix, qrows, krows, num_heads, ws)
        n, k = qh.shape[1], kh.shape[1]
        scores = np.matmul(qh, kh.transpose(0, 2, 1), out=ws.heads("scores", num_heads, n, k))
        scores *= 1.0 / math.sqrt(dh)
        probs = kernels.masked_softmax(
            scores, out=ws.heads(f"{prefix}.probs", num_heads, n, k, offset))
        offset += probs.size if keep else 0
        heads = np.matmul(probs, vh, out=ws.heads("heads", num_heads, n, dh))
        _merge_heads(heads, ctx[qrows])
    out = np.matmul(ctx, p[f"{prefix}.wo"], out=ws.rows("proj", nq))
    out += p[f"{prefix}.bo"]
    return out


def _attention_backward(p, prefix, xq, xkv, pairs, num_heads, dout, grads, ws):
    """Returns (dxq, dxkv), in the ``dxq`` and ``dxkv`` slots, and adds each
    example's parameter gradients, in order; reads the forward pass from the
    ``prefix`` slots. ``pairs`` are the (query rows, key rows) of the
    examples with keys; the rows of ``dxq`` of an example without are not
    written from its own ``dout``, and are not to be read."""
    (nq, d), nk = xq.shape, xkv.shape[0]
    dh = d // num_heads
    scale = 1.0 / math.sqrt(dh)
    ctx = ws.rows(f"{prefix}.ctx", nq)
    queries, keys = [q for q, _ in pairs], [k for _, k in pairs]
    dctx = _product_t(dout, p[f"{prefix}.wo"], queries, ws.rows("dctx", nq))
    dq, dk, dv = ws.rows("dq", nq), ws.rows("dk", nk), ws.rows("dv", nk)
    offset = 0
    for qrows, krows in pairs:
        _add_product(grads[f"{prefix}.wo"], ctx[qrows].T, dout[qrows], ws)
        _add_column_sum(grads[f"{prefix}.bo"], dout[qrows], ws)
        qh, kh, vh = _split_qkv(prefix, qrows, krows, num_heads, ws)
        n, k = qh.shape[1], kh.shape[1]
        probs = ws.heads(f"{prefix}.probs", num_heads, n, k, offset)
        offset += probs.size
        dctx_h = _split_heads(dctx[qrows], num_heads)
        # in the slot of the forward pass's scores
        dprobs = np.matmul(dctx_h, vh.transpose(0, 2, 1), out=ws.heads("scores", num_heads, n, k))
        dvh = np.matmul(probs.transpose(0, 2, 1), dctx_h, out=ws.heads("dvh", num_heads, k, dh))
        dscores = kernels.masked_softmax_grad(probs, dprobs,
                                              out=ws.heads("dscores", num_heads, n, k))
        dqh = np.matmul(dscores, kh, out=ws.heads("dqh", num_heads, n, dh))
        dqh *= scale
        dkh = np.matmul(dscores.transpose(0, 2, 1), qh, out=ws.heads("dkh", num_heads, k, dh))
        dkh *= scale
        _merge_heads(dqh, dq[qrows])
        _merge_heads(dkh, dk[krows])
        _merge_heads(dvh, dv[krows])
        for name, x, dy, rows in (("q", xq, dq, qrows), ("k", xkv, dk, krows),
                                  ("v", xkv, dv, krows)):
            _add_product(grads[f"{prefix}.w{name}"], x[rows].T, dy[rows], ws)
            _add_column_sum(grads[f"{prefix}.b{name}"], dy[rows], ws)
    dxq = _product_t(dq, p[f"{prefix}.wq"], queries, ws.rows("dxq", nq))
    dxkv = _product_t(dk, p[f"{prefix}.wk"], keys, ws.rows("dxkv", nk))
    dxkv += _product_t(dv, p[f"{prefix}.wv"], keys, ws.rows("dxkv_v", nk))
    return dxq, dxkv


def _encoder_forward(p, enc, ids, rows, config, masks, ws, keep):
    """The encoder's output, in its ``final_ln.y`` slot. ``ids`` are the
    chunk's sequences back to back, and ``rows`` the slices of them that its
    examples with rows own. ``masks`` holds its inverted-dropout masks by
    index: the embedding's at 0, layer ``l``'s attention at ``1 + 2l`` and
    FFN at ``2 + 2l``; None turns dropout off. ``keep`` is as for
    ``_attention``."""
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
    pairs = [(r, r) for r in rows]
    for layer in range(config.num_layers):
        base = f"{enc}.layer{layer}"
        y1 = _layer_norm(p, f"{base}.ln1", x, ws, "y")
        attn_out = _attention(p, f"{base}.attn", y1, y1, pairs, config.num_heads, ws, keep)
        if masks is not None:
            attn_out *= masks[1 + 2 * layer][:n]
        x += attn_out
        y2 = _layer_norm(p, f"{base}.ln2", x, ws, "y")
        h1 = np.matmul(y2, p[f"{base}.ffn.w1"], out=ws.rows(f"{base}.h1", n))
        h1 += p[f"{base}.ffn.b1"]
        a = kernels.gelu(h1, out=ws.rows("a", n), scratch=ws.scratch,
                         tanh=ws.rows(f"{base}.tanh", n))
        ffn_out = np.matmul(a, p[f"{base}.ffn.w2"], out=ws.rows("proj", n))
        ffn_out += p[f"{base}.ffn.b2"]
        if masks is not None:
            ffn_out *= masks[2 + 2 * layer][:n]
        x += ffn_out
    out = _layer_norm(p, f"{enc}.final_ln", x, ws, f"{enc}.final_ln.y")
    return out


def _encoder_backward(p, enc, ids, rows, config, masks, dout, grads, ws):
    """Reads the forward pass of ``ids`` from the encoder's slots and
    ``masks`` as ``_encoder_forward`` does, and ``dout`` before it writes any
    slot that ``dout`` may be. Position-wise work runs over all rows at once;
    each parameter's gradient takes one add per example (``rows``), in order."""
    n = ids.shape[0]
    dx = _layer_norm_backward(p, f"{enc}.final_ln", dout, rows, ws, "dx", grads)
    for layer in reversed(range(config.num_layers)):
        base = f"{enc}.layer{layer}"
        df = _dropped(dx, masks, 2 + 2 * layer, ws)
        h1, tanh = ws.rows(f"{base}.h1", n), ws.rows(f"{base}.tanh", n)
        # the GELU output made again by gelu's operations, (h1 * 0.5) * (tanh + 1):
        # a slot per layer fewer, as are the layer norms' outputs
        a = np.multiply(h1, 0.5, out=ws.rows("a", n))
        a *= np.add(tanh, 1.0, out=ws.rows("dh1", n))
        for r in rows:
            _add_product(grads[f"{base}.ffn.w2"], a[r].T, df[r], ws)
            _add_column_sum(grads[f"{base}.ffn.b2"], df[r], ws)
        da = _product_t(df, p[f"{base}.ffn.w2"], rows, a)
        dh1 = kernels.gelu_grad(da, h1, tanh, out=ws.rows("dh1", n), scratch=ws.scratch)
        y2 = _layer_norm_output(p, f"{base}.ln2", n, ws)
        for r in rows:
            _add_product(grads[f"{base}.ffn.w1"], y2[r].T, dh1[r], ws)
            _add_column_sum(grads[f"{base}.ffn.b1"], dh1[r], ws)
        dy2 = _product_t(dh1, p[f"{base}.ffn.w1"], rows, ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln2", dy2, rows, ws, "dln", grads)  # dx1
        dattn = _dropped(dx, masks, 1 + 2 * layer, ws)
        # self-attention: queries and keys/values are the same states
        y1 = _layer_norm_output(p, f"{base}.ln1", n, ws)
        dy1q, dy1kv = _attention_backward(p, f"{base}.attn", y1, y1, [(r, r) for r in rows],
                                          config.num_heads, dattn, grads, ws)
        dy1 = np.add(dy1q, dy1kv, out=ws.rows("dy", n))
        dx += _layer_norm_backward(p, f"{base}.ln1", dy1, rows, ws, "dln", grads)
    if masks is not None:
        dx *= masks[0][:n]
    np.add.at(grads[f"{enc}.tok_emb"], ids, dx)  # in row order: example 0's adds first
    positions = grads[f"{enc}.pos_emb"]
    for r in rows:
        positions[: r.stop - r.start] += dx[r]


def _check_examples(config, examples, seeds):
    """Raises on the first example, by index, that the passes cannot run,
    and unless ``seeds`` is None or holds a seed per example."""
    if seeds is not None and (np.ndim(seeds) != 1 or len(seeds) != len(examples)):
        raise ValueError(f"{len(examples)} examples need a seed per example, got {seeds!r}")
    for i, example in enumerate(examples):
        for name in ("seq1", "seq2"):
            seq = getattr(example, name)
            if seq.ndim != 1:
                raise ShapeMismatch(f"example {i}: {name}: ids must be 1-d")
            if seq.shape[0] > config.max_seq_len:
                raise ShapeMismatch(f"example {i}: {name}: length {seq.shape[0]} exceeds "
                                    f"max_seq_len {config.max_seq_len}")
        if example.seq1.shape[0] == 0:
            raise ShapeMismatch(f"example {i}: seq1 must not be empty")
        if config.mode == "single" and example.seq2.shape[0] > 0:
            raise ShapeMismatch(f"example {i}: seq2 must be empty in single mode")


def _stack(seqs):
    """``seqs`` back to back, and the slice of those rows that each owns."""
    rows, end = [], 0
    for seq in seqs:
        rows.append(slice(end, end + seq.shape[0]))
        end += seq.shape[0]
    return np.concatenate(seqs), rows


def _draw_masks(config, seeds, rows1, rows2, ws):
    """The chunk's inverted-dropout masks, in the ``masks`` slot. Each example
    draws its block of ``(max_seq_len, model_dim)`` masks from its own seed,
    in one ``rng.random`` call that reads the stream exactly as one draw per
    mask would, and its masks' first rows go to the rows it owns."""
    per_encoder = 1 + 2 * config.num_layers
    dual = any(r2.stop > r2.start for r2 in rows2)
    masks = ws.rows("masks", 2 * per_encoder + 1 if dual else per_encoder)
    draws = ws.slots["draws"]
    for seed, r1, r2 in zip(seeds, rows1, rows2):
        n1, n2 = r1.stop - r1.start, r2.stop - r2.start
        drawn = draws[: 2 * per_encoder + 1 if n2 else per_encoder]
        np.random.default_rng(seed).random(out=drawn)
        masks[:per_encoder, r1] = drawn[:per_encoder, :n1]
        if n2:
            masks[per_encoder:-1, r2] = drawn[per_encoder:-1, :n2]
            masks[-1, r1] = drawn[-1, :n1]
    used = masks[:, : max(rows1[-1].stop, rows2[-1].stop)]
    np.greater_equal(used, config.dropout_rate, out=used)  # 1.0 or 0.0
    used /= 1.0 - config.dropout_rate
    return masks


def _forward_chunk(p, config, chunk, seeds, ws, keep=False):
    """The pass over ``chunk``, a run of examples that ``chunks`` packed,
    into the workspace, its outputs in the ``outputs`` rows. Returns its
    dropout masks (the ``masks`` rows, or None without ``seeds`` or at a
    zero ``dropout_rate``), and its
    stacked seq1 ids and each example's slice of them, and likewise its seq2
    ids. ``keep`` keeps every example's attention probabilities, for
    ``backward``."""
    ids1, rows1 = _stack([example.seq1 for example in chunk])
    ids2, rows2 = _stack([example.seq2 for example in chunk])
    n1, n2 = ids1.shape[0], ids2.shape[0]
    masks = None
    if seeds is not None and config.dropout_rate > 0.0:
        masks = _draw_masks(config, seeds, rows1, rows2, ws)
    pairs = [(r1, r2) for r1, r2 in zip(rows1, rows2) if r2.stop > r2.start]
    fused = enc1_out = _encoder_forward(p, "enc1", ids1, rows1, config, masks, ws, keep)
    if n2:
        enc2_masks = None if masks is None else masks[1 + 2 * config.num_layers:]
        enc2_out = _encoder_forward(p, "enc2", ids2, [r2 for _, r2 in pairs], config,
                                    enc2_masks, ws, keep)
        cross_out = _attention(p, "cross", enc1_out, enc2_out, list(zip(rows1, rows2)),
                               config.num_cross_heads, ws, keep)
        if masks is not None:
            cross_out *= masks[-1][:n1]
        fused = np.add(enc1_out, cross_out, out=cross_out)
    pooled, outputs = ws.rows("pooled", len(chunk)), ws.rows("outputs", len(chunk))
    for i, (r1, r2) in enumerate(zip(rows1, rows2)):
        # an example without context pools its first encoder's states alone
        row = np.add.reduce((fused if r2.stop > r2.start else enc1_out)[r1], axis=0,
                            out=pooled[i])
        row /= r1.stop - r1.start
        for m, head in enumerate(HEAD_NAMES):
            outputs[i, m] = row @ p[f"head.{head}.w"] + p[f"head.{head}.b"][0]
    return masks, ids1, rows1, ids2, rows2


def _backward_chunk(p, config, chunk, targets, seeds, grads, ws):
    """Each example's loss, after adding the chunk's gradient into
    ``grads``."""
    masks, ids1, rows1, ids2, rows2 = _forward_chunk(p, config, chunk, seeds, ws, keep=True)
    count, d = len(chunk), config.model_dim
    diff = ws.rows("outputs", count) - targets
    losses = np.mean(diff ** 2, axis=1).tolist()
    douts = 2.0 * diff / 3.0

    pooled = ws.rows("pooled", count)
    vec = ws.column[:d]
    for i in range(count):
        for m, head in enumerate(HEAD_NAMES):
            grads[f"head.{head}.w"] += np.multiply(douts[i, m], pooled[i], out=vec)
            grads[f"head.{head}.b"] += douts[i, m]
    dpooled = ws.rows("dpooled", count)
    dpooled.fill(0.0)
    term = ws.scratch[: count * d].reshape(count, d)
    for m, head in enumerate(HEAD_NAMES):
        dpooled += np.multiply(douts[:, m : m + 1], p[f"head.{head}.w"], out=term)
    lengths = np.array([r.stop - r.start for r in rows1], dtype=np.float64)
    np.divide(dpooled, lengths[:, None], out=dpooled)  # each row pools at 1/n
    n1, n2 = ids1.shape[0], ids2.shape[0]
    denc1 = ws.rows("denc1", n1)
    for i, r in enumerate(rows1):
        denc1[r] = dpooled[i]
    if n2:
        pairs = [(r1, r2) for r1, r2 in zip(rows1, rows2) if r2.stop > r2.start]
        dcross = _dropped(denc1, masks, -1, ws)
        dxq, dxkv = _attention_backward(p, "cross", ws.rows("enc1.final_ln.y", n1),
                                        ws.rows("enc2.final_ln.y", n2), pairs,
                                        config.num_cross_heads, dcross, grads, ws)
        for r1, _ in pairs:  # dxq's rows of an example without context are not its own
            denc1[r1] += dxq[r1]
        enc2_masks = None if masks is None else masks[1 + 2 * config.num_layers:]
        _encoder_backward(p, "enc2", ids2, [r2 for _, r2 in pairs], config, enc2_masks,
                          dxkv, grads, ws)
    _encoder_backward(p, "enc1", ids1, rows1, config, masks, denc1, grads, ws)
    return losses


def forward(
    params: ModelParameters,
    config: ModelConfig,
    examples: Sequence,
    seeds: Optional[Sequence[int]] = None,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """The ``(n, 3)`` head outputs of ``n`` examples, each with a ``seq1``
    and a ``seq2`` array of ids. With ``seeds``, one per example, and a
    nonzero ``dropout_rate``, dropout is on and each example draws its masks
    from its own seed. Runs one pass per chunk (``chunks``) in
    ``workspace``, a fresh one by default."""
    _check_examples(config, examples, seeds)
    ws = Workspace(config) if workspace is None else workspace
    outputs = np.empty((len(examples), 3))
    for run in chunks(examples, ws.capacity):
        _forward_chunk(params, config, examples[run], None if seeds is None else seeds[run], ws)
        outputs[run] = ws.rows("outputs", run.stop - run.start)
    return outputs


def backward(
    params: ModelParameters,
    config: ModelConfig,
    examples: Sequence,
    targets: np.ndarray,
    seeds: Optional[Sequence[int]] = None,
    grads: Optional[ModelParameters] = None,
    workspace: Optional[Workspace] = None,
) -> tuple[list[float], ModelParameters]:
    """Each example's loss (mean squared error over the three heads against
    its row of the ``(n, 3)`` ``targets``), as a list, and the exact gradient
    of their sum for every parameter tensor. ``examples``, ``seeds`` and
    ``workspace`` are as for ``forward``; with dropout, each example's seed
    must be that of the paired forward. Each chunk's forward pass runs once,
    into the workspace, and its gradient reads each example's rows back.

    The gradient is added into ``grads``, which is returned; it defaults to a
    fresh ``params.zeros_like()``. Each example's gradient is added in order:
    every tensor gets the same adds as one call per example would make, so
    one accumulator can sum a whole batch, and embedding rows no token hits
    are left untouched."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (len(examples), 3):
        raise ShapeMismatch(f"targets must have shape {(len(examples), 3)}, "
                            f"got {targets.shape}")
    _check_examples(config, examples, seeds)
    ws = Workspace(config) if workspace is None else workspace
    if grads is None:
        grads = params.zeros_like()
    losses = []
    for run in chunks(examples, ws.capacity):
        losses += _backward_chunk(params, config, examples[run], targets[run],
                                  None if seeds is None else seeds[run], grads, ws)
    return losses, grads
