"""Training loop: similar-quality masking, Adam with global-norm clipping and a
linearly decaying learning rate, a divergence guard, per-epoch dev selection,
and gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from argscore import evaluation
from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER
from argscore.corpus import ArgumentRecord, Dataset
from argscore.model import (
    EncodedExample,
    ModelConfig,
    ModelParameters,
    Vocabulary,
    Workspace,
    backward,
    encode_input,
    forward,
)
from argscore.model import kernels
from argscore.seeding import derive_seed, stream


# Divergence ceiling on a per-example loss. Targets lie in [0, 1], so on a
# working model a per-example MSE stays near or below 1: the largest measured
# is 0.88 in `argscore synth` (seed 11) and 0.61 in the benchmark workloads.
# A loss four orders of magnitude above that is divergence, not a hard example.
LOSS_CEILING = 1e4


class NonFiniteLoss(Exception):
    """Training diverged and was stopped. Raised when an example loss is
    non-finite or above ``LOSS_CEILING``, when the pre-clip gradient norm of a
    batch is non-finite, or when a parameter is non-finite after an update.

    ``diagnostics`` holds only plain numbers and strings (JSON-serialisable):
    ``reason``, ``epoch``, ``step``, ``learning_rate`` (the rate of the step
    that was being taken), ``loss_ceiling``, and, as the reason requires,
    ``record_id`` and ``loss`` or ``grad_norm``."""

    def __init__(self, diagnostics: dict):
        self.step = diagnostics["step"]
        self.diagnostics = diagnostics
        super().__init__(f"training diverged at step {self.step}: {diagnostics['reason']}")


@dataclass
class TrainConfig:
    """Training settings. ``learning_rate`` is the peak rate: ``train`` decays
    it linearly to zero over the run (see ``learning_rate_at``)."""

    gamma: float = 0.5
    batch_size: int = 8
    learning_rate: float = 1e-3
    epochs: int = 10
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    grad_clip_norm: float = 1.0
    rng_seed: int = 0
    active_kinds: frozenset[AugmentationKind] = frozenset(KIND_ORDER)

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive and finite")
        if not self.grad_clip_norm > 0:
            raise ValueError("grad_clip_norm must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not all(0.0 <= beta < 1.0 for beta in self.adam_betas):
            raise ValueError("adam_betas must each lie in [0, 1)")
        if not (self.adam_eps > 0 and math.isfinite(self.adam_eps)):
            raise ValueError("adam_eps must be positive and finite")


@dataclass
class TrainState:
    step: int = 0
    epochs_run: int = 0
    loss_history: list[float] = field(default_factory=list)
    dev_spearman_history: list[float] = field(default_factory=list)
    best_epoch: int = -1
    truncated_tokens: int = 0


def apply_masking(active: frozenset, gamma: float, rng: np.random.Generator) -> frozenset:
    """The kinds one training example sees: ``active`` with probability gamma,
    else ``active`` without similar-quality. Always consumes exactly one
    uniform draw."""
    if rng.random() < gamma:
        return active
    return active - {AugmentationKind.SIMILAR_QUALITY}


class AdamOptimizer:
    """Adam (Kingma & Ba, arXiv:1412.6980): one ``kernels.adam_update`` over
    ``params.flat``, with moments ``m`` and ``v`` of its size; on ``train``'s
    compact parameters they cover only the table rows the train split uses.
    That is exact: an element whose gradient, m and v are zero does not change
    (``p - lr * 0 / (sqrt(0) + eps)`` is ``p``), and an unused row's are zero.
    The update's block scratch is made once, here, and reused by every step."""

    def __init__(self, params: ModelParameters, tcfg: TrainConfig):
        self.t = 0
        self.betas, self.eps = tcfg.adam_betas, tcfg.adam_eps
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.scratch = kernels.adam_scratch(params.flat.size)

    def step(self, params: ModelParameters, grads: ModelParameters, lr: float) -> None:
        self.t += 1
        (beta1, beta2), t = self.betas, self.t
        kernels.adam_update(params.flat, grads.flat, self.m, self.v, lr, beta1, beta2, self.eps,
                            1.0 - beta1 ** t, 1.0 - beta2 ** t, scratch=self.scratch)


def clip_gradients(grads: ModelParameters, max_norm: float, rows: Optional[dict] = None,
                   scratch: Optional[np.ndarray] = None) -> float:
    """Scale the gradient in place so its global L2 norm is at most max_norm;
    returns the pre-clip norm. The squares are summed tensor by tensor: a
    single pass over ``grads.flat`` rounds differently, and ``argscore synth``
    (seed 11) magnifies that into a failed acceptance check. So a tensor that
    ``rows`` maps to its rows' indices in a full table is summed at those rows
    of ``scratch``, a zeroed array of the table's shape, to round as the table."""
    rows = rows or {}

    def square_sum(name: str, g: np.ndarray) -> float:
        if name not in rows:
            return float((g ** 2).sum())
        scratch[rows[name]] = g ** 2
        total = float(scratch.sum())
        scratch[rows[name]] = 0.0
        return total

    total = math.sqrt(sum(square_sum(name, g) for name, g in grads.items()))
    if total > max_norm and total > 0:
        grads.flat *= max_norm / total
    return total


def learning_rate_at(peak: float, step: int, total_steps: int) -> float:
    """Linear decay: ``peak`` at step 0, falling to zero at ``total_steps``.
    A pure function of the step, so the rate of any step can be recomputed."""
    return peak * (1.0 - step / total_steps)


def check_splits(dataset: Dataset) -> tuple[list[ArgumentRecord], list[ArgumentRecord]]:
    """The train and dev records, once ``train`` can run on them: the train
    split is not empty, every train and dev record has gold scores, and a dev
    split has no records or at least two. Raises ``ValueError`` otherwise."""
    train_recs = dataset.split("train")
    dev_recs = dataset.split("dev")
    if not train_recs:
        raise ValueError("train split is empty")
    for rec in train_recs:
        if rec.labels is None:
            raise ValueError(f"training record {rec.id!r} has no gold scores")
    if any(rec.labels is None for rec in dev_recs):
        raise ValueError("dev split contains records without gold scores")
    if len(dev_recs) == 1:
        raise ValueError("dev split has one record; correlations need at least two")
    return train_recs, dev_recs


def train(
    params: ModelParameters,
    config: ModelConfig,
    tcfg: TrainConfig,
    dataset: Dataset,
    augmentations: dict[str, AugmentationSet],
    vocab: Vocabulary,
) -> tuple[ModelParameters, TrainState, AdamOptimizer]:
    """Optimize on the train split; model selection by mean dev Spearman.

    The dev split is encoded once, with ``tcfg.active_kinds`` (no masking).
    After each epoch ``evaluation.predict`` and ``evaluation.score`` score it,
    and the parameters of the epoch with the highest ``mean_spearman()`` are
    returned; a row whose correlations are all undefined counts as 0.0.
    ``check_splits`` checks the splits first; ``params`` is not changed.

    Masking leaves each train record one of two kind sets, and each record is
    encoded before the first step under each that ``tcfg.gamma`` can draw:
    with gamma 1 only ``active_kinds``, with gamma 0 only ``active_kinds``
    without similar-quality. Training runs on compact parameters: each
    ``*.tok_emb`` table cut to the rows that those encodings and the dev
    split's use (ids renumbered to match; ``forward`` and ``backward`` index
    by id) and every other tensor whole. The weights, gradients, best
    snapshot and Adam moments take that layout, and dev is scored on the
    compact weights. It is exact: a row that no train encoding uses has a
    zero gradient at every step, so Adam leaves it unchanged, and
    ``clip_gradients`` sums a cut table's squares as the full table's. The
    one full-size copy of ``params`` is made at the end, once the run's
    workspace and gradients are released, and takes the best weights.

    Each visit re-masks similar-quality, in visit order, and
    ``truncated_tokens`` count every visit. A batch's visits run through one
    ``backward`` in the run's one ``Workspace``, with each example's own
    dropout seed; each example's gradient is added into the accumulator in
    visit order. Each batch's sum is averaged, clipped and applied by one Adam
    step, at a rate falling linearly from ``tcfg.learning_rate`` to zero over
    the run's ``epochs * ceil(n_train / batch_size)`` steps. ``NonFiniteLoss``
    stops training on the first example, in visit order, whose loss is
    non-finite or above ``LOSS_CEILING``, on a non-finite pre-clip gradient
    norm, or on a non-finite parameter after an update (at the first, any of
    ``params``). With no dev split (or zero epochs) the final parameters are
    returned."""
    train_recs, dev_recs = check_splits(dataset)
    target_rows = np.array([r.labels.normalized() for r in train_recs])
    shuffle_rng = stream(tcfg.rng_seed, "shuffle")
    mask_rng = stream(tcfg.rng_seed, "masking")
    state = TrainState()
    kept, dropped = tcfg.active_kinds, tcfg.active_kinds - {AugmentationKind.SIMILAR_QUALITY}
    # apply_masking keeps similar-quality when its draw in [0, 1) is below gamma
    kind_sets = dict.fromkeys(kinds for kinds, drawn in ((kept, tcfg.gamma > 0.0),
                                                         (dropped, tcfg.gamma < 1.0)) if drawn)
    encoded = {(j, kinds): encode_input(rec, augmentations.get(rec.id), vocab, config, kinds)
               for j, rec in enumerate(train_recs) for kinds in kind_sets}
    dev_encoded = [encode_input(rec, augmentations.get(rec.id), vocab, config, tcfg.active_kinds)
                   for rec in dev_recs]

    cut = {name: slice(None) for name in params.shapes}  # the rows of the compact tensors
    tables, renumber = {}, {}  # renumber: seq1 or seq2 -> the compact row of each full id
    every = [*encoded.values(), *dev_encoded]
    for table, seq in (("enc1.tok_emb", "seq1"), ("enc2.tok_emb", "seq2")):
        hit = np.zeros(config.vocab_size, dtype=bool)
        hit[np.concatenate([getattr(enc, seq) for enc in every])] = True
        renumber[seq] = np.cumsum(hit) - 1  # np.unique would import numpy.ma
        if table in cut:
            cut[table] = tables[table] = np.flatnonzero(hit)

    def compact(enc: EncodedExample) -> EncodedExample:
        return EncodedExample(renumber["seq1"][enc.seq1], renumber["seq2"][enc.seq2],
                              enc.truncated_tokens)

    encoded = {key: compact(enc) for key, enc in encoded.items()}
    dev_encoded = [compact(enc) for enc in dev_encoded]
    tensors = [params[name][rows] for name, rows in cut.items()]
    weights = ModelParameters(np.concatenate([t.ravel() for t in tensors]),
                              {name: t.shape for name, t in zip(cut, tensors)})
    del tensors  # the tables' rows, copied into weights
    grads = weights.zeros_like()
    best = weights.zeros_like()
    scratch = np.zeros((config.vocab_size, config.model_dim))  # for clip_gradients
    optimizer = AdamOptimizer(weights, tcfg)
    input_finite = bool(np.isfinite(params.flat).all())
    workspace = Workspace(config)

    best_score = -np.inf
    total_steps = tcfg.epochs * math.ceil(len(train_recs) / tcfg.batch_size)

    def diverged(reason: str, **values) -> NonFiniteLoss:
        return NonFiniteLoss({
            "reason": reason, "epoch": epoch, "step": state.step, **values,
            "learning_rate": lr, "loss_ceiling": LOSS_CEILING,
        })

    for epoch in range(tcfg.epochs):
        perm = shuffle_rng.permutation(len(train_recs))
        epoch_losses = []
        for start in range(0, len(perm), tcfg.batch_size):
            batch = perm[start : start + tcfg.batch_size].tolist()
            lr = learning_rate_at(tcfg.learning_rate, state.step, total_steps)
            grads.flat.fill(0.0)
            visits = [encoded[j, apply_masking(tcfg.active_kinds, tcfg.gamma, mask_rng)]
                      for j in batch]
            seeds = [derive_seed(tcfg.rng_seed, 3, epoch, j) for j in batch]
            losses, grads = backward(weights, config, visits, target_rows[batch], seeds,
                                     grads=grads, workspace=workspace)
            for j, enc, example_loss in zip(batch, visits, losses):
                state.truncated_tokens += enc.truncated_tokens
                if not math.isfinite(example_loss):
                    raise diverged("non-finite loss", record_id=train_recs[j].id,
                                   loss=example_loss)
                if example_loss > LOSS_CEILING:
                    raise diverged("loss above ceiling", record_id=train_recs[j].id,
                                   loss=example_loss)
                epoch_losses.append(example_loss)
            grads.flat *= 1.0 / len(batch)
            grad_norm = clip_gradients(grads, tcfg.grad_clip_norm, tables, scratch)
            if not math.isfinite(grad_norm):
                raise diverged("non-finite gradient norm", grad_norm=grad_norm)
            optimizer.step(weights, grads, lr)
            if not (input_finite and np.isfinite(weights.flat).all()):
                raise diverged("non-finite parameter")
            state.step += 1
        state.loss_history.append(float(np.mean(epoch_losses)))
        state.epochs_run = epoch + 1
        if dev_recs:
            raw = evaluation.predict(weights, config, dev_encoded, workspace)
            mean = evaluation.score(dev_recs, raw, dataset.name, "dev", config.mode,
                                    tcfg.active_kinds).mean_spearman()
            dev_score = 0.0 if mean is None else mean
            state.dev_spearman_history.append(dev_score)
            if dev_score > best_score:
                best_score = dev_score
                np.copyto(best.flat, weights.flat)
                state.best_epoch = epoch

    if state.best_epoch < 0:  # no dev split, or no epoch: the final parameters
        state.best_epoch = state.epochs_run - 1
        best = weights
    # made last: made before the run's working arrays, the full-size copy
    # stays resident beside them and train-default's peak RSS rises
    del workspace, grads, scratch
    full = params.copy()
    for name, rows in cut.items():
        full[name][rows] = best[name]
    return full, state, optimizer


@dataclass
class GradCheckReport:
    max_rel_errors: dict[str, float]
    tolerance: float

    @property
    def failures(self) -> list[str]:
        return [n for n, e in self.max_rel_errors.items() if e >= self.tolerance]

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def worst(self) -> tuple[str, float]:
        name = max(self.max_rel_errors, key=self.max_rel_errors.get)
        return name, self.max_rel_errors[name]


def default_gradcheck_config() -> ModelConfig:
    return ModelConfig(
        vocab_size=32, max_seq_len=8, model_dim=8, num_layers=1, num_heads=2,
        ffn_dim=16, num_cross_heads=2, mode="dual", dropout_rate=0.0,
    )


def grad_check(
    config: Optional[ModelConfig] = None,
    eps: float = 1e-4,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences on a
    random small-model example, float64 throughout. With a dropout rate above
    zero every pass draws the same masks, from one seed; in single mode the
    context is empty. ``eps`` must be positive and finite, and ``tolerance``
    positive."""
    from argscore.model import init_parameters

    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    config = config or default_gradcheck_config()
    if config.model_dim > 16 or not 3 <= config.max_seq_len <= 8:
        raise ValueError("grad_check is restricted to small configs (d <= 16, 3 <= L <= 8)")
    params = init_parameters(config, derive_seed(seed, 0))
    rng = np.random.default_rng(derive_seed(seed, 1))
    n = config.max_seq_len
    # draw n ids for each sequence, then cut, so the target draw does not move
    seq1 = rng.integers(0, config.vocab_size, n)[: n - 2]
    seq2 = rng.integers(0, config.vocab_size, n)[: n - 3 if config.mode == "dual" else 0]
    target = rng.random(3)

    example = [EncodedExample(seq1, seq2)]
    seeds = [derive_seed(seed, 2)]
    workspace = Workspace(config)
    _, analytic = backward(params, config, example, target[None], seeds, workspace=workspace)

    def loss_now() -> float:
        outputs = forward(params, config, example, seeds, workspace)[0]
        return float(np.mean((outputs - target) ** 2))

    report: dict[str, float] = {}
    for name, arr in params.items():
        worst = 0.0
        flat = arr.ravel()
        grad_flat = analytic[name].ravel()
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_now()
            flat[i] = orig - eps
            down = loss_now()
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            a = grad_flat[i]
            rel = abs(a - fd) / max(abs(a), abs(fd), 1e-6)
            if rel > worst:
                worst = rel
        report[name] = worst
    return GradCheckReport(max_rel_errors=report, tolerance=tolerance)
