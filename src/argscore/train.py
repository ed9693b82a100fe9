"""Training loop: similar-quality masking, Adam with global-norm clipping and a
linearly decaying learning rate, a divergence guard, per-epoch dev selection,
and gradient checking."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER
from argscore.corpus import ArgumentRecord, Dataset
from argscore.evaluation import evaluate
from argscore.model import (
    ModelConfig,
    ModelParameters,
    Vocabulary,
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
        if self.learning_rate <= 0 or self.grad_clip_norm <= 0:
            raise ValueError("learning_rate and grad_clip_norm must be positive")
        self.active_kinds = frozenset(
            AugmentationKind(k) if isinstance(k, str) else k for k in self.active_kinds
        )
        self.adam_betas = tuple(self.adam_betas)


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
    def __init__(self, params: ModelParameters, tcfg: TrainConfig):
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0
        self.beta1, self.beta2 = tcfg.adam_betas
        self.eps = tcfg.adam_eps

    def step(self, params: ModelParameters, grads: ModelParameters, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        kernels.adam_update(params.flat, grads.flat, self.m, self.v,
                            lr, self.beta1, self.beta2, self.eps, bc1, bc2)


def clip_gradients(grads: ModelParameters, max_norm: float) -> float:
    """Scale the gradient in place so its global L2 norm is at most max_norm;
    returns the pre-clip norm. The squares are summed tensor by tensor: a
    single pass over ``grads.flat`` rounds differently, and ``argscore synth``
    (seed 11) magnifies that into a failed acceptance check."""
    total = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
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

    After each epoch the dev split is scored by ``evaluation.evaluate`` with
    ``tcfg.active_kinds`` (no masking), and the parameters of the epoch with
    the highest ``mean_spearman()`` are returned; a row whose correlations are
    all undefined counts as 0.0. ``check_splits`` checks the splits before
    the first step.

    Per visited example the similar-quality kind is re-masked, the example is
    encoded and run with dropout, and its gradient is added by ``backward``
    into one accumulator, zeroed before each batch. The batch sum is then
    averaged, clipped (``clip_gradients``) and applied by one Adam step, each
    on the accumulator's ``flat`` vector. The run allocates its full-size
    vectors (parameters, best parameters, gradients, Adam moments) once, none
    per step. The learning rate decays linearly from ``tcfg.learning_rate`` to
    zero over the run's ``epochs * ceil(n_train / batch_size)`` steps.
    Divergence stops training with ``NonFiniteLoss``: an example loss that is
    non-finite or above ``LOSS_CEILING``, a non-finite pre-clip gradient norm,
    or a non-finite parameter after an update. With no dev split (or zero
    epochs) the final parameters are returned."""
    train_recs, dev_recs = check_splits(dataset)
    targets = {r.id: np.array(r.labels.normalized()) for r in train_recs}
    shuffle_rng = stream(tcfg.rng_seed, "shuffle")
    mask_rng = stream(tcfg.rng_seed, "masking")
    optimizer = AdamOptimizer(params, tcfg)
    state = TrainState()
    params = params.copy()
    grads = params.zeros_like()
    dropout_on = config.dropout_rate > 0.0

    best_params = params.zeros_like()
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
            chunk = perm[start : start + tcfg.batch_size]
            lr = learning_rate_at(tcfg.learning_rate, state.step, total_steps)
            grads.flat.fill(0.0)
            for j in chunk:
                rec = train_recs[int(j)]
                kinds = apply_masking(tcfg.active_kinds, tcfg.gamma, mask_rng)
                enc = encode_input(rec, augmentations.get(rec.id), vocab, config, kinds)
                state.truncated_tokens += enc.truncated_tokens
                example_loss, grads = backward(
                    params, config, enc.seq1, enc.seq2, targets[rec.id],
                    dropout_enabled=dropout_on,
                    rng_seed=derive_seed(tcfg.rng_seed, 3, epoch, int(j)),
                    grads=grads,
                )
                if not math.isfinite(example_loss):
                    raise diverged("non-finite loss", record_id=rec.id, loss=example_loss)
                if example_loss > LOSS_CEILING:
                    raise diverged("loss above ceiling", record_id=rec.id, loss=example_loss)
                epoch_losses.append(example_loss)
            grads.flat *= 1.0 / len(chunk)
            grad_norm = clip_gradients(grads, tcfg.grad_clip_norm)
            if not math.isfinite(grad_norm):
                raise diverged("non-finite gradient norm", grad_norm=grad_norm)
            optimizer.step(params, grads, lr)
            if not np.isfinite(params.flat).all():
                raise diverged("non-finite parameter")
            state.step += 1
        state.loss_history.append(float(np.mean(epoch_losses)))
        state.epochs_run = epoch + 1
        if dev_recs:
            mean = evaluate(params, config, vocab, dataset, augmentations, "dev",
                            tcfg.active_kinds).mean_spearman()
            dev_score = 0.0 if mean is None else mean
            state.dev_spearman_history.append(dev_score)
            if dev_score > best_score:
                best_score = dev_score
                np.copyto(best_params.flat, params.flat)
                state.best_epoch = epoch

    if state.best_epoch < 0:  # no dev split, or no epoch: the final parameters
        state.best_epoch = state.epochs_run - 1
        return params, state, optimizer
    return best_params, state, optimizer


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
    random small-model example (dropout off, float64 throughout)."""
    from argscore.model import init_parameters

    config = config or default_gradcheck_config()
    if config.model_dim > 16 or not 3 <= config.max_seq_len <= 8:
        raise ValueError("grad_check is restricted to small configs (d <= 16, 3 <= L <= 8)")
    params = init_parameters(config, derive_seed(seed, 0))
    rng = np.random.default_rng(derive_seed(seed, 1))
    n = config.max_seq_len
    # draw n ids for each sequence, then cut, so the target draw does not move
    seq1 = rng.integers(0, config.vocab_size, n)[: n - 2]
    seq2 = rng.integers(0, config.vocab_size, n)[: n - 3]
    target = rng.random(3)

    _, analytic = backward(params, config, seq1, seq2, target)

    def loss_now() -> float:
        trace = forward(params, config, seq1, seq2)
        return float(np.mean((trace.outputs - target) ** 2))

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
