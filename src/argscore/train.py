"""Training loop: similar-quality masking, Adam with global-norm clipping and a
linearly decaying learning rate, a divergence guard, per-epoch dev selection,
gradient checking, and state persistence."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from argscore.augment import AugmentationKind, AugmentationSet, KIND_ORDER
from argscore.corpus import Dataset
from argscore.model import (
    ModelConfig,
    ModelParameters,
    Vocabulary,
    backward,
    encode_input,
    forward,
)
from argscore.model import kernels
from argscore.model.checkpoint import read_tensors, save_checkpoint, write_tensors
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


class NonFiniteInput(ValueError):
    pass


@dataclass
class TrainConfig:
    """Training settings. ``learning_rate`` is the peak rate: ``train`` decays
    it linearly to zero over the run (see ``learning_rate_at``)."""

    gamma: float = 0.5
    batch_size: int = 8
    learning_rate: float = 1e-3
    epochs: int = 10
    optimizer: str = "adam"
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
        if self.optimizer != "adam":
            raise ValueError(f"unsupported optimizer {self.optimizer!r}")
        self.active_kinds = frozenset(
            AugmentationKind(k) if isinstance(k, str) else k for k in self.active_kinds
        )
        self.adam_betas = tuple(self.adam_betas)

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "optimizer": self.optimizer,
            "adam_betas": list(self.adam_betas),
            "adam_eps": self.adam_eps,
            "grad_clip_norm": self.grad_clip_norm,
            "rng_seed": self.rng_seed,
            "active_kinds": sorted(k.value for k in self.active_kinds),
        }


@dataclass
class TrainState:
    step: int = 0
    epochs_run: int = 0
    loss_history: list[float] = field(default_factory=list)
    dev_spearman_history: list[float] = field(default_factory=list)
    best_epoch: int = -1
    truncated_tokens: int = 0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "epochs_run": self.epochs_run,
            "loss_history": self.loss_history,
            "dev_spearman_history": self.dev_spearman_history,
            "best_epoch": self.best_epoch,
            "truncated_tokens": self.truncated_tokens,
        }


def loss(predictions, target) -> float:
    """Mean squared error over the three heads."""
    predictions = np.asarray(predictions, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not (np.isfinite(predictions).all() and np.isfinite(target).all()):
        raise NonFiniteInput("loss inputs must be finite")
    return float(np.mean((predictions - target) ** 2))


def apply_masking(aug: AugmentationSet, gamma: float, rng: np.random.Generator) -> AugmentationSet:
    """Keep the similar-quality text with probability gamma, drop it otherwise.
    Always consumes exactly one uniform draw; other kinds pass through."""
    keep = rng.random() < gamma
    if keep or aug.similar_quality is None:
        return aug
    return aug.with_text(AugmentationKind.SIMILAR_QUALITY, None)


class AdamOptimizer:
    def __init__(self, params: ModelParameters, tcfg: TrainConfig):
        self.m = params.zeros_like()
        self.v = params.zeros_like()
        self.t = 0
        self.beta1, self.beta2 = tcfg.adam_betas
        self.eps = tcfg.adam_eps

    def step(self, params: ModelParameters, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in params.tensors.items():
            kernels.adam_update(
                p.ravel(), np.ascontiguousarray(grads[name]).ravel(),
                self.m[name].ravel(), self.v[name].ravel(),
                lr, self.beta1, self.beta2, self.eps, bc1, bc2,
            )

    def all_finite(self) -> bool:
        return all(np.isfinite(t).all() for d in (self.m, self.v) for t in d.values())


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale gradients so the global L2 norm is at most max_norm; returns the
    pre-clip norm."""
    total = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def learning_rate_at(peak: float, step: int, total_steps: int) -> float:
    """Linear decay: ``peak`` at step 0, falling to zero at ``total_steps``.
    A pure function of the step, so the rate of any step can be recomputed."""
    return peak * (1.0 - step / total_steps)


def _mean_dev_spearman(params, config, vocab, dev_encoded, dev_targets) -> float:
    from argscore.evaluation import spearman

    preds = np.empty((len(dev_encoded), 3))
    for i, enc in enumerate(dev_encoded):
        trace = forward(params, config, enc.seq1, enc.seq2, enc.mask1, enc.mask2)
        preds[i] = trace.outputs
    values = []
    for m in range(3):
        s = spearman(preds[:, m], dev_targets[:, m])
        if s is not None:
            values.append(s)
    return float(np.mean(values)) if values else 0.0


def train(
    params: ModelParameters,
    config: ModelConfig,
    tcfg: TrainConfig,
    dataset: Dataset,
    augmentations: dict[str, AugmentationSet],
    vocab: Vocabulary,
) -> tuple[ModelParameters, TrainState, AdamOptimizer]:
    """Optimize on the train split; model selection by mean dev Spearman.

    Per visited example the similar-quality text is re-masked, the example is
    encoded and run with dropout, and its gradient is added by ``backward``
    into the one accumulator allocated per batch; the batch sum is then
    averaged, clipped, and applied. The learning rate decays linearly from
    ``tcfg.learning_rate`` to zero over the run's
    ``epochs * ceil(n_train / batch_size)`` steps. Divergence stops training
    with ``NonFiniteLoss``: an example loss that is non-finite or above
    ``LOSS_CEILING``, a non-finite pre-clip gradient norm, or a non-finite
    parameter after an update. With no dev split (or zero epochs) the final
    parameters are returned."""
    train_recs = dataset.split("train")
    dev_recs = dataset.split("dev")
    if not train_recs:
        raise ValueError("train split is empty")
    for rec in train_recs:
        if rec.labels is None:
            raise ValueError(f"training record {rec.id!r} has no gold scores")

    targets = {r.id: np.array(r.labels.normalized()) for r in train_recs}
    empty = AugmentationSet()
    shuffle_rng = stream(tcfg.rng_seed, "shuffle")
    mask_rng = stream(tcfg.rng_seed, "masking")
    optimizer = AdamOptimizer(params, tcfg)
    state = TrainState()
    params = params.copy()
    dropout_on = config.dropout_rate > 0.0

    dev_encoded = []
    dev_targets = None
    if dev_recs:
        dev_sets = [augmentations.get(r.id) or empty for r in dev_recs]
        dev_encoded = [
            encode_input(r, a, vocab, config, tcfg.active_kinds)
            for r, a in zip(dev_recs, dev_sets)
        ]
        dev_targets = np.array([r.labels.normalized() for r in dev_recs if r.labels])
        if len(dev_targets) != len(dev_recs):
            raise ValueError("dev split contains records without gold scores")

    best_params: Optional[ModelParameters] = None
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
            grads = params.zeros_like()
            for j in chunk:
                rec = train_recs[int(j)]
                aug = apply_masking(augmentations.get(rec.id) or empty, tcfg.gamma, mask_rng)
                enc = encode_input(rec, aug, vocab, config, tcfg.active_kinds)
                state.truncated_tokens += enc.truncated_tokens
                example_loss, grads = backward(
                    params, config, enc.seq1, enc.seq2, enc.mask1, enc.mask2,
                    targets[rec.id], dropout_enabled=dropout_on,
                    rng_seed=derive_seed(tcfg.rng_seed, 3, epoch, int(j)),
                    grads=grads,
                )
                if not math.isfinite(example_loss):
                    raise diverged("non-finite loss", record_id=rec.id, loss=example_loss)
                if example_loss > LOSS_CEILING:
                    raise diverged("loss above ceiling", record_id=rec.id, loss=example_loss)
                epoch_losses.append(example_loss)
            inv = 1.0 / len(chunk)
            for g in grads.values():
                g *= inv
            grad_norm = clip_gradients(grads, tcfg.grad_clip_norm)
            if not math.isfinite(grad_norm):
                raise diverged("non-finite gradient norm", grad_norm=grad_norm)
            optimizer.step(params, grads, lr)
            if not params.all_finite():
                raise diverged("non-finite parameter")
            state.step += 1
        state.loss_history.append(float(np.mean(epoch_losses)))
        state.epochs_run = epoch + 1
        if dev_recs:
            dev_score = _mean_dev_spearman(params, config, vocab, dev_encoded, dev_targets)
            state.dev_spearman_history.append(dev_score)
            if dev_score > best_score:
                best_score = dev_score
                best_params = params.copy()
                state.best_epoch = epoch

    if best_params is None:
        best_params = params
        state.best_epoch = state.epochs_run - 1 if state.epochs_run else -1
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
    corrupt_tensor: Optional[str] = None,
    corrupt_scale: float = 1.1,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences on a
    random small-model example (dropout off, float64 throughout).

    ``corrupt_tensor`` deliberately scales one analytic gradient tensor, for
    verifying that the report localizes faults."""
    from argscore.model import init_parameters

    config = config or default_gradcheck_config()
    if config.model_dim > 16 or config.max_seq_len > 8:
        raise ValueError("grad_check is restricted to small configs (d <= 16, L <= 8)")
    params = init_parameters(config, derive_seed(seed, 0))
    rng = np.random.default_rng(derive_seed(seed, 1))
    n = config.max_seq_len
    seq1 = rng.integers(0, config.vocab_size, n)
    seq2 = rng.integers(0, config.vocab_size, n)
    mask1 = np.ones(n)
    mask1[-2:] = 0.0
    mask2 = np.ones(n)
    mask2[-3:] = 0.0
    target = rng.random(3)

    _, analytic = backward(params, config, seq1, seq2, mask1, mask2, target)
    if corrupt_tensor is not None:
        analytic[corrupt_tensor] = analytic[corrupt_tensor] * corrupt_scale

    def loss_now() -> float:
        trace = forward(params, config, seq1, seq2, mask1, mask2)
        return float(np.mean((trace.outputs - target) ** 2))

    report: dict[str, float] = {}
    for name, arr in params.tensors.items():
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


def save_training(
    directory: str | Path,
    params: ModelParameters,
    config: ModelConfig,
    vocab: Vocabulary,
    state: TrainState,
    optimizer: AdamOptimizer,
) -> None:
    directory = Path(directory)
    save_checkpoint(directory, params, config, vocab)
    optim_dir = directory / "optimizer"
    optim_dir.mkdir(exist_ok=True)
    tensors = {f"m.{k}": v for k, v in optimizer.m.items()}
    tensors.update({f"v.{k}": v for k, v in optimizer.v.items()})
    entries = write_tensors(optim_dir, tensors)
    (optim_dir / "manifest.json").write_text(
        json.dumps({"t": optimizer.t, "tensors": entries}), encoding="utf-8"
    )
    (directory / "train_state.json").write_text(
        json.dumps(state.to_dict(), indent=2), encoding="utf-8"
    )


def load_optimizer(directory: str | Path, params: ModelParameters, tcfg: TrainConfig) -> AdamOptimizer:
    optim_dir = Path(directory) / "optimizer"
    manifest = json.loads((optim_dir / "manifest.json").read_text(encoding="utf-8"))
    tensors = read_tensors(optim_dir, manifest["tensors"])
    optimizer = AdamOptimizer(params, tcfg)
    optimizer.t = manifest["t"]
    for name in optimizer.m:
        optimizer.m[name] = tensors[f"m.{name}"]
        optimizer.v[name] = tensors[f"v.{name}"]
    return optimizer
