"""Command-line entry point: augment, train, evaluate, gradcheck, synth.

Exit codes: 0 success, 1 operational error, 2 acceptance-threshold failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from argscore import augment as aug_mod
from argscore import corpus as corpus_mod
from argscore import evaluation, synth
from argscore import train as train_mod
from argscore.augment import (
    AugmentationKind,
    HttpProvider,
    MockProvider,
    PromptCache,
    ProviderConfig,
    load_exemplars,
    parse_kinds,
    read_augmentations,
    write_augmentations,
)
from argscore.jsonobj import check, from_json, to_json
from argscore.model import (
    ModelConfig,
    build_vocab,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from argscore.seeding import derive_seed


@dataclass
class RunConfig:
    """Pipeline configuration; JSON field names match the attribute names."""

    dataset: Optional[str] = None
    augmentations: Optional[str] = None
    cache_dir: Optional[str] = None
    provider: Optional[str] = None
    out_dir: str = "out"
    seed: int = 0
    vocab_max_size: int = 8000
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        cfg = from_json(cls, json.loads(Path(path).read_text(encoding="utf-8-sig")), "run")
        check(ModelConfig, cfg.model, "model")
        if "vocab_size" in cfg.model:  # the vocabulary sets it
            raise ValueError("model setting 'vocab_size' is not settable; use vocab_max_size")
        check(train_mod.TrainConfig, cfg.train, "train")
        return cfg


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    for name in ("dataset", "augmentations", "cache_dir", "provider"):
        if getattr(args, name, None):
            setattr(cfg, name, getattr(args, name))
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def _make_provider(spec: Optional[str], seed: int):
    if spec in (None, "mock"):
        return MockProvider(seed=seed)
    return HttpProvider(ProviderConfig.from_json(spec))


def _load_dataset(cfg: RunConfig):
    if not cfg.dataset:
        raise ValueError("no dataset given (use --dataset or --config)")
    return corpus_mod.load_dataset(cfg.dataset)


def _ensure_splits(dataset, cfg: RunConfig):
    if dataset.split_assignment:
        return dataset
    return corpus_mod.assign_splits(dataset, cfg.split_ratios, split_seed=derive_seed(cfg.seed, 6))


def cmd_augment(args) -> int:
    cfg = _load_run_config(args)
    dataset = _load_dataset(cfg)
    kinds = parse_kinds(args.kinds)
    provider = _make_provider(cfg.provider, cfg.seed)
    cache = PromptCache(cfg.cache_dir) if cfg.cache_dir else None
    exemplars = load_exemplars(args.exemplars)
    provider_config = getattr(provider, "config", None)
    workers = provider_config.max_parallel if provider_config else 1

    skipped_sq = sum(
        1 for r in dataset.records
        if AugmentationKind.SIMILAR_QUALITY in kinds and r.labels is None
    )

    def one(record):
        wanted = set(kinds)
        if record.labels is None:
            # similar-quality prompts need gold scores
            wanted.discard(AugmentationKind.SIMILAR_QUALITY)
        return record.id, aug_mod.generate(record, wanted, provider, cache=cache,
                                           exemplars=exemplars)

    # map keeps record order, and cancels pending records after a failure
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one, dataset.records))

    out_path = Path(args.out or "augmentations.jsonl")
    if out_path.is_dir():
        out_path = out_path / "augmentations.jsonl"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_augmentations(out_path, dict(results))
    if args.verbose and skipped_sq:
        print(f"note: skipped similar_quality for {skipped_sq} unlabeled records")
    print(f"wrote {len(results)} augmentation sets to {out_path} "
          f"(requests={provider.requests_made})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    dataset = _ensure_splits(_load_dataset(cfg), cfg)
    train_recs, dev_recs = train_mod.check_splits(dataset)
    augmentations = {}
    if not args.no_augs:
        if not cfg.augmentations:
            raise ValueError("no augmentations file (use --augmentations or --no-augs)")
        augmentations = read_augmentations(cfg.augmentations, train_recs + dev_recs)

    vocab = build_vocab(aug_mod.vocab_texts(dataset, augmentations), max_size=cfg.vocab_max_size)
    model_settings = {**cfg.model, "vocab_size": len(vocab)}
    if args.mode:
        model_settings["mode"] = args.mode
    config = from_json(ModelConfig, model_settings, "model")

    train_settings = dict(cfg.train)
    if args.epochs is not None:
        train_settings["epochs"] = args.epochs
    if args.no_augs:
        train_settings["active_kinds"] = []  # no context is read
    elif args.augs is not None:
        train_settings["active_kinds"] = sorted(k.value for k in parse_kinds(args.augs))
    train_settings.setdefault("rng_seed", cfg.seed)
    tcfg = from_json(train_mod.TrainConfig, train_settings, "train")

    params = init_parameters(config, seed=derive_seed(cfg.seed, 0))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        best, state, _ = train_mod.train(params, config, tcfg, dataset, augmentations, vocab)
    except train_mod.NonFiniteLoss as exc:
        dump = out_dir / "diagnostics.json"
        dump.write_text(json.dumps(exc.diagnostics, indent=2), encoding="utf-8")
        print(f"error: {exc}; diagnostics at {dump}", file=sys.stderr)
        return 1

    ckpt_dir = out_dir / "checkpoint"
    save_checkpoint(ckpt_dir, best, config, vocab)
    for name, obj in (("train_config.json", tcfg), ("train_state.json", state)):
        (out_dir / name).write_text(json.dumps(to_json(obj), indent=2), encoding="utf-8")
    dev = state.dev_spearman_history[state.best_epoch] if state.dev_spearman_history else float("nan")
    print(f"best_epoch={state.best_epoch} dev_spearman_mean={dev:.4f} "
          f"epochs_run={state.epochs_run} checkpoint={ckpt_dir}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_run_config(args)
    params, config, vocab = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(cfg)
    if args.split == "all":
        dataset.split_assignment = {r.id: "all" for r in dataset.records}
    else:  # same seeded assignment train derives for split-less files
        dataset = _ensure_splits(dataset, cfg)
    active = parse_kinds(args.augs)
    if not cfg.augmentations:
        active = set()  # no context is read, so the row is labelled with no kinds
    scored = dataset.split(args.split) if active else []  # read with context: each needs a set
    augmentations = read_augmentations(cfg.augmentations, scored) if cfg.augmentations else {}

    row = evaluation.evaluate(params, config, vocab, dataset, augmentations,
                              args.split, active)
    print(_write_report(Path(cfg.out_dir), [row]), end="")
    return 0


def _write_report(out_dir: Path, rows) -> str:
    """Write the ablation table of ``rows`` to ``report.csv`` and
    ``report.txt`` in ``out_dir``; return the text table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    text, csv_text = evaluation.ablation_table(rows)
    (out_dir / "report.csv").write_text(csv_text, encoding="utf-8", newline="")
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    return text


def cmd_gradcheck(args) -> int:
    sizes = {"max_seq_len": args.seq_len, "model_dim": args.dim, "num_layers": args.layers,
             "num_heads": args.heads, "num_cross_heads": args.heads}
    config = replace(train_mod.default_gradcheck_config(),
                     **{name: value for name, value in sizes.items() if value is not None})
    report = train_mod.grad_check(config, eps=args.eps, tolerance=args.tol, seed=args.seed or 0)
    width = max(len(n) for n in report.max_rel_errors)
    for name, err in sorted(report.max_rel_errors.items(), key=lambda kv: -kv[1]):
        flag = "FAIL" if err >= report.tolerance else "ok"
        print(f"{name:<{width}}  {err:.3e}  {flag}")
    name, worst = report.worst
    print(f"worst: {name} ({worst:.3e}), tolerance {report.tolerance:g}: "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_synth(args) -> int:
    settings = synth.SynthSettings()
    if args.train_size is not None:
        settings.n_train = args.train_size
    if args.test_size is not None:
        settings.n_test = args.test_size
    if args.epochs is not None:
        settings.train = replace(settings.train, epochs=args.epochs)
    seed = args.seed if args.seed is not None else 11
    out_dir = Path(args.out or "out")

    if args.dry_run:
        print(f"planned: corpus seed={seed} "
              f"({settings.n_train} train / {settings.n_dev} dev / {settings.n_test} test)")
        for label, mode, kinds in synth.RUNS:
            print(f"planned: train+evaluate {label} (mode={mode}, "
                  f"augs={evaluation.augs_label(kinds)}, epochs={settings.train.epochs})")
        return 0

    result = synth.run_experiment(seed, settings=settings)
    text = _write_report(out_dir, list(result.rows.values()))
    if args.verbose:
        print(text, end="")
    for label, row in result.rows.items():
        print(f"{label}: mean_spearman={row.mean_spearman():.4f}")
    for check, ok in result.checks.items():
        print(f"{'PASS' if ok else 'FAIL'}: {check}")
    return 0 if result.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="argscore",
                                     description="Argument quality scoring pipeline")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="RunConfig JSON file")
    common.add_argument("--seed", type=int, default=None, help="global seed")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--verbose", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", parents=[common],
                       help="generate context texts for a dataset")
    p.add_argument("--dataset", help="input CSV/JSONL")
    p.add_argument("--kinds", default="all", help="'all' or comma-separated kind names")
    p.add_argument("--provider", default=None,
                   help="'mock' or a ProviderConfig JSON path (default mock)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    p.add_argument("--exemplars", default=None, help="override exemplar fixture path")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--dataset", help="training CSV/JSONL")
    p.add_argument("--augmentations", help="augmentation JSONL from 'augment'")
    p.add_argument("--no-augs", action="store_true", help="train without context texts")
    p.add_argument("--mode", choices=["dual", "single"], default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--augs", default=None, help="active kinds during training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", help="evaluation CSV/JSONL")
    p.add_argument("--augmentations", default=None)
    p.add_argument("--split", default="test",
                   help="train|dev|test, or 'all' to use every record")
    p.add_argument("--augs", default="all", help="all|none|comma-separated subset")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="compare analytic gradients to finite differences")
    # each size defaults to that of train.default_gradcheck_config()
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seq-len", dest="seq_len", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--heads", type=int, default=None, help="self- and cross-attention heads")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", parents=[common],
                       help="synthetic end-to-end acceptance experiment")
    p.add_argument("--train-size", dest="train_size", type=int, default=None)
    p.add_argument("--test-size", dest="test_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--dry-run", dest="dry_run", action="store_true")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, aug_mod.ProviderError, aug_mod.ProviderTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
