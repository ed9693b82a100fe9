"""Checkpoint: a directory of three files, written atomically and validated on load.

- ``manifest.json``: ``format_version``, the ``ModelConfig`` and the sha256 of
  the vocabulary. It lists no tensors: their layout follows from the config.
- ``params.bin``: ``ModelParameters.flat`` as little-endian float64 (``<f8``):
  every parameter tensor, C order, concatenated in ``parameter_shapes(config)``
  order.
- ``vocab.txt``: one learned token per line.

A save builds the checkpoint as the sibling directory ``<dir>.tmp`` (removing a
stale one first), then removes the old ``<dir>`` and renames the new one into
place, so a save that fails part way leaves the previous checkpoint as it was.
Nothing is fsynced, so a crash of the machine (not of the program) may still
lose the save. A directory that exists but holds no ``manifest.json`` is not a
checkpoint: saving over it raises ``CheckpointError`` and leaves it untouched.

A load raises ``CheckpointError`` on an unreadable manifest, an unsupported
format version (checked first, whatever else the manifest holds), a manifest
that ``jsonobj.from_json`` or ``ModelConfig`` rejects (a float ``num_layers``,
say), a vocabulary whose hash differs from the manifest's or whose size differs
from ``config.vocab_size``, a ``params.bin`` whose length is not the config's
parameter count, and a ``params.bin`` holding a NaN or infinite value (the
error names the first tensor that holds one). The file is read in one call
into the ``flat`` vector of the loaded ``ModelParameters``.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from argscore.jsonobj import from_json, to_json
from argscore.model.config import ModelConfig
from argscore.model.network import ModelParameters, parameter_count, parameter_shapes
from argscore.model.vocab import Vocabulary

FORMAT_VERSION = 2
_DTYPE = np.dtype("<f8")


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class _Manifest:
    format_version: int
    config: ModelConfig
    vocab_sha256: str


def save_checkpoint(
    directory: str | Path,
    params: ModelParameters,
    config: ModelConfig,
    vocab: Vocabulary,
) -> None:
    directory = Path(directory)
    if directory.exists() and not (directory / "manifest.json").exists():
        raise CheckpointError(f"{directory} exists and is not a checkpoint")
    if params.shapes != parameter_shapes(config):
        raise CheckpointError("parameter names or shapes do not match the config")
    staging = directory.with_name(directory.name + ".tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    params.flat.astype(_DTYPE, copy=False).tofile(staging / "params.bin")
    vocab.save(staging / "vocab.txt")
    manifest = to_json(_Manifest(FORMAT_VERSION, config, vocab.sha256()))
    (staging / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    if directory.exists():
        shutil.rmtree(directory)
    os.replace(staging, directory)


def load_checkpoint(directory: str | Path) -> tuple[ModelParameters, ModelConfig, Vocabulary]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable manifest {manifest_path}: {exc}")
    if isinstance(manifest, dict) and manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {manifest.get('format_version')}")
    try:
        manifest = from_json(_Manifest, manifest, "manifest")
    except ValueError as exc:
        raise CheckpointError(f"bad manifest {manifest_path}: {exc}")
    config = manifest.config

    try:
        vocab = Vocabulary.load(directory / "vocab.txt")
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable vocabulary under {directory}: {exc}")
    if vocab.sha256() != manifest.vocab_sha256:
        raise CheckpointError(
            f"vocab hash mismatch: file {vocab.sha256()} vs manifest {manifest.vocab_sha256}"
        )
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"vocabulary has {len(vocab)} tokens, the config {config.vocab_size}"
        )

    shapes = parameter_shapes(config)
    expected = parameter_count(shapes) * _DTYPE.itemsize
    params_path = directory / "params.bin"
    try:
        size = params_path.stat().st_size
        if size != expected:
            raise CheckpointError(f"{params_path} holds {size} bytes, the config needs {expected}")
        flat = np.fromfile(params_path, dtype=_DTYPE).astype(np.float64, copy=False)
    except OSError as exc:
        raise CheckpointError(f"unreadable {params_path}: {exc}")
    params = ModelParameters(flat, shapes)
    if not np.isfinite(flat).all():
        name = next(n for n, arr in params.items() if not np.isfinite(arr).all())
        raise CheckpointError(f"{params_path} holds a non-finite value in tensor {name}")
    return params, config, vocab
