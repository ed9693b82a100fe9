import json

import pytest

from argscore.model import (
    CheckpointError,
    Vocabulary,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from argscore.model.vocab import RESERVED_TOKENS

from tests.conftest import small_config


def _vocab(config):
    return Vocabulary.from_learned(
        [f"w{i}" for i in range(config.vocab_size - len(RESERVED_TOKENS))]
    )


def _saved(tmp_path):
    config = small_config()
    vocab = _vocab(config)
    params = init_parameters(config, 0)
    directory = tmp_path / "ckpt"
    save_checkpoint(directory, params, config, vocab)
    return directory, params, config, vocab


def _contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_truncated_params_rejected(tmp_path):
    directory, *_ = _saved(tmp_path)
    path = directory / "params.bin"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="params.bin"):
        load_checkpoint(directory)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_params_rejected_naming_the_tensor(tmp_path, value):
    directory, params, *_ = _saved(tmp_path)
    name = list(params)[3]
    params[name].flat[1] = value  # a view of params.flat
    params[list(params)[-1]].flat[0] = value  # a later tensor is not the one named
    params.flat.astype("<f8").tofile(directory / "params.bin")
    with pytest.raises(CheckpointError, match=rf"non-finite value in tensor {name}$"):
        load_checkpoint(directory)


def test_vocab_longer_than_config_rejected(tmp_path):
    directory, *_ = _saved(tmp_path)
    with (directory / "vocab.txt").open("a", encoding="utf-8") as fh:
        fh.write("extra\n")
    # the manifest hash follows the file, so only the length check can catch it
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["vocab_sha256"] = Vocabulary.load(directory / "vocab.txt").sha256()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match="vocabulary"):
        load_checkpoint(directory)


def test_version_one_manifest_rejected(tmp_path):
    directory, *_ = _saved(tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["format_version"] = 1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(directory)


def test_manifest_text_is_pinned(tmp_path):
    directory, *_ = _saved(tmp_path)
    assert (directory / "manifest.json").read_text(encoding="utf-8") == """{
  "format_version": 2,
  "config": {
    "vocab_size": 48,
    "max_seq_len": 12,
    "model_dim": 16,
    "num_layers": 1,
    "num_heads": 2,
    "ffn_dim": 32,
    "num_cross_heads": 2,
    "mode": "dual",
    "dropout_rate": 0.0
  },
  "vocab_sha256": "292af3cbe9264121d05be931dc0515b2e77a1054922768b49a713a13aec10c1a"
}"""


def test_newer_manifest_is_rejected_by_its_version(tmp_path):
    # the version is checked before the fields, so an unknown one is what is reported
    directory, *_ = _saved(tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.update(format_version=3, tensors=["enc1.tok_emb"])
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match="unsupported format version 3$"):
        load_checkpoint(directory)


def test_manifest_that_is_not_an_object_is_rejected(tmp_path):
    directory, *_ = _saved(tmp_path)
    (directory / "manifest.json").write_text("[2]", encoding="utf-8")
    with pytest.raises(CheckpointError, match="manifest settings must be a JSON object$"):
        load_checkpoint(directory)


@pytest.mark.parametrize("change, message", [
    ({"vocab_sha256": None}, "manifest setting 'vocab_sha256' must be str, got None"),
    ({"extra": 1}, "unknown manifest setting 'extra'"),
    ({"config": {"vocab_size": 48, "num_layers": 1.0}},
     "manifest setting 'config.num_layers' must be int, got 1.0"),
])
def test_malformed_manifest_names_the_field(tmp_path, change, message):
    directory, *_ = _saved(tmp_path)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest.update(change)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"{message}$"):
        load_checkpoint(directory)


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    directory, params, config, vocab = _saved(tmp_path)
    before = _contents(directory)

    def broken_save(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(Vocabulary, "save", broken_save)
    with pytest.raises(OSError):
        save_checkpoint(directory, init_parameters(config, 1), config, vocab)
    monkeypatch.undo()

    assert _contents(directory) == before
    loaded, _, _ = load_checkpoint(directory)
    for name, tensor in params.items():
        assert (loaded[name] == tensor).all()


def test_save_over_non_checkpoint_directory_refused(tmp_path):
    config = small_config()
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "notes.txt").write_text("keep me", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not a checkpoint"):
        save_checkpoint(directory, init_parameters(config, 0), config, _vocab(config))
    assert _contents(directory) == {"notes.txt": b"keep me"}
