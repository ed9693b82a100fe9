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
