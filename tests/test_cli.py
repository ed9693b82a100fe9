import csv
import importlib
import io
import json
import pkgutil
from dataclasses import replace
from importlib import resources

import pytest

import argscore
from argscore import cli, train
from argscore.augment import ProviderConfig, ProviderError, ProviderTimeout, load_exemplars
from argscore.corpus import ArgumentRecord, Dataset, write_dataset
from argscore.model import ShapeMismatch, init_parameters, save_checkpoint
from tests.conftest import small_config
from tests.test_checkpoint import _vocab


def test_train_divergence_exits_one_with_diagnostics(tmp_path, tiny_dataset):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dataset": str(data),
        "model": {"max_seq_len": 16, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "ffn_dim": 32, "num_cross_heads": 2},
        "train": {"learning_rate": 1e18},
    }), encoding="utf-8")
    out = tmp_path / "out"

    assert cli.main(["train", "--config", str(config), "--no-augs", "--out", str(out)]) == 1
    diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
    assert diagnostics["reason"]
    assert not (out / "checkpoint").exists()


def test_unknown_config_setting_exits_one(tmp_path, capsys):
    for settings, kind in (({"train": {"foo": 1}}, "train"), ({"model": {"foo": 1}}, "model"),
                           ({"foo": 1}, "run")):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        assert cli.main(["train", "--config", str(config), "--no-augs"]) == 1
        assert f"error: unknown {kind} setting 'foo'" in capsys.readouterr().err


def test_wrongly_typed_config_setting_exits_one(tmp_path, capsys):
    for settings, kind, key in (({"split_ratios": 5}, "run", "split_ratios"),
                                ({"seed": "x"}, "run", "seed"),
                                ({"model": {"model_dim": "8"}}, "model", "model_dim"),
                                ({"train": {"adam_betas": [0.9]}}, "train", "adam_betas"),
                                ({"train": {"active_kinds": ["feedbak"]}}, "train",
                                 "active_kinds")):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        assert cli.main(["train", "--config", str(config), "--no-augs"]) == 1
        assert f"error: {kind} setting '{key}' must be " in capsys.readouterr().err


def test_well_typed_config_settings_pass_the_check(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dataset": None, "seed": 3, "split_ratios": [1, 0, 0],
        "model": {"dropout_rate": 0, "mode": "single"},
        "train": {"learning_rate": 1, "adam_betas": [0.9, 0.99],
                  "active_kinds": ["feedback"]},
    }), encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--no-augs"]) == 1
    assert "error: no dataset given" in capsys.readouterr().err


def test_malformed_augmentations_exit_one_with_line(tmp_path, tiny_dataset, capsys):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    augs = tmp_path / "augs.jsonl"
    augs.write_text('{"id": "t0", "feedback": "fine"}\n{"id": "t1", "feedback": 5}\n',
                    encoding="utf-8")
    assert cli.main(["train", "--dataset", str(data), "--augmentations", str(augs),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert str(augs) in err


def test_vocab_size_in_run_config_exits_one(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": {"vocab_size": 100}}), encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--no-augs"]) == 1
    assert "vocab_max_size" in capsys.readouterr().err


def _provider_args(tmp_path, obj):
    path = tmp_path / "provider.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return ["augment", "--provider", str(path)]


def _exemplar_args(tmp_path, change):
    pool = json.loads(resources.files("argscore.augment").joinpath("exemplars.json")
                      .read_text("utf-8"))
    pool[0].update(change)
    path = tmp_path / "exemplars.json"
    path.write_text(json.dumps(pool), encoding="utf-8")
    return ["augment", "--exemplars", str(path)]


def _checkpoint_args(tmp_path, change):
    config = small_config()
    directory = tmp_path / "ckpt"
    save_checkpoint(directory, init_parameters(config, 0), config, _vocab(config))
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"].update(change)
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return ["evaluate", "--checkpoint", str(directory)]


@pytest.mark.parametrize("make_args, arg", [
    pytest.param(_provider_args, {"base_url": "http://h/v1", "colour": "red"}, id="provider-key"),
    pytest.param(_provider_args, {"base_url": "http://h/v1", "max_parallel": "4"},
                 id="provider-type"),
    pytest.param(_provider_args, ["http://h/v1"], id="provider-list"),
    pytest.param(_exemplar_args, {"extra": 1}, id="exemplar-key"),
    pytest.param(_exemplar_args, {"cogency": "1"}, id="exemplar-type"),
    pytest.param(_checkpoint_args, {"num_layers": 1.0}, id="manifest-num-layers"),
    pytest.param(_checkpoint_args, {"model_dim": 16.0}, id="manifest-model-dim"),
])
def test_malformed_json_input_exits_one(tmp_path, tiny_dataset, capsys, make_args, arg):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    argv = make_args(tmp_path, arg) + ["--dataset", str(data), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command, flag", [
    ("augment", "--dataset"),
    ("augment", "--provider"),
    ("train", "--augmentations"),
])
def test_directory_as_input_file_exits_one(tmp_path, tiny_dataset, capsys, command, flag):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    inputs = {"--dataset": str(data), flag: str(tmp_path)}  # the directory replaces a file
    argv = [command, "--out", str(tmp_path / "out")]
    for option, value in inputs.items():
        argv += [option, value]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["augment", "train", "evaluate"])
def test_no_dataset_exits_one_with_one_error_line(tmp_path, capsys, command):
    argv = _checkpoint_args(tmp_path, {}) if command == "evaluate" else [command]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: no dataset given (use --dataset or --config)\n"


def test_train_without_augmentations_exits_one_with_one_error_line(tmp_path, tiny_dataset,
                                                                   capsys):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    assert cli.main(["train", "--dataset", str(data), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: no augmentations file (use --augmentations or --no-augs)\n")


def test_hand_written_json_files_may_start_with_a_byte_order_mark(tmp_path):
    def marked(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8-sig")
        return path

    assert cli.RunConfig.from_file(marked("run.json", {"seed": 3})).seed == 3
    provider = ProviderConfig.from_json(marked("provider.json", {"base_url": "http://h/v1"}))
    assert provider.base_url == "http://h/v1"
    pool = json.loads(resources.files("argscore.augment").joinpath("exemplars.json")
                      .read_text("utf-8"))
    assert load_exemplars(marked("exemplars.json", pool)) == load_exemplars()


def _error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("flags, train, setting", [
    pytest.param(["--epochs", "-3"], {}, "epochs", id="negative-epochs"),
    pytest.param([], {"adam_betas": [1.0, 0.999]}, "adam_betas", id="beta1-one"),
    pytest.param([], {"adam_betas": [0.9, -0.5]}, "adam_betas", id="beta2-negative"),
    pytest.param([], {"adam_eps": 0.0}, "adam_eps", id="eps-zero"),
    pytest.param([], {"adam_eps": -1.0}, "adam_eps", id="eps-negative"),
    pytest.param([], {"adam_eps": float("inf")}, "adam_eps", id="eps-infinite"),
    pytest.param([], {"learning_rate": float("nan")}, "learning_rate", id="rate-nan"),
    pytest.param([], {"learning_rate": float("inf")}, "learning_rate", id="rate-infinite"),
    pytest.param([], {"grad_clip_norm": float("nan")}, "grad_clip_norm", id="clip-nan"),
])
def test_untrainable_train_setting_is_one_error_line(tmp_path, tiny_dataset, capsys,
                                                     flags, train, setting):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": train}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--dataset", str(data), "--no-augs",
                     "--out", str(out), *flags]) == 1
    assert setting in _error_line(capsys)
    assert not (out / "diagnostics.json").exists()
    assert not (out / "checkpoint").exists()


def test_single_score_file_is_scored_on_wa_across_corpora(tmp_path, tiny_dataset, capsys):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"max_seq_len": 16, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "ffn_dim": 32, "num_cross_heads": 2},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(config), "--dataset", str(data), "--no-augs",
                     "--epochs", "1", "--out", str(out)]) == 0
    other = tmp_path / "other.csv"
    other.write_text("id,topic,argument,wa\n"
                     "w0,city parks,parks help people relax,0.2\n"
                     "w1,city parks,evidence shows costs fall,0.9\n"
                     "w2,school uniforms,uniforms should change,0.5\n"
                     "w3,school uniforms,people support plans because growth,0.7\n",
                     encoding="utf-8")
    report_dir = tmp_path / "report"
    assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint"), "--dataset", str(other),
                     "--split", "all", "--out", str(report_dir)]) == 0
    capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(
        (report_dir / "report.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 1
    row = rows[0]
    assert row["split"] == "all" and row["n"] == "4"
    assert row["wa_s"] and row["wa_p"]
    for head in ("cogency", "effectiveness", "reasonableness"):
        assert row[f"{head}_s"] == "" and row[f"{head}_p"] == ""


def test_header_only_dataset_exits_one(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("id,topic,argument,wa\n", encoding="utf-8")
    assert cli.main(["train", "--dataset", str(data), "--no-augs",
                     "--out", str(tmp_path / "out")]) == 1
    assert "train split is empty" in _error_line(capsys)


def test_nan_split_ratio_exits_one_naming_the_ratios(tmp_path, capsys):
    data = tmp_path / "nosplits.csv"
    data.write_text("id,topic,argument,wa\n"
                    + "".join(f"r{i},city parks,parks help people {i},0.{i}\n" for i in range(10)),
                    encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"split_ratios": [float("nan"), 0.5, 0.5]}), encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--dataset", str(data), "--no-augs",
                     "--out", str(tmp_path / "out")]) == 1
    assert "ratios" in _error_line(capsys)


def _evaluate_args(tmp_path, records, split):
    data = tmp_path / "eval.jsonl"
    write_dataset(Dataset(records=records, split_assignment=split), data)
    return _checkpoint_args(tmp_path, {}) + ["--dataset", str(data),
                                             "--out", str(tmp_path / "out")]


def test_evaluate_empty_split_exits_one(tmp_path, tiny_dataset, capsys):
    records = tiny_dataset.records[:4]
    argv = _evaluate_args(tmp_path, records, {r.id: "train" for r in records})
    assert cli.main(argv + ["--split", "test"]) == 1
    assert "split 'test'" in _error_line(capsys)


def test_evaluate_without_gold_labels_exits_one(tmp_path, capsys):
    records = [ArgumentRecord(id=f"u{i}", topic="city parks", argument=f"argument {i}")
               for i in range(3)]
    argv = _evaluate_args(tmp_path, records, {r.id: "test" for r in records})
    assert cli.main(argv) == 1
    assert "no gold labels" in _error_line(capsys)


def test_evaluate_without_augmentations_labels_the_row_none(tmp_path, tiny_dataset):
    """With no augmentations file no context is read, whatever ``--augs``
    (by default ``all``) asks for, and the row says so."""
    records = tiny_dataset.records[:4]
    argv = _evaluate_args(tmp_path, records, {r.id: "test" for r in records})
    assert cli.main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / "out" / "report.csv").read_text(encoding="utf-8"))))
    assert [(row["augs"], row["n"]) for row in rows] == [("none", "4")]


def test_train_without_augs_has_no_active_kinds(tmp_path, tiny_dataset, monkeypatch):
    """``--no-augs`` reads no context: its run config names no kind, and each
    train and dev record is encoded once."""
    calls = []
    encode_input = train.encode_input

    def counted(record, *args):
        calls.append(record.id)
        return encode_input(record, *args)

    monkeypatch.setattr(train, "encode_input", counted)
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    out = tmp_path / "out"
    assert cli.main(["train", "--dataset", str(data), "--no-augs", "--epochs", "1",
                     "--out", str(out)]) == 0
    settings = json.loads((out / "train_config.json").read_text(encoding="utf-8"))
    assert settings["active_kinds"] == []
    assert sorted(calls) == sorted(r.id for r in tiny_dataset.records
                                   if tiny_dataset.split_assignment[r.id] != "test")


def test_every_exception_class_is_one_main_reports():
    """``main`` reports OSError, ValueError, ProviderError and ProviderTimeout
    as one ``error:`` line. ``cmd_train`` handles NonFiniteLoss, and
    ShapeMismatch cannot come from command-line input."""
    handled = (OSError, ValueError, ProviderError, ProviderTimeout,
               train.NonFiniteLoss, ShapeMismatch)
    defined = []
    for info in pkgutil.walk_packages(argscore.__path__, "argscore."):
        module = importlib.import_module(info.name)
        defined += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name]
    assert len(defined) >= 10
    assert [e.__qualname__ for e in defined if not issubclass(e, handled)] == []


def test_augment_train_evaluate_end_to_end(tmp_path, tiny_dataset):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"max_seq_len": 32, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "ffn_dim": 32, "num_cross_heads": 2},
    }), encoding="utf-8")
    out = tmp_path / "out"
    augs = tmp_path / "augs.jsonl"
    common = ["--config", str(config), "--dataset", str(data)]

    assert cli.main(["augment", *common, "--provider", "mock", "--out", str(augs)]) == 0
    assert cli.main(["train", *common, "--augmentations", str(augs), "--epochs", "1",
                     "--out", str(out)]) == 0
    checkpoint = out / "checkpoint"
    assert sorted(p.name for p in checkpoint.iterdir()) == [
        "manifest.json", "params.bin", "vocab.txt"]
    assert (out / "train_state.json").exists()
    assert cli.main(["evaluate", *common, "--augmentations", str(augs),
                     "--checkpoint", str(checkpoint), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(report) == 2  # header and one row


def test_augmentations_of_another_corpus_exit_one(tmp_path, tiny_dataset, capsys):
    data = tmp_path / "tiny.jsonl"
    write_dataset(tiny_dataset, data)
    other = tmp_path / "other.jsonl"
    renamed = [replace(r, id=f"o{r.id}") for r in tiny_dataset.records]
    write_dataset(Dataset(records=renamed, split_assignment={
        f"o{rid}": split for rid, split in tiny_dataset.split_assignment.items()}), other)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"max_seq_len": 16, "model_dim": 16, "num_layers": 1, "num_heads": 2,
                  "ffn_dim": 32, "num_cross_heads": 2},
    }), encoding="utf-8")
    augs = tmp_path / "augs.jsonl"
    out = tmp_path / "out"
    assert cli.main(["augment", "--dataset", str(other), "--out", str(augs)]) == 0
    capsys.readouterr()

    common = ["--config", str(config), "--out", str(out)]
    # 16 train and 4 dev records lack a set
    assert cli.main(["train", *common, "--dataset", str(data), "--augmentations", str(augs),
                     "--epochs", "1"]) == 1
    assert f"{augs} has no augmentation set for 20 of the records in use, the first 't0'" \
        in _error_line(capsys)
    assert not (out / "checkpoint").exists()

    assert cli.main(["train", *common, "--dataset", str(data), "--no-augs", "--epochs", "1"]) == 0
    evaluate = ["evaluate", *common, "--dataset", str(data), "--augmentations", str(augs),
                "--checkpoint", str(out / "checkpoint")]
    assert cli.main(evaluate) == 1  # 4 test records lack a set
    assert "for 4 of the records in use, the first 't20'" in _error_line(capsys)
    assert cli.main(evaluate + ["--augs", "none"]) == 0  # no context is read


def test_gradcheck_without_flags_checks_the_default_config(monkeypatch):
    checked = []

    def fake_grad_check(config, eps, tolerance, seed):
        checked.append(config)
        return train.GradCheckReport({"enc1.tok_emb": 0.0}, tolerance)

    monkeypatch.setattr(train, "grad_check", fake_grad_check)
    assert cli.main(["gradcheck"]) == 0
    assert checked == [train.default_gradcheck_config()]


def test_gradcheck_too_short_a_sequence_is_one_error_line(capsys):
    # grad_check cuts two ids from the first sequence, so it needs L >= 3
    for seq_len in ("1", "2"):
        assert cli.main(["gradcheck", "--seq-len", seq_len]) == 1
        assert "3 <= L <= 8" in _error_line(capsys)


def test_gradcheck_zero_heads_is_one_error_line(capsys):
    # sizes are checked before divisibility, so no ZeroDivisionError escapes
    assert cli.main(["gradcheck", "--heads", "0"]) == 1
    assert "num_heads must be positive" in _error_line(capsys)


def test_gradcheck_bad_step_or_tolerance_is_one_error_line(capsys):
    for flag, value in (("--eps", "0"), ("--eps", "-1e-4"), ("--eps", "nan"),
                        ("--eps", "inf"), ("--tol", "0"), ("--tol", "-1")):
        assert cli.main(["gradcheck", f"{flag}={value}"]) == 1
        assert ("eps" if flag == "--eps" else "tolerance") in _error_line(capsys)
