"""The synthetic acceptance experiment at a reduced size."""

import hashlib
from collections import Counter

from argscore import augment, cli, synth
from argscore.augment import KIND_ORDER, prompts
from argscore.train import TrainConfig

# sha256 of the reduced corpus's augmentation file at seed 11: pins every planted text
REDUCED_AUGMENTATIONS_SHA256 = "851f230a5058a1d56d4a662e302af01da9c69d3d24ef30a93be1204c46648498"


def test_reduced_synth_keeps_the_context_gain():
    # At this size the gap measured 0.495 or more at seeds 11, 12 and 13.
    settings = synth.SynthSettings(
        n_train=96, n_dev=24, n_test=48,
        train=TrainConfig(gamma=0.5, batch_size=8, learning_rate=3e-3, epochs=10),
    )
    result = synth.run_experiment(11, settings=settings)
    assert list(result.rows) == [label for label, _, _ in synth.RUNS]
    mean = {label: row.mean_spearman() for label, row in result.rows.items()}
    assert mean["dual_all"] - max(mean["dual_none"], mean["single_all"]) >= 0.3, mean


def test_dry_run_plans_every_run(capsys):
    assert cli.main(["synth", "--dry-run"]) == 0
    planned = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("planned: train+evaluate")]
    assert [line.split()[2] for line in planned] == [label for label, _, _ in synth.RUNS]


def test_reduced_synth_plants_the_same_texts_rendering_each_prompt_once(tmp_path, monkeypatch):
    renders = Counter()
    render = prompts.render_prompt

    def counting(kind, record, exemplars=None):
        renders[record.id, kind] += 1
        return render(kind, record, exemplars)

    monkeypatch.setattr(augment, "render_prompt", counting)
    monkeypatch.setattr(prompts, "render_prompt", counting)
    monkeypatch.setattr(synth, "render_prompt", counting, raising=False)  # any rendering of its own
    dataset = synth.make_records(11, 96, 24, 48)
    path = tmp_path / "augmentations.jsonl"
    augment.write_augmentations(path, synth.build_augmentations(dataset, 11))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REDUCED_AUGMENTATIONS_SHA256
    assert renders == Counter({(rec.id, kind): 1 for rec in dataset.records
                               for kind in KIND_ORDER})


def test_test_split_of_one_exits_before_any_training(tmp_path, monkeypatch, capsys):
    trained = []
    monkeypatch.setattr(synth, "train", lambda *args: trained.append(args))
    argv = ["synth", "--test-size", "1", "--train-size", "16", "--epochs", "1",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "test split needs at least two records" in capsys.readouterr().err
    assert trained == []
