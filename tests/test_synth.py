"""The synthetic acceptance experiment at a reduced size."""

from argscore import cli, synth
from argscore.train import TrainConfig


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
