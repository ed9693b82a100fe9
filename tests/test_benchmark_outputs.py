"""Same-output guard for the benchmark workloads.

For each workload of ``benchmarks/argbench`` at seed 1, set-up runs as the
benchmark runs it, then one training and one evaluation of the test split.
The 2-epoch loss and dev-Spearman histories and the test row are pinned
within a relative 1e-12. A change meant to keep outputs (a refactor or a
speed-up) must keep these; one meant to change them re-records the values
here and says why."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

from argbench import pipeline  # noqa: E402
from argscore import evaluation  # noqa: E402
from argscore import train as train_mod  # noqa: E402
from argscore.augment import KIND_ORDER  # noqa: E402

METRICS = ("cogency_s", "cogency_p", "effectiveness_s", "effectiveness_p",
           "reasonableness_s", "reasonableness_p", "wa_s", "wa_p")

# workload -> (loss_history, dev_spearman_history, test n, test row in METRICS order)
RECORDED = {
    "train-synth": (
        [0.15945208958326704, 0.12658809653739267],
        [0.08059628793940352, 0.025454447024324336],
        48,
        [0.07722263534545233, 0.1044891807301574, 0.02108600777804498, 0.05343407065426136,
         0.22951356449177085, 0.23935899269240293, 0.5003281378443768, 0.5190441839110687],
    ),
    "train-default": (
        [0.12669366057450304, 0.04278248246256387],
        [0.13604768594154293, 0.12352083782293449],
        32,
        [-0.2895141904201264, -0.25685410531986885, -0.0497703978380135, -0.0733433738169983,
         -0.1638057712448605, -0.17844007711939147, -0.2921146461418847, -0.34682325745140913],
    ),
    "score-default": (
        [0.18708079326521104, 0.04804724387232791],
        [0.3862069143818972, 0.37112851739395003],
        96,
        [0.09517880495073841, 0.0576549058307792, -0.11307088279210721, -0.10762144249246039,
         0.017633696251109273, -0.007624470128474879, 0.016468905711182417,
         -0.03564624760302428],
    ),
}


def test_every_workload_is_recorded():
    assert sorted(RECORDED) == sorted(pipeline.WORKLOADS)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_workload_outputs_match_recorded_values(name, tmp_path):
    losses, dev, n, metrics = RECORDED[name]
    inp = pipeline.setup(pipeline.WORKLOADS[name], 1, tmp_path)
    params, state, _ = train_mod.train(inp.params, inp.config, inp.tcfg, inp.dataset,
                                       inp.augmentations, inp.vocab)
    assert state.loss_history == pytest.approx(losses, rel=1e-12, abs=0)
    assert state.dev_spearman_history == pytest.approx(dev, rel=1e-12, abs=0)

    row = evaluation.evaluate(params, inp.config, inp.vocab, inp.dataset, inp.augmentations,
                              "test", KIND_ORDER)
    assert (row.split, row.mode, row.augs, row.n) == ("test", "dual", "all", n)
    assert [getattr(row, m) for m in METRICS] == pytest.approx(metrics, rel=1e-12, abs=0)
