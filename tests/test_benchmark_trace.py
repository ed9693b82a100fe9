"""A traced benchmark run completes with every check passing and reports
exactly the per-layer metrics BENCHMARK.json declares. A traced function that
no longer runs would leave its metrics unreported, so this catches it.

The run writes its spans under ``.bench_out/``, as any traced run does."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_train_synth_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train-synth", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
