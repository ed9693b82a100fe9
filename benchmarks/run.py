"""Run one workload of the argscore benchmark and print its metrics.

    python3 benchmarks/run.py --workload train-default --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; argscore is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
give the environment, each metric with its sample count, and every
correctness check. ``--workload all`` runs each workload in turn, each in its
own process. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the benchmark is one closed-loop client, its matrices are
# small, and a fixed thread count keeps runs comparable. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train-synth", "train-default", "score-default")


def environment() -> dict:
    import numpy

    from argscore.model import kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except TypeError:  # numpy < 1.25 has no machine-readable config
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "using_numba": kernels.USING_NUMBA,
    }


def run_one(args) -> int:
    from argbench import pipeline

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env = environment()
    print("env " + json.dumps(env))
    ledger = result.ledger
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} rounds {result.rounds} "
          f"set-ups {len(result.samples['setup_s'])}")
    if args.trace:
        for name, (value, unit) in result.metrics.items():
            note = f" ({result.notes[name]})" if name in result.notes else ""
            print(f"layer {name} = {value:.6g} {unit}{note}")
        out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result.tracer.write(out, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        figures = [("metric", result.metrics), ("unbounded", result.unbounded)]
        for label, table in figures:
            for name, (value, unit) in table.items():
                values = result.samples.get(name)
                if name == "setup_s":
                    how = f"median of n={len(values)} set-ups"
                elif values:
                    how = f"over n={len(values)} rounds"
                else:
                    how = "whole run"
                spread = f"; min {min(values):.6g}, max {max(values):.6g}" if values else ""
                print(f"{label} {name} = {value:.6g} {unit} ({how}{spread})")
                if values:
                    print(f"samples {name} " + json.dumps(values))
    print(f"operations failed_frac = {ledger.failed / ledger.attempted:.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for name, (passed, total) in ledger.checks.items():
        print(f"check {name}: {'pass' if passed == total else 'FAIL'} ({passed}/{total})")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.metrics.items()},
    }))
    return 0 if ledger.correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:  # the workload ended without a result
            result = {"correct": False}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the rounds run; at least one round always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "argscore" / "__init__.py").is_file():
        print(f"error: no argscore sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
