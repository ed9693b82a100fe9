"""Write the committed reference row that score-default checks.

    python3 benchmarks/make_reference.py

Run it only when a change to argscore is meant to change what evaluation
returns for the reference case, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from argbench import pipeline  # noqa: E402

if __name__ == "__main__":
    work_dir = HERE.parent / ".bench_work" / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        row = pipeline.reference_row(work_dir)
    finally:
        shutil.rmtree(work_dir)
    pipeline.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    pipeline.REFERENCE_PATH.write_text(json.dumps(row, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {pipeline.REFERENCE_PATH}")
