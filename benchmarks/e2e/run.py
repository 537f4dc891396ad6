"""The benchmark's one command (``BENCHMARK.json`` names this file).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` it runs all eight, one fresh process each, and
prints a table; ``--self-check N`` does that N times and compares.
See README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Before NumPy loads: two cores carry two load generators, so BLAS must
# stay single-threaded in the harness (and, via child_env, below it).
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

if not (ROOT / "src" / "repro").is_dir():
    # e.g. a directory holding only the benchmark: nothing to measure
    raise SystemExit(f"{ROOT}/src/repro not found: the benchmark needs the program")

for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
