"""Run one quantdoa benchmark workload and print its metrics.

    python3 benchmark/run.py --workload doa-eval --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports quantdoa from the
checkout's ``src/`` and nowhere else, and exits with code 2 when that is
missing.  The last line of standard output is the result as JSON; the
line before it carries the run facts.  See benchmark/README.md.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One BLAS thread: the baseline is a plain single-threaded run, which also
# keeps the figures steady on a shared machine.  Must precede numpy's import.
BLAS_THREADS = "1"


def main() -> int:
    if not (SRC / "quantdoa" / "__init__.py").is_file():
        print(f"error: quantdoa sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
