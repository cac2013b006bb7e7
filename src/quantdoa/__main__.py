"""``python -m quantdoa`` and the ``quantdoa`` script: :mod:`quantdoa.cli` on one BLAS thread unless the caller sets a count."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read once, when numpy loads OpenBLAS
from .cli import main  # noqa: E402

if __name__ == "__main__":
    main()
