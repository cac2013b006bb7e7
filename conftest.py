"""Pytest set-up: BLAS runs on one thread unless the caller chose a count.

A second OpenBLAS thread buys nothing at the sizes the tests run, and under
load from other processes it fights them for the cores, which can reorder
criterion 8a's timed widths.  OpenBLAS reads these variables once, when numpy
loads it, so this file runs before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
