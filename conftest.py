"""Pytest set-up: BLAS runs on one thread unless the caller chose a count, as under ``python -m quantdoa``.

A second OpenBLAS thread buys nothing at the sizes the tests run, and under load from other processes it
fights them for the cores, which can reorder criterion 8a's timed widths.  ``quantdoa.__main__`` sets the
default before it imports numpy, and OpenBLAS reads it once, when numpy loads it; pytest imports this file
before any test module.
"""

import quantdoa.__main__  # noqa: F401
