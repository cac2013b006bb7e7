"""Opt-in: `generate` writes the same bytes under every OpenBLAS kernel of the matrix.

Seeding, angle draws and quantization are elementwise float64 and integer
arithmetic, and the one product, steering times source phasors, has K = 3
terms, so a `.qdst` byte is expected not to depend on the kernel.  Each runs
`generate` at the desk default in a child process whose environment alone
sets ``OPENBLAS_CORETYPE``; ``OPENBLAS_VERBOSE=2`` makes the child name the
kernel it ran.  The matrix takes a few seconds:

    RUN_EXTENDED=1 pytest tests/test_kernels.py
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quantdoa

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")


def generate_under(kernel: str, out: Path) -> tuple[str, dict[str, str]]:
    """The kernel a child `generate --seed 2` ran when asked for ``kernel``, and each split's SHA-256."""
    env = {**os.environ, "PYTHONPATH": str(Path(quantdoa.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OPENBLAS_VERBOSE": "2", "OPENBLAS_CORETYPE": kernel}
    done = subprocess.run([sys.executable, "-m", "quantdoa", "generate", "--out", str(out), "--seed", "2"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    core = re.search(r"^Core: (\w+)", done.stderr, re.MULTILINE)
    return core.group(1) if core else "unknown", {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("train.qdst", "test.qdst")}


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="kernel matrix; set RUN_EXTENDED=1 to run")
def test_generate_bytes_do_not_depend_on_the_kernel(tmp_path):
    ran = {kernel: generate_under(kernel, tmp_path / kernel) for kernel in KERNELS}
    # OpenBLAS falls back to another kernel on a CPU without the asked one's instructions
    assert [core for core, _ in ran.values()] == list(KERNELS), ran
    digests = [d for _, d in ran.values()]
    assert all(d == digests[0] for d in digests), ran
    assert digests[0]["train.qdst"].startswith("c78a090966d24ace")
