"""Opt-in: `generate` writes the same bytes under every OpenBLAS kernel of the matrix.

Seeding, angle draws and quantization are elementwise float64 and integer
arithmetic, and the one product, steering times source phasors, has K = 3
terms, so a `.qdst` byte is expected not to depend on the kernel.  Each runs
`generate` at the desk default in a child process whose environment alone
sets ``OPENBLAS_CORETYPE``; ``OPENBLAS_VERBOSE=2`` makes the child name the
kernel it ran.  A second row runs desk ``eval-doa`` at 40 trials under
SkylakeX and Haswell, once as shipped and once with the rounding bound of
``music.denominator_bound`` at inf, so that every spectrum chunk takes the
GEMM route: the polynomial pass must not move a pick under either kernel.
The matrix takes a few seconds:

    RUN_EXTENDED=1 pytest -s tests/test_kernels.py
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantdoa
from quantdoa.cli import parse_and_dispatch

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem")


def child_env(kernel: str) -> dict[str, str]:
    """A child's environment: this package and ``kernel``, on this process's BLAS thread count (one by default)."""
    return {**os.environ, "PYTHONPATH": str(Path(quantdoa.__file__).resolve().parents[1]),
            "OPENBLAS_VERBOSE": "2", "OPENBLAS_CORETYPE": kernel}


def generate_under(kernel: str, out: Path) -> tuple[str, dict[str, str]]:
    """The kernel a child `generate --seed 2` ran when asked for ``kernel``, and each split's SHA-256."""
    done = subprocess.run([sys.executable, "-m", "quantdoa", "generate", "--out", str(out), "--seed", "2"],
                          env=child_env(kernel), capture_output=True, text=True, timeout=600)
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


def eval_doa_under(kernel: str, out: Path, code: str) -> tuple[str, str]:
    """The kernel a child desk `eval-doa` at 40 trials ran after ``code``, and its doa_mse.csv SHA-256."""
    script = f"import sys\nfrom quantdoa import cli, music\n{code}\nsys.exit(cli.parse_and_dispatch(sys.argv[1:]))"
    argv = ["eval-doa", "--out", str(out), "--seed", "1", "--set", "music.trials=40"]
    done = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(kernel), capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    core = re.search(r"^Core: (\w+)", done.stderr, re.MULTILINE)
    return core.group(1) if core else "unknown", hashlib.sha256((out / "doa_mse.csv").read_bytes()).hexdigest()


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"), reason="kernel matrix; set RUN_EXTENDED=1 to run")
def test_polynomial_pass_moves_no_pick_under_either_kernel(tmp_path):
    desk = tmp_path / "desk"
    for argv in (["generate"], ["train", "--set", "train.epochs=2"]):
        assert parse_and_dispatch([*argv[:1], "--out", str(desk), "--seed", "1", *argv[1:]]) == 0
    unbounded = "music.denominator_bound = lambda *args: float('inf')"
    for kernel in ("SkylakeX", "Haswell"):
        ran = []
        for code in ("", unbounded):
            shutil.copytree(desk, out := tmp_path / f"{kernel}{len(ran)}")
            ran.append(eval_doa_under(kernel, out, code))
        print(f"{kernel}: doa_mse.csv {ran[0][1][:16]}")
        assert ran[0] == ran[1] == (kernel, ran[0][1]), ran
