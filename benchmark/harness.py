"""quantdoa benchmark: workloads, timing, output checks and metrics.

Each workload sets up an output directory with the ``quantdoa`` CLI and
then calls one CLI command (``eval-doa`` or ``train``) again and again,
in this process, through ``quantdoa.cli.parse_and_dispatch``: a single
caller in a closed loop.  Every call's outputs are checked before the
next call starts.  See benchmark/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quantdoa.checkpoint import load_checkpoint
from quantdoa.cli import parse_and_dispatch
from quantdoa.config import ScenarioConfig, apply_overrides, desk_default
from quantdoa.dataset import build_dataset, load_dataset
from quantdoa.experiments import DOA_SERIES, evaluate_loss

from spans import Tracer, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
# Untraced runs set up at least SETUP_REPEATS times and for at least
# SETUP_SECONDS / 2 both before and after the timed calls, so short
# set-ups get more samples for their median.
SETUP_REPEATS = 2
SETUP_SECONDS = 4.0
SNRS = tuple(desk_default().snr_db)  # no workload overrides snr_db


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                           # the timed CLI command
    overrides: tuple[str, ...] = ()        # --set values on every call
    setup_train: tuple[str, ...] | None = None  # extra --set values of a set-up train
    listed: bool = True                    # named in BENCHMARK.json

    def scenario(self, seed: int = 0) -> ScenarioConfig:
        """The configuration the CLI builds from these overrides."""
        config = apply_overrides(desk_default(), list(self.overrides))
        config.seed = seed
        return config


DEEP = "[16, " + ", ".join(["128"] * 11) + ", 16]"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "doa-eval",
            "MUSIC trials over six series and five SNRs; peak picking and the spectrum dominate",
            "eval-doa",
            setup_train=("train.epochs=5",),
        ),
        Workload(
            "train-desk",
            "desk-shape training at batch 256 with BN; float32 matmuls dominate",
            "train",
            ("train.epochs=10",),
        ),
        Workload(
            "train-deep-b16",
            "depth-12 training at batch 16 without BN; per-call overhead and adam_step dominate",
            "train",
            (
                "data.train_count=2000",
                "data.test_count=400",
                "network.use_bn=false",
                f"network.widths={DEEP}",
                "train.batch_size=16",
                "train.lr=0.01",
                "train.epochs=5",
            ),
            # Runnable by name for profiling, but not in BENCHMARK.json:
            # its many tiny calls follow the shared machine's speed so
            # closely that ten runs spread past the 25 % bound.
            listed=False,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "raw_error": "mse",
    "denoised_error": "mse",
}


class CheckError(Exception):
    """A CLI output failed its correctness check."""


def set_args(overrides) -> list[str]:
    return [a for o in overrides for a in ("--set", o)]


# -- output checks -----------------------------------------------------------------


def parse_curves(text: str) -> tuple[dict[str, str], list[tuple[str, float, float, float]]]:
    """Header fields and rows of a CSV the CLI writes; rejects malformed or non-finite rows."""
    header: dict[str, str] = {}
    body: list[str] = []
    rows = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    if not body or body[0] != "series,x,y,spread":
        raise CheckError("missing the series,x,y,spread column header")
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise CheckError(f"malformed row {line!r}")
        try:
            x, y, spread = (float(v) for v in parts[1:])
        except ValueError:
            raise CheckError(f"non-numeric row {line!r}") from None
        if not all(math.isfinite(v) for v in (x, y, spread)):
            raise CheckError(f"non-finite value in row {line!r}")
        rows.append((parts[0], x, y, spread))
    for key in ("config_hash", "seed"):
        if key not in header:
            raise CheckError(f"missing # {key} header")
    return header, rows


def check_doa_csv(text: str) -> dict[tuple[str, float], float]:
    """All 30 (series, SNR) rows, each once, with finite non-negative MSEs."""
    _, rows = parse_curves(text)
    table = {}
    for series, snr, mse, spread in rows:
        if (series, snr) in table:
            raise CheckError(f"duplicate row {series} at {snr} dB")
        if mse < 0 or spread < 0:
            raise CheckError(f"negative MSE or spread for {series} at {snr} dB")
        table[(series, snr)] = mse
    expected = {(s, snr) for s in DOA_SERIES for snr in SNRS}
    if set(table) != expected:
        raise CheckError(f"rows {sorted(set(table) ^ expected)} missing or unexpected")
    return table


def check_train_csv(text: str, epochs: int) -> float:
    """One train-loss row per epoch, falling; returns the final test loss."""
    header, rows = parse_curves(text)
    if header.get("diverged") != "false":
        raise CheckError(f"training diverged (header diverged: {header.get('diverged')})")
    train_loss = [(x, y) for s, x, y, _ in rows if s == "train-loss"]
    test_loss = [y for s, _, y, _ in rows if s == "test-loss"]
    if [x for x, _ in train_loss] != [float(e) for e in range(epochs)]:
        raise CheckError(f"expected train-loss rows for epochs 0..{epochs - 1}")
    if not test_loss:
        raise CheckError("no test-loss row")
    if not train_loss[-1][1] < train_loss[0][1]:
        raise CheckError("final train loss is not below the first epoch's")
    return test_loss[-1]


def check_dataset_roundtrip(out: Path, config: ScenarioConfig) -> None:
    """The saved datasets load back equal to freshly built ones."""
    for split in ("train", "test"):
        built = build_dataset(config, split)
        loaded = load_dataset(out / f"{split}.qdst")
        for name in ("inputs", "targets", "snr_db", "angles_deg", "record_seeds"):
            a, b = getattr(built, name), getattr(loaded, name)
            if a.dtype != b.dtype or not np.array_equal(a, b):
                raise CheckError(f"{split}.qdst: {name} differs after save/load")
        if (built.snr_list, built.bits, built.full_scale) != (loaded.snr_list, loaded.bits, loaded.full_scale):
            raise CheckError(f"{split}.qdst: header fields differ after save/load")


def check_model(out: Path, final_test_loss: float) -> float:
    """model.qdnn loads and reproduces the reported test loss; returns the raw loss.

    The raw loss scores the quantized inputs themselves as the
    reconstruction: the error before any denoising.
    """
    test = load_dataset(out / "test.qdst")
    reloaded = evaluate_loss(load_checkpoint(out / "model.qdnn"), test)
    if reloaded != final_test_loss:
        raise CheckError(f"reloaded model scores {reloaded!r}, train reported {final_test_loss!r}")
    diff = test.inputs.astype(np.float64) - test.targets.astype(np.float64)
    return float(np.mean(diff * diff))


# -- one run -------------------------------------------------------------------------


@dataclass
class Run:
    workload: Workload
    seed: int
    out: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_walls: list[float] = field(default_factory=list)
    op_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    first_bytes: dict = field(default_factory=dict)
    quality: dict[str, list[float]] = field(default_factory=dict)  # raw / denoised errors
    config_hash: str = ""

    def attempt(self, what: str, fn) -> bool:
        """Count one operation; a CheckError or failed call marks it failed."""
        self.attempted += 1
        try:
            fn()
            return True
        except CheckError as exc:
            self.failed += 1
            self.problems.append(f"{what}: {exc}")
            return False

    def call(self, argv: list[str], traced: bool = False) -> float:
        """One in-process CLI call, as a user makes it; returns its wall time."""
        err = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if traced else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), span:
            code = parse_and_dispatch(argv)
        wall = time.perf_counter() - start
        if code != 0:
            raise CheckError(f"quantdoa {argv[0]} exited {code}: {err.getvalue().strip()}")
        return wall

    def same_bytes(self, key, path: Path) -> None:
        data = path.read_bytes()
        if self.first_bytes.setdefault(key, data) != data:
            raise CheckError(f"{path.name} differs from an earlier call with the same seed")


def set_up(run: Run, out: Path, traced: bool) -> None:
    w = run.workload
    common = ["--out", str(out), "--seed", str(run.seed)] + set_args(w.overrides)
    wall = run.call(["generate"] + common, traced)
    if w.setup_train is not None:
        wall += run.call(["train"] + common + set_args(w.setup_train), traced)
    run.setup_walls.append(wall)
    for name in ("train.qdst", "test.qdst") + (("model.qdnn",) if w.setup_train is not None else ()):
        run.same_bytes(("setup", name), out / name)


def timed_call(run: Run, k: int, traced: bool) -> None:
    """The k-th timed command call, then its output checks.

    A traced call runs with the tracer installed; an untraced one runs
    the package's own functions, with no wrapper in between.
    """
    w = run.workload
    argv = [w.command, "--out", str(run.out), "--seed", str(run.seed)] + set_args(w.overrides)
    if traced:
        with run.tracer.installed(), run.tracer.phase("run"):
            wall = run.call(argv, traced=True)
        run.traced_walls.append(wall)
    else:
        wall = run.call(argv)
        run.op_walls.append(wall)
    if w.command == "eval-doa":
        csv = run.out / "doa_mse.csv"
        table = check_doa_csv(csv.read_text())
        run.same_bytes("doa_mse.csv", csv)
        if k == 0:
            run.quality = {
                key: [table[(tag, snr)] for snr in SNRS]
                for key, tag in (("raw", "raw-1bit"), ("denoised", "recon-1bit"))
            }
    else:
        csv = run.out / "train_curves.csv"
        final = check_train_csv(csv.read_text(), w.scenario().train.epochs)
        run.same_bytes("train_curves.csv", csv)
        run.same_bytes("model.qdnn", run.out / "model.qdnn")
        if k == 0:
            run.quality = {"raw": [check_model(run.out, final)], "denoised": [final]}
    if not run.config_hash:
        run.config_hash = parse_curves(csv.read_text())[0]["config_hash"]


def set_ups(run: Run, workdir: Path, repeats: int, budget: float, trace: bool) -> bool:
    """Set up at least ``repeats`` times and for at least ``budget`` seconds."""
    done, spent = len(run.setup_walls), sum(run.setup_walls)
    while len(run.setup_walls) - done < repeats or sum(run.setup_walls) - spent < budget:
        r = len(run.setup_walls)
        with contextlib.ExitStack() as stack:
            if trace:
                stack.enter_context(run.tracer.installed())
                stack.enter_context(run.tracer.phase("setup"))
            if not run.attempt(f"set-up {r}", lambda: set_up(run, workdir / f"setup{r}", trace)):
                return False
    return True


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Set up, then call the timed command until ``seconds`` have passed.

    Untraced runs set up several times, half before and half after the
    timed calls, so the set-up median samples the same stretch of
    machine time as the calls.  Traced runs set up once under the
    tracer and alternate traced and untraced calls, so the tracing
    overhead is measured on the same inputs.
    """
    run = Run(workload, seed, workdir / "setup0", Tracer() if trace else None)
    half = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS / 2)
    if not set_ups(run, workdir, *half, trace):
        return run
    if not run.attempt("dataset round trip", lambda: check_dataset_roundtrip(run.out, workload.scenario(seed))):
        return run
    # At least two calls: the second must repeat the first's outputs byte
    # for byte, and a traced run needs an untraced call to compare with.
    # On doa-eval two calls also average two samples of a shared
    # machine's speed, which drifts over tens of seconds.
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        traced = trace and k % 2 == 0
        if not run.attempt(f"call {k}", lambda: timed_call(run, k, traced)):
            return run
        k += 1
    if not trace:
        set_ups(run, workdir, *half, trace)
    return run


# -- metrics -------------------------------------------------------------------------


def items_per_call(w: Workload) -> int:
    config = w.scenario()
    if w.command == "eval-doa":
        return config.music.trials * len(DOA_SERIES) * len(config.snr_db)
    return config.train.epochs * config.data.train_count


def end_to_end(run: Run) -> dict[str, float]:
    items = items_per_call(run.workload)
    return {
        "setup_s": statistics.median(run.setup_walls),
        # Items over the summed wall time of every timed call: the run's
        # throughput.  A per-call median would follow whichever speed
        # phase of a shared machine held most calls; the sum spans them.
        "items_per_s": items * len(run.op_walls) / sum(run.op_walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_error": statistics.fmean(run.quality["raw"]),
        "denoised_error": statistics.fmean(run.quality["denoised"]),
    }


# Layers whose stats come from the timed calls, layers only set-up runs,
# and layers that run in both (their set-up self time is reported too).
RUN_LAYERS = (
    "music.pick_peaks",
    "music.music_spectrum",
    "music.noise_subspace",
    "music.sample_covariance",
    "music.doa_mse",
    "signal_model.synthesize",
    "signal_model.draw_source_angles",
    "signal_model.steering_matrix",
    "quantizer.quantize_complex",
    "experiments.denoise_snapshots",
    "network.forward.train",
    "network.backward",
    "network.loss",
    "optimizer.adam_step",
)
SETUP_ONLY_LAYERS = ("dataset.generate_record",)
SETUP_SHARED_LAYERS = RUN_LAYERS[5:9]


def per_layer(run: Run) -> tuple[dict[str, dict], dict[str, list]]:
    """Per-layer metrics of a traced run, plus each tail's percentile and sample count.

    Counts and self times are per traced command call (run phase) or per
    set-up (set-up phase); percentiles are of inclusive span durations.
    Layers that did not run report 0.
    """
    tr = run.tracer
    ops = {p: max(tr.phase_ops.get(p, 0), 1) for p in ("setup", "run")}
    walls = {p: tr.phase_wall.get(p, 0.0) for p in ("setup", "run")}
    metrics: dict[str, dict] = {}
    tails: dict[str, list] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": float(value), "unit": unit}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def self_ms(phase: str, layer: str) -> float:
        return tr.get(phase, layer).self_total * 1e3 / ops[phase]

    for phase, layers in (("run", RUN_LAYERS), ("setup", SETUP_ONLY_LAYERS)):
        for layer in layers:
            st = tr.get(phase, layer)
            d = np.asarray(st.durations) * 1e6
            pct = tail_percentile(d.size)
            put(f"{layer}.calls", st.calls / ops[phase], "count")
            put(f"{layer}.self_ms", self_ms(phase, layer), "ms")
            put(f"{layer}.p50_us", np.percentile(d, 50) if d.size else 0.0, "us")
            put(f"{layer}.tail_us", np.percentile(d, pct) if d.size else 0.0, "us")
            put(f"{layer}.share", ratio(st.self_total, walls[phase]), "fraction")
            tails[layer] = [pct, st.calls]
    peaks = tr.get("run", "music.pick_peaks")
    put("music.pick_peaks.unresolved_frac", ratio(peaks.unresolved, peaks.calls), "fraction")
    put("music.run_trials.self_ms", self_ms("run", "music.run_trials"), "ms")
    infer = tr.get("run", "network.forward.infer")
    put("network.forward.infer.calls", infer.calls / ops["run"], "count")
    put("network.forward.infer.self_ms", self_ms("run", "network.forward.infer"), "ms")
    put("network.forward.infer.rows_per_call", ratio(infer.rows, infer.calls), "rows")
    put("experiments.train.self_ms", self_ms("run", "experiments.train"), "ms")
    put("dataset.build_dataset.self_ms", self_ms("setup", "dataset.build_dataset"), "ms")
    for layer in SETUP_SHARED_LAYERS:
        put(f"{layer}.setup_ms", self_ms("setup", layer), "ms")
    # I/O layers: per-call medians and rates over set-up and timed calls.
    for layer in ("dataset.save_dataset", "dataset.load_dataset", "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        both = [tr.get(p, layer) for p in ("setup", "run")]
        d = [t for st in both for t in st.durations]
        put(f"{layer}.ms", statistics.median(d) * 1e3 if d else 0.0, "ms")
        if layer.startswith("dataset."):
            put(f"{layer}.mib_per_s", ratio(sum(st.nbytes for st in both) / 2**20, sum(d)), "MiB/s")
    for command in ("generate", "train", "eval-doa"):
        both = [tr.get(p, f"cli.{command}") for p in ("setup", "run")]
        calls = sum(st.calls for st in both)
        put(f"cli.{command}.self_ms", ratio(sum(st.self_total for st in both) * 1e3, calls), "ms")
    named = sum(st.self_total for (phase, name), st in tr.stats.items() if phase == "run" and not name.startswith("cli."))
    put("trace.unaccounted_share", 1.0 - named / walls["run"] if walls["run"] else 0.0, "fraction")
    untraced = statistics.median(run.op_walls) if run.op_walls else 0.0
    traced = statistics.median(run.traced_walls) if run.traced_walls else 0.0
    put("trace.overhead_share", ratio(traced - untraced, untraced), "fraction")
    return metrics, tails


# -- facts and the report ------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quantdoa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown: git failed"


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def facts(run: Run, seconds: float, trace: bool) -> dict:
    w = run.workload
    out = {
        "workload": w.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "config_hash": run.config_hash,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "setup_walls_s": run.setup_walls,
        "call_walls_s": run.op_walls,
        "items_per_call": items_per_call(w),
        "call_median_items_per_s": (items_per_call(w) / statistics.median(run.op_walls)) if run.op_walls else None,
        "failed_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems,
    }
    if run.failed == 0 and run.op_walls:
        e2e = end_to_end(run)
        if w.command == "eval-doa":
            out.update(doa_trials_per_s=e2e["items_per_s"], doa_mse_raw_1bit=e2e["raw_error"],
                       doa_mse_recon_1bit=e2e["denoised_error"])
        else:
            out.update(train_samples_per_s=e2e["items_per_s"], raw_test_loss=e2e["raw_error"],
                       final_test_loss=e2e["denoised_error"])
    if trace:
        out["traced_call_walls_s"] = run.traced_walls
        if run.op_walls and run.traced_walls:
            out["trace_overhead_s"] = statistics.median(run.traced_walls) - statistics.median(run.op_walls)
    return out


def report(run: Run, seconds: float, trace: bool) -> dict:
    ok = run.failed == 0
    metrics: dict[str, dict] = {}
    extra = facts(run, seconds, trace)
    if ok and trace:
        metrics, extra["tail_percentile_and_samples"] = per_layer(run)
    elif ok:
        values = end_to_end(run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"facts": extra}))
    return {"correct": ok, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description="quantdoa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        result = report(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1
