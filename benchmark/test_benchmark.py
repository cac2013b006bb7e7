"""Tests of the benchmark harness, on tiny versions of its workloads."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import quantdoa.music  # noqa: E402

TINY = (
    "data.train_count=128",
    "data.test_count=32",
    "network.widths=[16, 32, 32, 32, 16]",
    "music.grid_step=0.5",
    "train.epochs=3",
    "music.trials=2",
)
SEED = 7


def tiny(name: str) -> harness.Workload:
    w = harness.WORKLOADS[name]
    return dataclasses.replace(
        w,
        overrides=w.overrides + TINY,
        setup_train=("train.epochs=3",) if w.setup_train is not None else None,
    )


def outputs_of(w: harness.Workload) -> tuple[str, ...]:
    return ("doa_mse.csv",) if w.command == "eval-doa" else ("train_curves.csv", "model.qdnn")


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_reports_every_metric_with_its_unit(name, tmp_path, monkeypatch, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    calls = []

    def recording(argv):
        calls.append(list(argv))
        return quantdoa.cli.parse_and_dispatch(argv)

    monkeypatch.setattr(harness, "parse_and_dispatch", recording)
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        run = harness.measure(tiny(name), SEED, 0.0, trace, tmp_path / f"trace{int(trace)}")
        assert run.problems == [] and run.failed == 0
        result = harness.report(run, 0.0, trace)
        assert result["correct"] and result["attempted"] >= 3
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    assert capsys.readouterr().out.count('"facts"') == 2
    assert all("--threads" not in argv and argv[0] != "bench" for argv in calls)
    assert {argv[0] for argv in calls} >= {"generate", harness.WORKLOADS[name].command}


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n, w in harness.WORKLOADS.items() if w.listed]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS


@pytest.mark.parametrize("name", ["doa-eval", "train-desk"])
def test_traced_and_untraced_calls_write_identical_outputs(name, tmp_path):
    w = tiny(name)
    run = harness.Run(w, SEED, tmp_path, spans.Tracer())
    harness.set_up(run, tmp_path, traced=False)
    seen = []
    for traced in (True, False):
        harness.timed_call(run, 0, traced)
        seen.append({f: (tmp_path / f).read_bytes() for f in outputs_of(w)})
        # wrappers are in place only while a traced call runs
        assert not run.tracer._restore
    assert run.tracer.phase_ops == {"run": 1} and run.traced_walls and run.op_walls
    layer = "music.pick_peaks" if w.command == "eval-doa" else "optimizer.adam_step"
    assert run.tracer.get("run", layer).calls > 0
    assert seen[0] == seen[1]


@pytest.fixture(scope="module")
def doa_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("doa")
    run = harness.Run(tiny("doa-eval"), SEED, out)
    harness.set_up(run, out, traced=False)
    harness.timed_call(run, 0, traced=False)
    return run, (out / "doa_mse.csv").read_text()


def tamper(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_check_catches_a_tampered_row(doa_csv, tmp_path):
    run, text = doa_csv
    assert len(harness.check_doa_csv(text)) == 30
    row = next(line for line in text.splitlines() if line.startswith("raw-1bit,30.0,"))
    series, x, y, spread = row.split(",")
    bad_rows = {
        "non-finite": tamper(text, row, f"{series},{x},nan,{spread}"),
        "missing": tamper(text, row + "\n", ""),
        "duplicate": tamper(text, row, row + "\n" + row),
        "negative": tamper(text, row, f"{series},{x},-{y},{spread}"),
    }
    for bad in bad_rows.values():
        with pytest.raises(harness.CheckError):
            harness.check_doa_csv(bad)
    # A plausible but changed value passes the shape check; the
    # comparison with an earlier call on the same seed catches it.
    changed = tamper(text, row, f"{series},{x},{float(y) * 1.5!r},{spread}")
    harness.check_doa_csv(changed)
    path = tmp_path / "doa_mse.csv"
    path.write_text(changed)
    assert not run.attempt("tampered call", lambda: run.same_bytes("doa_mse.csv", path))
    assert run.failed == 1 and not harness.report(run, 0.0, False)["correct"]


def test_check_catches_a_tampered_training_curve():
    rows = ["# config_hash: x", "# seed: 1", "# diverged: false", "series,x,y,spread"]
    rows += [f"train-loss,{e}.0,{1.0 - 0.1 * e!r},0.0" for e in range(3)]
    rows += [f"test-loss,{e}.0,{1.0 - 0.1 * e!r},0.0" for e in range(3)]
    good = "\n".join(rows) + "\n"
    assert harness.check_train_csv(good, 3) == pytest.approx(0.8)
    for bad in (
        good.replace("diverged: false", "diverged: true"),
        good.replace("train-loss,1.0,", "train-loss,5.0,"),
        good.replace("train-loss,2.0,0.8", "train-loss,2.0,1.2"),
        good.replace("test-loss,", "skip,"),
    ):
        with pytest.raises(harness.CheckError):
            harness.check_train_csv(bad, 3)


def test_tracer_fails_loudly_when_a_layer_is_gone(monkeypatch):
    original = quantdoa.music.sample_covariance
    monkeypatch.delattr(quantdoa.music, "pick_peaks")
    with pytest.raises(spans.MissingLayerError, match="music.pick_peaks"):
        spans.Tracer().install()
    assert quantdoa.music.sample_covariance is original


def test_count_peaks_uses_the_peak_definition_of_pick_peaks():
    # two strict peaks, one plateau peak, and endpoint runs that never count
    spectrum = [5.0, 1.0, 3.0, 1.0, 2.0, 2.0, 1.0, 4.0, 0.0, 6.0]
    grid = [float(i) for i in range(len(spectrum))]
    assert spans.count_peaks(spectrum) == 3
    assert list(quantdoa.music.pick_peaks(grid, spectrum, 3)) == [2.0, 4.0, 7.0]


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "doa-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
