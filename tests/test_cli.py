import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quantdoa
from quantdoa import cli, experiments
from quantdoa.checkpoint import load_checkpoint, save_checkpoint
from quantdoa.cli import parse_and_dispatch
from quantdoa.config import ScenarioConfig, desk_default
from quantdoa.dataset import load_dataset

from curves import read_curves_csv

TINY = [
    "--set", "data.train_count=300",
    "--set", "data.test_count=60",
    "--set", "network.widths=[16, 32, 32, 32, 16]",
    "--set", "train.epochs=3",
    "--set", "music.trials=6",
    "--set", "music.grid_step=0.05",
]


def run(args):
    return parse_and_dispatch([str(a) for a in args])


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert run(["generate", "--out", out] + TINY) == 0
    assert run(["train", "--out", out] + TINY) == 0
    return out


class TestGenerate:
    def test_override_controls_record_count(self, tmp_path):
        assert run(["generate", "--out", tmp_path] + TINY) == 0
        assert load_dataset(tmp_path / "train.qdst").count == 300
        assert load_dataset(tmp_path / "test.qdst").count == 60

    def test_seed_flag_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["generate", "--out", a, "--seed", 1] + TINY) == 0
        assert run(["generate", "--out", b, "--seed", 2] + TINY) == 0
        assert (a / "train.qdst").read_bytes() != (b / "train.qdst").read_bytes()

    @pytest.mark.parametrize("stage", ["build", "save"])
    def test_failing_test_split_leaves_out_as_it_was(self, tmp_path, monkeypatch, stage):
        assert run(["generate", "--out", tmp_path, "--seed", 1] + TINY) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        build, save = cli.build_dataset, cli.save_dataset

        def build_or_fail(config, split):
            if stage == "build" and split == "test":
                raise MemoryError("injected")
            return build(config, split)

        def save_or_fail(ds, path):
            if stage == "save" and "test" in path.name:
                path.write_bytes(b"half a set")
                raise MemoryError("injected")
            save(ds, path)

        monkeypatch.setattr(cli, "build_dataset", build_or_fail)
        monkeypatch.setattr(cli, "save_dataset", save_or_fail)
        with contextlib.redirect_stderr(io.StringIO()):
            assert run(["generate", "--out", tmp_path, "--seed", 2] + TINY) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestStagedOutputs:
    # command -> its outputs, and the writer of the last of them with that call's number
    LAST_WRITER = {
        "train": (["model.qdnn", "train_curves.csv"], "write_curves_csv", 1),
        "compress": (["compression.csv", "model_fp16.qdnn"], "save_checkpoint", 1),
        "ablate": (["ablation_timing.csv", "ablation.csv"], "write_curves_csv", 2),
    }

    @pytest.mark.parametrize("command", sorted(LAST_WRITER))
    def test_failing_last_writer_leaves_out_as_it_was(self, pipeline_dir, tmp_path, monkeypatch, command):
        outputs, writer, last = self.LAST_WRITER[command]
        for name in ("train.qdst", "test.qdst", "model.qdnn"):
            (tmp_path / name).write_bytes((pipeline_dir / name).read_bytes())
        for name in outputs:  # older outputs, which this run must not replace
            (tmp_path / name).write_bytes(f"old {name}".encode())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        written, write = [], getattr(cli, writer)

        def fail_last(*args, **kwargs):
            path = next(a for a in args if isinstance(a, Path))  # each writer takes one path among its arguments
            written.append(path.name)
            if len(written) == last:
                path.write_bytes(b"half a file")
                raise MemoryError("injected")
            write(*args, **kwargs)

        monkeypatch.setattr(cli, writer, fail_last)
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert run([command, "--out", tmp_path] + TINY) == 2
        assert len(written) == last and all(name.endswith(".partial") for name in written)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert not list(tmp_path.glob("*.partial"))


class TestPipeline:
    def test_train_emits_checkpoint_and_curves(self, pipeline_dir):
        model = load_checkpoint(pipeline_dir / "model.qdnn")
        assert model.width_in == 16
        points, header = read_curves_csv(pipeline_dir / "train_curves.csv")
        assert header["diverged"] == "false"
        assert any(p.series == "train-loss" for p in points)

    def test_eval_doa_has_recon_series(self, pipeline_dir):
        assert run([
            "eval-doa", "--out", pipeline_dir,
            "--set", "snr_db=[50.0]", "--set", "music.min_sep=6.0",
        ] + TINY + ["--set", "music.trials=4"]) == 0
        points, _ = read_curves_csv(pipeline_dir / "doa_mse.csv")
        series = {p.series for p in points}
        assert "recon-1bit" in series
        assert {"unquantized", "raw-1bit", "raw-2bit", "raw-3bit", "raw-4bit"} <= series

    def test_trials_flag_is_a_usage_error_that_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        assert run(["eval-doa", "--out", tmp_path, "--trials", 4] + TINY) == 1
        assert "unrecognized arguments: --trials 4" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["model.qdnn"]

    def test_compress_rounds_to_fp16_once(self, pipeline_dir, tmp_path):
        (tmp_path / "test.qdst").write_bytes((pipeline_dir / "test.qdst").read_bytes())
        model = load_checkpoint(pipeline_dir / "model.qdnn")
        model.dense[0].w[0, 0] = 1e6
        save_checkpoint(model, tmp_path / "model.qdnn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["compress", "--out", tmp_path] + TINY) == 0
        saturated = [w for w in caught if "exceeded the fp16 range" in str(w.message)]
        assert [w.category for w in saturated] == [RuntimeWarning]

    def test_eval_recon_and_compress(self, pipeline_dir):
        assert run(["eval-recon", "--out", pipeline_dir] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "recon_loss.csv")
        assert len(points) == 5  # one per SNR bucket
        assert run(["compress", "--out", pipeline_dir] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "compression.csv")
        ratio = [p.y for p in points if p.series == "payload-ratio"]
        assert ratio == [0.5]
        assert load_checkpoint(pipeline_dir / "model_fp16.qdnn").precision == "fp16"

    def test_bench_writes_timing_table(self, pipeline_dir):
        # width 32 equals the tiny config's own width, so it reports as "base"
        assert run(["bench", "--out", pipeline_dir, "--widths", 16, 32] + TINY) == 0
        points, header = read_curves_csv(pipeline_dir / "bench_timing.csv")
        assert [p.series for p in points] == ["width-16", "base"]
        assert all(p.y > 0 for p in points)
        assert "machine dependent" in header["note"]

    def test_bench_without_the_base_width_trains_base_first(self, pipeline_dir):
        assert run(["bench", "--out", pipeline_dir, "--widths", 16, 64] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "bench_timing.csv")
        assert [p.series for p in points] == ["base", "width-16", "width-64"]

    def test_ablate_writes_losses_and_flags(self, pipeline_dir):
        assert run(["ablate", "--out", pipeline_dir] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "ablation.csv")
        series = {p.series for p in points}
        assert "base" in series and "base/diverged" in series
        assert "no-bn" in series and "no-residual" in series
        names = ["base", "layers-2", "layers-6", "neurons-8", "neurons-16", "neurons-64",
                 "no-bn", "no-residual", "tanh"]
        assert [p.series for p in points] == [s for n in names for s in (n, f"{n}/diverged")]
        timing, _ = read_curves_csv(pipeline_dir / "ablation_timing.csv")
        assert [p.series for p in timing] == names

    def test_spectrum_records_trial_seed(self, pipeline_dir):
        assert run([
            "spectrum", "--out", pipeline_dir, "--snr", 50.0,
            "--angles", "-18.9346", "8.6346", "9.9462",
        ] + TINY) == 0
        points, header = read_curves_csv(pipeline_dir / "spectrum.csv")
        assert "trial_seed" in header
        assert {p.series for p in points} == {"unquantized", "raw-2bit", "raw-3bit", "recon-1bit"}


class TestDeterminism:
    def test_repeat_invocation_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["generate", "--out", out, "--seed", 7] + TINY) == 0
            assert run(["train", "--out", out, "--seed", 7] + TINY) == 0
            assert run(["eval-recon", "--out", out, "--seed", 7] + TINY) == 0
        for name in ("train.qdst", "test.qdst", "model.qdnn", "train_curves.csv", "recon_loss.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestValidationErrors:
    def test_invalid_widths_exit_1_named_invariant(self, tmp_path, capsys):
        code = run([
            "generate", "--out", tmp_path,
            "--set", "network.widths=[8, 32, 32, 32, 16]",
        ])
        assert code == 1
        assert "2*num_sensors" in capsys.readouterr().err

    def test_grid_at_90_degrees_exit_1_before_any_input_is_read(self, tmp_path, capsys):
        code = run([
            "eval-doa", "--out", tmp_path,
            "--set", "music.grid_min=-90.0", "--set", "music.grid_max=90.0",
        ])
        assert code == 1
        assert "music.grid_min must be > -90 degrees" in capsys.readouterr().err

    def test_zero_trials_flag_exit_1_before_any_input_is_read(self, tmp_path, capsys):
        assert run(["eval-doa", "--out", tmp_path, "--set", "music.trials=0"]) == 1
        assert "music.trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["snr_db=[-.inf, 10.0]", "quantizer.full_scale=.inf"])
    def test_non_finite_quantizer_scale_exit_1(self, tmp_path, capsys, override):
        assert run(["generate", "--out", tmp_path, "--set", override]) == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not (tmp_path / "train.qdst").exists()

    @pytest.mark.parametrize("override, message", [
        ("array.spacing=.inf", "array.spacing must be finite and > 0"),
        ("array.spacing=.nan", "array.spacing must be finite and > 0"),
        ("sources.min_sep=.nan", "sources.min_sep must be >= 0"),
    ])
    def test_non_finite_geometry_exit_1(self, tmp_path, capsys, override, message):
        assert run(["generate", "--out", tmp_path, "--set", override]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "train.qdst").exists()

    def test_unknown_override_key_exit_1(self, tmp_path, capsys):
        code = run(["generate", "--out", tmp_path, "--set", "data.size=10"])
        assert code == 1
        assert "unknown config path" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--seed", -1],
        ["--set", "seed=-1"],
        ["--set", "seed=36893488147419103232"],
    ])
    def test_seed_outside_64_bits_exit_1(self, tmp_path, capsys, args):
        assert run(["generate", "--out", tmp_path] + args + TINY) == 1
        assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
        assert not (tmp_path / "train.qdst").exists()

    def test_negative_seed_in_config_file_exit_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("seed: -5\n")
        assert run(["generate", "--config", cfg_path, "--out", tmp_path] + TINY) == 1
        assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
        assert not (tmp_path / "train.qdst").exists()

    @pytest.mark.parametrize("command, override, message", [
        ("train", "train.lr=.inf", "train.lr must be finite and > 0"),
        ("generate", "quantizer.bits=300", "quantizer.bits must be from 1 to 255"),
        ("generate", "quantizer.bits=1100", "quantizer.bits must be from 1 to 255"),
        # ints beyond float range read as +-inf, as YAML reads 1.0e+400
        pytest.param("generate", "train.lr=1" + "0" * 400, "train.lr must be finite and > 0",
                     id="generate-train.lr=1e400-int"),
        pytest.param("generate", "snr_db=[-1" + "0" * 400 + "]",
                     "snr_db must be a non-empty list of values above -737.5 dB", id="generate-snr_db=[-1e400-int]"),
        ("generate", "array.num_sensors=1", "array.num_sensors must be >= 2"),
        ("generate", "sources.count=0", "sources.count must be >= 1"),
        ("generate", "sources.angle_max=-30.0", "sources.angle_max must exceed sources.angle_min"),
        ("generate", "sources.angle_min=-90.0", "sources.angle_min must be > -90 degrees"),
        ("generate", "data.train_count=0", "data.train_count must be >= 2"),
        ("train", "data.train_count=1", "data.train_count must be >= 2"),
        ("generate", "network.widths=[16, 16]", "network.widths must list at least [in, hidden, out]"),
        ("generate", "network.activation=gelu", "network.activation must be one of relu, tanh, sigmoid"),
        ("generate", "train.batch_size=1", "train.batch_size must be >= 2"),
        ("generate", "train.epochs=0", "train.epochs must be >= 1"),
        ("generate", "music.grid_step=0", "music.grid_step must be > 0"),
        ("generate", "music.grid_max=-30.0", "music.grid_max must exceed music.grid_min"),
        ("eval-doa", "music.grid_step=100", "music grid has fewer than sources.count = 3 points"),
        ("generate", "music.num_snapshots=0", "music.num_snapshots must be >= 1"),
        # each of these passed validation and then wrote NaN records or failed mid-run
        ("generate", "array.spacing=1e307", "array.spacing overflows the steering phase"),
        ("generate", "snr_db=[-1000.0]", "snr_db must be a non-empty list of values above -737.5 dB"),
        ("generate", "snr_db=[-4000.0]", "snr_db must be a non-empty list of values above -737.5 dB"),
        ("generate", "sources.min_sep=29.0", "sources.min_sep is met too rarely for 10000 angle draws"),
        ("eval-doa", "music.min_sep=29.0", "music.min_sep is met too rarely for 10000 angle draws"),
        ("generate", "quantizer.full_scale=1e308", "quantizer step 2*full_scale/2**bits must be finite and > 0"),
        ("generate", "music.grid_step=1e-9", "music grid has more than 1000000 points"),
        pytest.param("generate", "sources.count=1" + "0" * 400,
                     "sources.count must be smaller than array.num_sensors", id="generate-sources.count=1e400-int"),
    ])
    def test_out_of_range_setting_exit_1_before_any_file_is_written(
        self, tmp_path, capsys, command, override, message
    ):
        assert run([command, "--out", tmp_path] + TINY + ["--set", override]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_full_scale_whose_raw_4bit_step_underflows_exit_1_from_each_command(self, tmp_path, capsys):
        # 2*1e-323/2**4 rounds to 0. Before, generate and train exited 0 and eval-doa exited 2 on
        # "covariance has non-finite entries" in its raw-4bit series.
        for command in ("generate", "train", "eval-doa"):
            assert run([command, "--out", tmp_path, "--set", "quantizer.full_scale=1e-323"] + TINY) == 1, command
            err = capsys.readouterr().err
            assert "quantizer step 2*full_scale/2**bits must be finite and > 0 for bits in [1, 2, 3, 4]" in err
            assert list(tmp_path.iterdir()) == []

    def test_int_of_more_than_4300_digits_exit_1_before_any_file_is_written(self, tmp_path, capsys):
        # Python's int-from-string limit raises ValueError inside the YAML parser (exit 2 before)
        digits = "1" + "0" * 5000
        out = tmp_path / "out"
        assert run(["generate", "--out", out, "--set", f"sources.count={digits}"] + TINY) == 1
        assert "cannot parse override value" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(f"sources:\n  count: {digits}\n")
        assert run(["generate", "--config", cfg_path, "--out", out] + TINY) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        "sources.count=1" + "0" * 5000,
        "train.epochs=[" + ", ".join(["1"] * 3001) + "]",
        "network.use_bn=" + "y" * 3000,
        "network={" + ", ".join(f"k{i}: 1" for i in range(600)) + "}",
        "sources." + "x" * 3000 + "=1",
        "x" * 3000,
    ], ids=["parse", "leaf-type", "leaf-type-str", "unknown-key", "unknown-path", "not-key=value"])
    def test_long_rejected_input_is_cut_to_one_short_line(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        assert run(["generate", "--out", out, "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300, err[:400]
        assert "characters)" in err
        assert not out.exists()

    def test_long_value_in_a_validation_message_is_cut(self, tmp_path, capsys):
        out, wide = tmp_path / "out", "1" + "0" * 3000
        assert run(["generate", "--out", out, "--set", f"network.widths=[{wide}, 32, 32, 32, {wide}]"]) == 1
        err = capsys.readouterr().err
        assert "network.widths must start at 2*num_sensors = 16, got 1000" in err
        assert err.count("(3001 characters)") == 2 and len(err) < 400, err[:500]
        assert not out.exists()

    def test_int_of_more_than_4300_digits_in_a_validation_message_exit_1(self, tmp_path, capsys):
        # 2*num_sensors has 4,301 digits, more than repr writes out (exit 2 before)
        out = tmp_path / "out"
        assert run(["generate", "--out", out, "--set", "array.num_sensors=9" + "0" * 4299]) == 1
        err = capsys.readouterr().err
        assert "network.widths must start at 2*num_sensors = an integer of 14,286 bits, got 16" in err
        assert all(len(line) < 300 for line in err.splitlines()), err[:400]
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["generate", "--seed", "1" + "0" * 5000], "--seed"),
        (["generate", "--seed", "x" * 5000], "--seed"),
        (["spectrum", "--snr", "x" * 5000], "--snr"),
        (["spectrum", "--angles", "1", "x" * 5000], "--angles"),
        (["bench", "--widths", "16", "x" * 5000], "--widths"),
        (["x" * 5000], "invalid choice"),
        (["generate", "x" * 5000], "unrecognized arguments"),
    ], ids=["seed-digits", "seed", "snr", "angles", "widths", "command", "unrecognized"])
    def test_long_rejected_flag_value_is_cut_to_one_short_line(self, tmp_path, capsys, args, flag):
        out = tmp_path / "out"
        assert run(args + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300, err[:400]
        assert flag in err and "characters)" in err
        assert not out.exists()

    def test_music_min_sep_too_wide_exit_1_before_any_input_is_read(self, tmp_path, capsys):
        assert run(["eval-doa", "--out", tmp_path, "--set", "music.min_sep=40"]) == 1
        assert "cannot hold sources.count angles at music.min_sep" in capsys.readouterr().err

    def test_music_min_sep_nan_exit_1_before_any_input_is_read(self, tmp_path, capsys):
        assert run(["eval-doa", "--out", tmp_path, "--set", "music.min_sep=.nan"]) == 1
        assert "music.min_sep must be >= 0 when set" in capsys.readouterr().err

    def test_spectrum_angles_outside_scan_grid_exit_1(self, pipeline_dir, capsys):
        code = run(["spectrum", "--out", pipeline_dir, "--set", "music.grid_min=0.0"] + TINY)
        assert code == 1
        assert "outside the scan range [0.0, 30.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        (["music.grid_min=-10.0", "music.grid_max=10.0"], "[-30.0, 30.0] fall outside the scan range [-10.0, 10.0]"),
        (["music.grid_min=-29.99"], "[-30.0, 30.0] fall outside the scan range [-29.99, 30.0]"),
        (["music.grid_max=29.5", "sources.angle_min=-20.0"], "[-20.0, 30.0] fall outside the scan range [-30.0, 29.5]"),
    ])
    def test_eval_doa_grid_short_of_the_source_angles_exit_1(self, pipeline_dir, tmp_path, capsys, grid, message):
        # a grid that cuts off true angles scores the cut, not the estimator
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        sets = [arg for setting in grid for arg in ("--set", setting)]
        assert run(["eval-doa", "--out", tmp_path] + sets + TINY) == 1
        assert f"source angles {message}" in capsys.readouterr().err
        assert not (tmp_path / "doa_mse.csv").exists()

    @pytest.mark.parametrize("command, angles", [
        ("generate", []), ("train", []), ("spectrum", ["--angles", "-5", "5"]),
    ])
    def test_grid_short_of_the_source_angles_exit_1_from_every_command(
        self, pipeline_dir, tmp_path, capsys, command, angles
    ):
        # validate() refuses the grid, so commands that scan nothing refuse it too, and spectrum whatever its angles
        for name in ("train.qdst", "test.qdst", "model.qdnn"):
            (tmp_path / name).write_bytes((pipeline_dir / name).read_bytes())
        before = {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}
        sets = ["--set", "music.grid_min=-10.0", "--set", "music.grid_max=10.0"]
        assert run([command, "--out", tmp_path] + angles + sets + TINY) == 1
        assert "source angles [-30.0, 30.0] fall outside the scan range [-10.0, 10.0]" in capsys.readouterr().err
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command, artifact", [("eval-doa", "doa_mse.csv"), ("spectrum", "spectrum.csv")])
    def test_recon_series_behind_another_adc_exit_1(self, pipeline_dir, tmp_path, capsys, command, artifact):
        # the checkpoint was trained on 1-bit inputs; recon-1bit must not score it behind a 2-bit ADC
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        assert run([command, "--out", tmp_path, "--set", "quantizer.bits=2"] + TINY) == 1
        assert "series 'recon-1bit' needs quantizer.bits = 1, not 2" in capsys.readouterr().err
        assert not (tmp_path / artifact).exists()

    def test_spectrum_as_many_angles_as_sensors_exit_1(self, pipeline_dir, tmp_path, capsys):
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        angles = [str(a) for a in range(-28, 28, 7)]  # 8 angles, 8 sensors
        assert run(["spectrum", "--out", tmp_path, "--angles", *angles] + TINY) == 1
        assert "need 1 to 7 angles for 8 sensors, got 8" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_missing_config_file_exit_1(self, tmp_path):
        assert run(["generate", "--out", tmp_path, "--config", tmp_path / "nope.yaml"]) == 1

    @pytest.mark.parametrize("kind", ["yaml-syntax", "directory", "not-utf8"])
    def test_unreadable_config_file_exit_1(self, tmp_path, capsys, kind):
        cfg_path = tmp_path / "cfg.yaml"
        if kind == "directory":
            cfg_path.mkdir()
        else:
            cfg_path.write_bytes(b"seed: [1, 2\n" if kind == "yaml-syntax" else b"seed: \xff\xfe\n")
        assert run(["generate", "--config", cfg_path, "--out", tmp_path / "out"]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_spectrum_non_finite_snr_exit_1(self, pipeline_dir, capsys, snr):
        assert run(["spectrum", "--out", pipeline_dir, f"--snr={snr}"] + TINY) == 1
        assert "snr_db must exceed -737.5 dB" in capsys.readouterr().err

    @pytest.mark.parametrize("snr, code", [("-1000", 1), ("-3083", 1), ("-700", 0)])
    def test_spectrum_snr_takes_the_config_floor(self, pipeline_dir, tmp_path, capsys, snr, code):
        # below the floor -3083 dB overflows noise_variance, -3080 dB the covariance; -1000 dB is pure noise
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        assert run(["spectrum", "--out", tmp_path, f"--snr={snr}"] + TINY) == code
        err = capsys.readouterr().err
        assert ("snr_db must exceed -737.5 dB" in err) == (code == 1), err
        assert (tmp_path / "spectrum.csv").exists() == (code == 0)

    @pytest.mark.parametrize("widths, message", [
        (["16", "0"], "variant 'width-0' is invalid"),
        (["32", "32"], "exactly once"),  # 32 is the base width of TINY
        (["16", "16"], "exactly once"),
    ])
    def test_bad_bench_variants_exit_1_before_any_training(
        self, pipeline_dir, capsys, monkeypatch, widths, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a variant trained before all were checked")

        monkeypatch.setattr(experiments, "train", no_training)
        assert run(["bench", "--out", pipeline_dir, "--widths", *widths] + TINY) == 1
        assert message in capsys.readouterr().err

    def test_unknown_subcommand_exit_1(self, capsys):
        assert run(["explode"]) == 1

    def test_no_subcommand_exit_1(self):
        assert run([]) == 1

    @pytest.mark.parametrize("command, work", [
        ("eval-doa", "run_trials"),
        ("spectrum", "synthesize"),
        ("eval-recon", "reconstruction_loss_by_snr"),
        ("compress", "reconstruction_loss_by_snr"),
    ])
    def test_checkpoint_that_does_not_fit_the_array_exit_1_before_any_trial(
        self, pipeline_dir, capsys, monkeypatch, command, work
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the checkpoint was checked")

        monkeypatch.setattr(experiments, work, no_work)
        smaller = ["--set", "array.num_sensors=6", "--set", "network.widths=[12, 32, 32, 32, 12]"]
        assert run([command, "--out", pipeline_dir] + TINY + smaller) == 1
        assert "widths [16, 32, 32, 32, 16] (config: [12, 32, 32, 32, 12])" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("network.use_bn=false", "batch norm at layers [1, 2] (config: [])"),
        ("network.use_residual=false", "layer kinds [0, 1, 2, 3] (config: [0, 4, 4, 3])"),
        ("network.activation=tanh", "activation relu (config: tanh)"),
        ("network.input_bias=false", "input_bias True (config: False)"),
        ("network.widths=[16, 64, 64, 64, 16]", "widths [16, 32, 32, 32, 16] (config: [16, 64, 64, 64, 16])"),
    ], ids=["use_bn", "use_residual", "activation", "input_bias", "hidden-width"])
    @pytest.mark.parametrize("command, work", [
        ("eval-doa", "run_trials"),
        ("spectrum", "synthesize"),
        ("eval-recon", "reconstruction_loss_by_snr"),
        ("compress", "reconstruction_loss_by_snr"),
    ])
    def test_checkpoint_of_other_network_settings_exit_1_before_any_work(
        self, pipeline_dir, capsys, monkeypatch, command, work, override, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the checkpoint was checked")

        monkeypatch.setattr(experiments, work, no_work)
        before = TestDatasetMatchesConfig._files(pipeline_dir)
        assert run([command, "--out", pipeline_dir] + TINY + ["--set", override]) == 1
        err = capsys.readouterr().err
        assert "model.qdnn was not trained under this config" in err and message in err
        assert TestDatasetMatchesConfig._files(pipeline_dir) == before

    def test_checkpoint_of_other_widths_exit_1_before_an_initial_model_is_built(
        self, pipeline_dir, capsys, monkeypatch
    ):
        # the initial model would be drawn at the config's widths, which may be far larger than the file
        def no_model(*args, **kwargs):
            raise AssertionError("an initial model was built before the widths were compared")

        monkeypatch.setattr(quantdoa.cli, "initial_model", no_model)
        wide = ["--set", "network.widths=[16, 2048, 2048, 2048, 16]"]
        assert run(["eval-doa", "--out", pipeline_dir] + TINY + wide) == 1
        err = capsys.readouterr().err
        assert "widths [16, 32, 32, 32, 16] (config: [16, 2048, 2048, 2048, 16])" in err

    def test_depth_2_checkpoint_reloads_under_use_residual(self, tmp_path):
        depth_2 = TINY + ["--set", "network.widths=[16, 32, 16]"]
        for command in ("generate", "train", "eval-recon"):
            assert run([command, "--out", tmp_path] + depth_2) == 0
        assert not load_checkpoint(tmp_path / "model.qdnn").use_residual

    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        code = run(["train", "--out", tmp_path] + TINY)
        assert code == 2
        assert "run the producing step first" in capsys.readouterr().err


class TestDatasetMatchesConfig:
    """Commands that read the generated sets refuse sets their config would not generate."""

    @staticmethod
    def _files(out):
        return {p.name: p.stat().st_mtime_ns for p in out.iterdir()}

    @pytest.mark.parametrize("mismatch, message", [
        (["--set", "data.test_count=50"], "record count 60 (config: 50)"),
        (["--seed", "9"], "record seeds (config seed: 9)"),
        (["--set", "snr_db=[-10, 0, 10]"], "snr_list"),
        (["--set", "quantizer.bits=2"], "bits 1 (config: 2)"),
        (["--set", "sources.angle_min=-20"], "the first record of each SNR"),
        (["--set", "sources.angle_max=20"], "the first record of each SNR"),
        (["--set", "array.spacing=0.4"], "the first record of each SNR"),
        (["--set", "sources.min_sep=10"], "the first record of each SNR"),
        # every first record meets 3 degrees; later records do not
        (["--set", "sources.min_sep=3"], "records with sources closer than sources.min_sep"),
    ], ids=["count", "seed", "snr_list", "bits", "angle_min", "angle_max", "spacing", "min_sep", "min_sep-later"])
    @pytest.mark.parametrize("command", ["train", "eval-recon", "compress", "bench", "ablate"])
    def test_mismatched_set_exit_1_before_any_file_is_written(
        self, pipeline_dir, capsys, command, mismatch, message
    ):
        before = self._files(pipeline_dir)
        assert run([command, "--out", pipeline_dir] + TINY + mismatch) == 1
        err = capsys.readouterr().err
        assert "was not generated under this config" in err and message in err
        assert self._files(pipeline_dir) == before

    def test_train_on_a_smaller_count_and_another_seed_exit_1(self, pipeline_dir, capsys):
        before = self._files(pipeline_dir)
        assert run(["train", "--out", pipeline_dir] + TINY + ["--set", "data.train_count=50", "--seed", "9"]) == 1
        err = capsys.readouterr().err
        assert "train.qdst was not generated under this config: record count 300 (config: 50)" in err
        assert self._files(pipeline_dir) == before


def _edge_values(node, path=""):
    """{path: values} for every leaf limit declared on a config field: each edge, its neighbours, and extremes.

    A list leaf's edges are whole values on either side of its rule, and are taken as they are.
    """
    table, hints = {}, typing.get_type_hints(type(node))
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            table.update(_edge_values(value, f"{path}{f.name}."))
        elif "edges" in f.metadata:
            edges, typ = f.metadata["edges"], hints[f.name]
            if typ is str:
                values = [*edges, ""]
            elif typing.get_origin(typ) is list:
                values = list(edges)
            elif typ is int:
                values = [e + d for e in edges for d in (-1, 0, 1)] + [0, -1, 10**307]
            else:
                values = [np.nextafter(float(e), to) for e in edges for to in (-math.inf, e, math.inf)]
                values = [float(v) for v in values] + [0.0, -1.0, math.nan, math.inf, -math.inf, 1e307]
            table[path + f.name] = values + ([None] if typ == float | None else [])
    return table


_EDGE_VALUES = _edge_values(ScenarioConfig())


@st.composite
def _leaf_settings(draw):
    paths = draw(st.lists(st.sampled_from(sorted(_EDGE_VALUES)), min_size=1, max_size=2, unique=True))
    return {p: draw(st.sampled_from(_EDGE_VALUES[p])) for p in paths}


class TestSettingLimits:
    def test_edge_table_reads_every_declared_leaf(self):
        assert len(_EDGE_VALUES) == 23
        assert {"seed", "array.spacing", "quantizer.full_scale", "music.min_sep"} <= set(_EDGE_VALUES)

    @given(overrides=_leaf_settings())
    @example(overrides={"array.spacing": 1e307})
    @example(overrides={"snr_db": [-1000.0]})
    @example(overrides={"snr_db": [-4000.0]})
    @example(overrides={"snr_db": [-737.0]})
    @example(overrides={"sources.min_sep": 29.0})
    @example(overrides={"sources.min_sep": 25.0})
    @example(overrides={"quantizer.full_scale": 1e308})
    @example(overrides={"music.grid_step": 1e-9})
    @example(overrides={"sources.count": 10**400})
    @example(overrides={"data.test_count": 10**307})
    @settings(max_examples=60, deadline=None)
    def test_generate_writes_finite_records_exactly_when_validate_accepts(self, overrides):
        cfg = desk_default()
        cfg.data.train_count, cfg.data.test_count, cfg.music.grid_step = 20, 10, 1.0
        for path, value in overrides.items():
            *sections, leaf = path.split(".")
            node = cfg
            for name in sections:
                node = getattr(node, name)
            setattr(node, leaf, value)
        errs = cfg.validate()
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out"
            cfg_path.write_text(yaml.safe_dump(cfg.to_dict()))
            code = run(["generate", "--config", cfg_path, "--out", out])
            if errs:
                assert (code, out.exists()) == (1, False)
                return
            assert code == 0
            for split in ("train", "test"):
                ds = load_dataset(out / f"{split}.qdst")
                assert np.isfinite(ds.inputs).all() and np.isfinite(ds.targets).all()

    def test_255_bits_generate_and_load(self, tmp_path):
        assert run(["generate", "--out", tmp_path, "--set", "quantizer.bits=255"] + TINY) == 0
        assert load_dataset(tmp_path / "train.qdst").bits == 255

    def test_huge_lr_reports_divergence_and_saves_a_finite_model(self, tmp_path):
        tiny = TINY + ["--set", "data.train_count=64", "--set", "train.epochs=2"]
        assert run(["generate", "--out", tmp_path] + tiny) == 0
        assert run(["train", "--out", tmp_path, "--set", "train.lr=1e30"] + tiny) == 0
        points, header = read_curves_csv(tmp_path / "train_curves.csv")
        assert header["diverged"] == "true"
        assert all(np.isfinite(p.y) for p in points)
        assert np.isfinite(load_checkpoint(tmp_path / "model.qdnn").params).all()


class TestModuleEntryPoint:
    def test_python_m_quantdoa_without_command_prints_usage_and_exits_1(self):
        src = str(Path(quantdoa.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-m", "quantdoa"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert done.returncode == 1
        assert done.stdout.startswith("usage: quantdoa")


class TestImports:
    def test_generate_train_and_eval_doa_never_import_numpy_ma(self, tmp_path):
        # numpy.ma, which np.unique and np.isin import, adds about 2 MiB to every command's peak
        script = "\n".join([
            "import sys",
            "from quantdoa.cli import parse_and_dispatch",
            "for command in ('generate', 'train', 'eval-doa'):",
            f"    assert parse_and_dispatch([command, '--out', {str(tmp_path)!r}] + {TINY!r}) == 0",
            "print('numpy.ma' in sys.modules)",
        ])
        src = str(Path(quantdoa.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.splitlines()[-1] == "False"


class TestConfigFile:
    def test_config_file_plus_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(
            "seed: 5\ndata:\n  train_count: 40\n  test_count: 12\n"
            "network:\n  widths: [16, 32, 32, 32, 16]\ntrain:\n  epochs: 2\n"
        )
        out = tmp_path / "out"
        assert run([
            "generate", "--config", cfg_path, "--out", out, "--set", "data.train_count=24",
        ]) == 0
        assert load_dataset(out / "train.qdst").count == 24
        assert load_dataset(out / "test.qdst").count == 12


class TestProvenanceHoles:
    """Settings the file headers do not record, so a command cannot refuse a set or a model made under others."""

    # raises=AssertionError: only the final check may fail as expected; a broken set-up calls pytest.fail
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 17: .qdst records no sources.min_sep; build_dataset "
                       "under 0.9 draws 50 of the 5,000 records differently, none the first of an SNR")
    def test_train_on_a_set_drawn_under_a_wider_min_sep_exit_1(self, tmp_path):
        if run(["generate", "--out", tmp_path]) != 0:
            pytest.fail("the desk generate failed")
        before = TestDatasetMatchesConfig._files(tmp_path)
        assert run(["train", "--out", tmp_path, "--set", "sources.min_sep=0.9", "--set", "train.epochs=1"]) == 1
        assert TestDatasetMatchesConfig._files(tmp_path) == before

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 17: .qdnn records no quantizer.full_scale, so a model "
                       "trained at the derived scale is scored behind a 9.0 ADC")
    def test_eval_doa_of_a_model_trained_at_another_full_scale_exit_1(self, pipeline_dir, tmp_path):
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        assert run(["eval-doa", "--out", tmp_path, "--set", "quantizer.full_scale=9.0"] + TINY) == 1
        assert not (tmp_path / "doa_mse.csv").exists()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP direction 17: cli._model compares only the layout, so a model trained at "
                       "the full scale of five SNRs (3.8944) is scored behind the one snr_db=[50.0] derives (3.0089)")
    def test_eval_doa_of_a_model_trained_at_another_derived_full_scale_exit_1(self, pipeline_dir, tmp_path):
        (tmp_path / "model.qdnn").write_bytes((pipeline_dir / "model.qdnn").read_bytes())
        assert run(["eval-doa", "--out", tmp_path, "--set", "snr_db=[50.0]"] + TINY) == 1
        assert not (tmp_path / "doa_mse.csv").exists()


_ANGLE_ENDS = [-90.0, -89.9, -60.0, -30.0, -10.0, 0.0, 10.0, 30.0, 60.0, 89.9, 90.0, math.nan, math.inf]
_SNRS = [-738.0, -737.0, -100.0, -10.0, 0.0, 10.0, 50.0, 300.0, 1e300, math.inf, -math.inf, math.nan, "1e1"]
_WRONG_TYPES = [
    ("train.epochs", "two"), ("music.trials", 2.0), ("network.use_bn", "yes"), ("network.widths", [16, "8", 16]),
    ("snr_db", "10"), ("sources.count", True), ("seed", 1.5), ("train.lr", "fast"), ("data.train_count", None),
    ("network.widths", 16), ("array", 8), ("music.min_sep", "1e"), ("sources.angle_min", [0.0]),
]


TINY_TREE = {**desk_default().to_dict(), "data": {"train_count": 20, "test_count": 6},
             "network": {"widths": [16, 4, 4, 4, 16]}, "train": {"epochs": 2},
             "music": {"trials": 2, "grid_step": 1.0}}


@st.composite
def _tiny_trees(draw):
    """A tiny config tree, then sensor and source counts, widths, SNR lists and angle and grid ends drawn onto it,
    many past a limit or a cross-field rule, and at most one exponent string, out-of-range data count or wrong type.

    Each drawn setting keeps its tiny value three times in four, so about a third of the trees pass ``validate()``.
    """
    def often(value, *others):
        return draw(st.sampled_from([value] * 3 + [draw(st.sampled_from(others))]))

    tree = desk_default().to_dict()
    tree["data"].update(train_count=draw(st.integers(8, 40)), test_count=draw(st.integers(2, 12)))
    tree["train"]["epochs"] = draw(st.integers(1, 2))
    tree["music"].update(trials=2, grid_step=draw(st.sampled_from([0.5, 1.0, 2.0])))
    m = tree["array"]["num_sensors"] = often(8, 2, 4)
    tree["sources"]["count"] = often(draw(st.integers(1, min(3, m - 1))), 0, m, m + 1)
    hidden = draw(st.integers(1, 8))
    tree["network"]["widths"] = often(
        draw(st.sampled_from([[2 * m, hidden, 2 * m], [2 * m, hidden, hidden, hidden, 2 * m]])),
        [2 * m, hidden, hidden, 2 * m], [2 * m, 2 * m], [2 * m + 1, hidden, 2 * m], [2 * m, 0, 2 * m],
        [2 * m, hidden, hidden + 1, hidden, 2 * m],
    )
    tree["snr_db"] = often(tree["snr_db"], draw(st.lists(st.sampled_from(_SNRS) | st.floats(-50.0, 60.0), max_size=3)))
    sources, grid = tree["sources"], tree["music"]
    for leaf in ("angle_min", "angle_max"):
        sources[leaf] = often(sources[leaf], *_ANGLE_ENDS)
    lo, hi = sources["angle_min"], sources["angle_max"]
    grid["grid_min"], grid["grid_max"] = draw(st.sampled_from([  # covers the sources, wider, short at one end
        *[(lo, hi)] * 4, (lo - 1.0, hi + 1.0), (lo + 1.0, hi), (lo, hi - 1.0),
        (draw(st.sampled_from(_ANGLE_ENDS)), draw(st.sampled_from(_ANGLE_ENDS))),
    ]))
    setting = often(None, ("train.lr", "1e-2"), ("train.lr", "1E+30"), ("quantizer.full_scale", "2e0"),
                    ("array.spacing", "5e-1"), ("sources.min_sep", "2e0"), ("data.train_count", -1),
                    ("data.test_count", 0), ("data.train_count", 1), *_WRONG_TYPES)
    if setting is not None:
        (*sections, leaf), value = setting[0].split("."), setting[1]
        node = tree
        for name in sections:
            node = node[name]
        node[leaf] = value
    return tree


def _finite_rows(path):
    """Whether every y and spread in a curve CSV is finite (x may be the noiseless SNR, inf), and its header."""
    points, header = read_curves_csv(path)
    return all(math.isfinite(v) for p in points for v in (p.y, p.spread)), header


class TestEveryCommandAgreesWithValidate:
    """ROADMAP direction 3: a config ``validate()`` refuses stops every command with exit 1 and its message before
    it reads or writes a file; one it accepts runs every command to finite tables."""

    COMMANDS = ("train", "eval-doa", "spectrum", "compress")

    @given(tree=_tiny_trees())
    @example(tree={**TINY_TREE, "snr_db": [math.inf, 10.0]})
    @example(tree={**TINY_TREE, "snr_db": [-737.0]})
    @example(tree={**TINY_TREE, "train": {**TINY_TREE["train"], "lr": "1E+30"}})
    @example(tree={**TINY_TREE, "snr_db": [-738.0]})
    @example(tree={**TINY_TREE, "network": {"widths": [17, 4, 4, 4, 16]}})
    @example(tree={**TINY_TREE, "music": {**TINY_TREE["music"], "grid_min": -29.0}})
    @example(tree={**TINY_TREE, "sources": {"count": 8}})
    @example(tree={**TINY_TREE, "data": {"train_count": 1, "test_count": 6}})
    @example(tree={**TINY_TREE, "music": {**TINY_TREE["music"], "trials": 2**60}})  # 8 bytes a trial: 2**63
    @example(tree={**TINY_TREE, "music": {**TINY_TREE["music"], "trials": 10**307}})
    @example(tree={**TINY_TREE, "music": {**TINY_TREE["music"], "num_snapshots": 2**56}})  # 8 x 2**56 x 16 bytes
    @example(tree={**TINY_TREE, "music": {**TINY_TREE["music"], "num_snapshots": 10**307}})
    @settings(max_examples=120, deadline=None)
    def test_commands_run_clean_exactly_when_validate_accepts(self, pipeline_dir, tree):
        try:
            cfg = ScenarioConfig.from_dict(tree)
            errs = cfg.validate()
        except ValueError as exc:  # a wrong type: ConfigError before any leaf rule
            errs = [str(exc)]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out"
            cfg_path.write_text(yaml.safe_dump(tree))
            if errs:
                out.mkdir()
                for name in ("train.qdst", "test.qdst", "model.qdnn"):  # inputs that would let any command run
                    (out / name).write_bytes((pipeline_dir / name).read_bytes())
                before = TestDatasetMatchesConfig._files(out)
                for command in self.COMMANDS:
                    with contextlib.redirect_stderr(io.StringIO()) as err:
                        code = run([command, "--config", cfg_path, "--out", out])
                    assert (code, errs[0] in err.getvalue()) == (1, True), (command, errs, err.getvalue())
                    assert TestDatasetMatchesConfig._files(out) == before, command
                return
            lo, hi = cfg.angle_range()
            angles = [repr(float(a)) for a in np.linspace(lo, hi, cfg.sources.count + 2)[1:-1]]
            assert run(["generate", "--config", cfg_path, "--out", out]) == 0
            for command in self.COMMANDS:
                extra = ["--angles", *angles] if command == "spectrum" else []
                assert run([command, "--config", cfg_path, "--out", out] + extra) == 0, command
            finite, header = _finite_rows(out / "train_curves.csv")
            assert finite or header["diverged"] == "true"
            for table in ("doa_mse.csv", "spectrum.csv", "compression.csv"):
                assert _finite_rows(out / table)[0], table
