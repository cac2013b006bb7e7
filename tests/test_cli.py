import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantdoa
from quantdoa import experiments
from quantdoa.checkpoint import load_checkpoint
from quantdoa.cli import parse_and_dispatch
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


class TestPipeline:
    def test_train_emits_checkpoint_and_curves(self, pipeline_dir):
        model = load_checkpoint(pipeline_dir / "model.qdnn")
        assert model.width_in == 16
        points, header = read_curves_csv(pipeline_dir / "train_curves.csv")
        assert header["diverged"] == "false"
        assert any(p.series == "train-loss" for p in points)

    def test_eval_doa_has_recon_series(self, pipeline_dir):
        assert run([
            "eval-doa", "--out", pipeline_dir, "--trials", 4,
            "--set", "snr_db=[50.0]", "--set", "music.min_sep=6.0",
        ] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "doa_mse.csv")
        series = {p.series for p in points}
        assert "recon-1bit" in series
        assert {"unquantized", "raw-1bit", "raw-2bit", "raw-3bit", "raw-4bit"} <= series

    def test_trials_flag_writes_what_the_config_override_writes(self, pipeline_dir):
        outputs = []
        for flag in (["--trials", 4], ["--set", "music.trials=4"]):
            assert run(["eval-doa", "--out", pipeline_dir] + TINY + flag) == 0
            outputs.append((pipeline_dir / "doa_mse.csv").read_bytes())
        assert outputs[0] == outputs[1]

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
        assert {p.series for p in points} == {"width-16", "base"}
        assert all(p.y > 0 for p in points)
        assert "machine dependent" in header["note"]

    def test_ablate_writes_losses_and_flags(self, pipeline_dir):
        assert run(["ablate", "--out", pipeline_dir] + TINY) == 0
        points, _ = read_curves_csv(pipeline_dir / "ablation.csv")
        series = {p.series for p in points}
        assert "base" in series and "base/diverged" in series
        assert "no-bn" in series and "no-residual" in series
        assert (pipeline_dir / "ablation_timing.csv").exists()

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
        assert "music grid must lie inside (-90, 90)" in capsys.readouterr().err

    def test_zero_trials_flag_exit_1_before_any_input_is_read(self, tmp_path, capsys):
        assert run(["eval-doa", "--out", tmp_path, "--trials", 0]) == 1
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
    ])
    def test_out_of_range_setting_exit_1_before_any_file_is_written(
        self, tmp_path, capsys, command, override, message
    ):
        assert run([command, "--out", tmp_path, "--set", override] + TINY) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        assert "snr_db must not be NaN or -inf" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, work", [("eval-doa", "run_trials"), ("spectrum", "synthesize")])
    def test_checkpoint_that_does_not_fit_the_array_exit_1_before_any_trial(
        self, pipeline_dir, capsys, monkeypatch, command, work
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the checkpoint was checked")

        monkeypatch.setattr(experiments, work, no_work)
        smaller = ["--set", "array.num_sensors=6", "--set", "network.widths=[12, 32, 32, 32, 12]"]
        assert run([command, "--out", pipeline_dir] + TINY + smaller) == 1
        assert "model widths 16 -> 16 do not fit 2*num_sensors = 12" in capsys.readouterr().err

    def test_missing_inputs_exit_2(self, tmp_path, capsys):
        code = run(["train", "--out", tmp_path] + TINY)
        assert code == 2
        assert "run the producing step first" in capsys.readouterr().err


class TestSettingLimits:
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
