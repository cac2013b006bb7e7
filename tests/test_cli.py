import dataclasses
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
from quantdoa import experiments
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
        assert "music grid must lie inside (-90, 90)" in capsys.readouterr().err

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
        pytest.param("generate", "snr_db=[-1" + "0" * 400 + "]", "snr_db values must not be NaN or -inf",
                     id="generate-snr_db=[-1e400-int]"),
        ("generate", "array.num_sensors=1", "array.num_sensors must be >= 2"),
        ("generate", "sources.count=0", "sources.count must be >= 1"),
        ("generate", "sources.angle_max=-30.0", "sources.angle_max must exceed sources.angle_min"),
        ("generate", "sources.angle_min=-90.0", "source angle range must lie inside (-90, 90) degrees"),
        ("generate", "data.train_count=0", "data.train_count and data.test_count must be >= 1"),
        ("train", "data.train_count=1", "data.train_count must be >= 2"),
        ("generate", "network.widths=[16, 16]", "network.widths must list at least [in, hidden, out]"),
        ("generate", "network.activation=gelu", "network.activation must be one of relu, tanh, sigmoid"),
        ("generate", "train.batch_size=1", "train.batch_size must be >= 2"),
        ("generate", "train.epochs=0", "train.epochs must be >= 1"),
        ("generate", "train.eval_interval=0", "train.eval_interval must be >= 1"),
        ("generate", "music.grid_step=0", "music.grid_step must be > 0"),
        ("generate", "music.grid_max=-30.0", "music.grid_max must exceed music.grid_min"),
        ("eval-doa", "music.grid_step=100", "music grid has fewer than sources.count = 3 points"),
        ("generate", "music.num_snapshots=0", "music.num_snapshots must be >= 1"),
        # each of these passed validation and then wrote NaN records or failed mid-run
        ("generate", "array.spacing=1e307", "array.spacing overflows the steering phase"),
        ("generate", "snr_db=[-1000.0]", "snr_db values must exceed -737.5 dB"),
        ("generate", "snr_db=[-4000.0]", "snr_db values must exceed -737.5 dB"),
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
        assert "model widths 16 -> 16 do not fit 2*num_sensors = 12" in capsys.readouterr().err

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
    ], ids=["count", "seed", "snr_list", "bits"])
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
    """{path: values} for every leaf limit declared on a config field: each edge, its neighbours, and extremes."""
    table, hints = {}, typing.get_type_hints(type(node))
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            table.update(_edge_values(value, f"{path}{f.name}."))
        elif "edges" in f.metadata:
            edges, typ = f.metadata["edges"], hints[f.name]
            if typ is str:
                values = [*edges, ""]
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
        assert len(_EDGE_VALUES) == 16
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
