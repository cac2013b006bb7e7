"""Command-line harness.

Each subcommand maps to one experiment artifact: datasets, a trained
checkpoint, loss/MSE tables, spectra, timing, or the fp16 comparison.
All artifacts live in the output directory; CSV outputs embed the
config hash and seed so a rerun with the same seed reproduces them
byte for byte (timing tables excepted, being wall-clock measurements).

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

import numpy as np

from .checkpoint import kind_codes, load_checkpoint, save_checkpoint
from .config import ConfigError, ScenarioConfig, apply_overrides, cut, desk_default, load_config
from .dataset import BLOCK_RECORDS, Dataset, build_dataset, generate_records, load_dataset, save_dataset, split_seeds
from .experiments import (
    DEFAULT_SPECTRUM_ANGLES,
    TrainResult,
    ablation_points,
    ablation_suite,
    compression_report,
    default_ablation_variants,
    eval_doa,
    eval_reconstruction,
    initial_model,
    spectrum_compare,
    timing_points,
    train,
    width_sweep_variants,
    write_curves_csv,
)
from .network import DenoiserModel
from .signal_model import too_close


class _UsageError(Exception):
    pass


# What argparse messages echo of the command line: each value, as its repr, and the unrecognized arguments.
_ECHOED = re.compile(r"'(?:\\.|[^'\\])*'|\"(?:\\.|[^\"\\])*\"|(?<=unrecognized arguments: ).+")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(_ECHOED.sub(lambda echoed: cut(echoed[0]), message))


def _build_parser() -> _Parser:
    parser = _Parser(prog="quantdoa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="|".join(COMMANDS))
    for name, (doc, _) in COMMANDS.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, repeatable",
        )
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "spectrum":
            p.add_argument(
                "--angles",
                type=float,
                nargs="+",
                default=list(DEFAULT_SPECTRUM_ANGLES),
                help="true source angles in degrees",
            )
            p.add_argument("--snr", type=float, default=50.0)
        if name == "bench":
            p.add_argument("--widths", type=int, nargs="+", default=[32, 64, 128])
    return parser


def _load_scenario(args) -> ScenarioConfig:
    config = desk_default() if args.config is None else load_config(args.config)
    if args.overrides:
        config = apply_overrides(config, args.overrides)
    if args.seed is not None:
        config.seed = args.seed
    errs = config.validate()
    if errs:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errs))
    return config


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"{what} not found at {path}; run the producing step first")
    return path


def _cmd_generate(args, config: ScenarioConfig) -> None:
    """Both splits go to temporary names in ``out`` and replace the old files only once both are written."""
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    partial = {split: out / f".{split}.qdst.partial" for split in ("train", "test")}
    try:
        notes = []
        for split, path in partial.items():
            ds = build_dataset(config, split)
            save_dataset(ds, path)
            notes.append(f"wrote {out / f'{split}.qdst'} ({ds.count} records, V={ds.full_scale:.6g})")
        for split, path in partial.items():
            os.replace(path, out / f"{split}.qdst")
        print("\n".join(notes))
    finally:
        for path in partial.values():
            path.unlink(missing_ok=True)


def _dataset(out: Path, split: str, config: ScenarioConfig) -> Dataset:
    """The ``split`` set in ``out``, refused unless ``generate`` under ``config`` writes it.

    The header and record seeds must match the config.  The header holds
    no angle range, separation or array spacing, so the first record of
    each SNR is then generated again and must match bit for bit, and no
    record may hold sources closer than ``sources.min_sep``.  A set that
    passes both was drawn as a wider ``sources.min_sep`` draws it: every
    try the wider rule rejects, the one it was drawn under rejected too.
    A narrower one is caught only when it changes a first record.
    """
    path = _require(out / f"{split}.qdst", f"{split} dataset")
    ds, seeds = load_dataset(path), split_seeds(config, split)
    found = (ds.num_sensors, ds.num_sources, ds.count, ds.snr_list, ds.bits, ds.full_scale)
    wanted = (config.array.num_sensors, config.sources.count, seeds.size,
              [float(v) for v in config.snr_db], config.quantizer.bits, config.resolved_full_scale())
    names = ("M", "K", "record count", "snr_list", "bits", "full_scale")
    diff = [f"{name} {f} (config: {w})" for name, f, w in zip(names, found, wanted) if f != w]
    if not diff and not np.array_equal(ds.record_seeds, seeds):
        diff.append(f"record seeds (config seed: {config.seed})")
    if not diff:
        n = min(ds.count, len(ds.snr_list), BLOCK_RECORDS)  # SNRs round-robin: records 0..n-1
        first = generate_records(seeds[:n].tolist(), ds.snr_list[:n], config.geometry(), config.sources.count,
                                 config.angle_range(), config.sources.min_sep, config.quantizer_spec())
        if not all(map(np.array_equal, first, (ds.inputs[:n], ds.targets[:n], ds.angles_deg[:n]))):
            diff.append("the first record of each SNR (sources.angle_min, angle_max, min_sep or array.spacing)")
        elif (near := too_close(ds.angles_deg, config.sources.min_sep)).any():
            diff.append(f"{near.sum()} records with sources closer than sources.min_sep "
                        f"(config: {config.sources.min_sep})")
    if diff:
        raise ConfigError(f"{path} was not generated under this config: {'; '.join(diff)}; rerun generate")
    return ds


def _model(out: Path, config: ScenarioConfig) -> DenoiserModel:
    """The checkpoint in ``out``, refused unless it is laid out as the model ``train`` starts
    from under ``config.network``, whose widths ``validate`` ties to 2*num_sensors at both ends."""
    path = _require(out / "model.qdnn", "model checkpoint")
    model = load_checkpoint(path)
    names = ("widths", "batch norm at layers", "layer kinds", "activation", "input_bias")
    found = _layout(model)  # the model train starts from is built only at the file's widths, so at its size
    wanted = _layout(initial_model(config)) if found[0] == config.network.widths else [config.network.widths]
    diff = [f"{name} {f} (config: {w})" for name, f, w in zip(names, found, wanted) if f != w]
    if diff:
        raise ConfigError(f"{path} was not trained under this config: {'; '.join(diff)}; rerun train")
    return model


def _layout(model: DenoiserModel) -> tuple:
    """What a checkpoint records of a model's shape, beside its arrays."""
    return ([model.width_in, *(layer.out_dim for layer in model.dense)],
            [i for i, layer in enumerate(model.dense) if layer.bn is not None],
            kind_codes(model), model.activation, model.input_bias)


def _cmd_train(args, config: ScenarioConfig) -> None:
    out = args.out
    result = train(config, _dataset(out, "train", config), _dataset(out, "test", config), progress=True)
    save_checkpoint(result.model, out / "model.qdnn")
    write_curves_csv(
        out / "train_curves.csv",
        result.curves,
        config,
        extra_header={"diverged": str(result.diverged).lower()},
    )
    print(
        f"wrote {out / 'model.qdnn'} (final test loss {result.final_test_loss:.6g}, "
        f"diverged={result.diverged})"
    )


def _cmd_eval_recon(args, config: ScenarioConfig) -> None:
    out = args.out
    points = eval_reconstruction(_model(out, config), _dataset(out, "test", config))
    write_curves_csv(out / "recon_loss.csv", points, config)
    print(f"wrote {out / 'recon_loss.csv'}")


def _cmd_eval_doa(args, config: ScenarioConfig) -> None:
    out = args.out
    points, _ = eval_doa(_model(out, config), config)
    write_curves_csv(out / "doa_mse.csv", points, config)
    print(f"wrote {out / 'doa_mse.csv'}")


def _cmd_spectrum(args, config: ScenarioConfig) -> None:
    out = args.out
    points, trial_seed = spectrum_compare(
        _model(out, config), config, angles_deg=tuple(args.angles), snr_db=args.snr
    )
    write_curves_csv(
        out / "spectrum.csv",
        points,
        config,
        extra_header={
            "trial_seed": trial_seed,
            "true_angles_deg": " ".join(repr(a) for a in args.angles),
            "snr_db": repr(args.snr),
        },
    )
    print(f"wrote {out / 'spectrum.csv'}")


def _cmd_compress(args, config: ScenarioConfig) -> None:
    out = args.out
    points, half = compression_report(_model(out, config), _dataset(out, "test", config))
    write_curves_csv(out / "compression.csv", points, config)
    save_checkpoint(half, out / "model_fp16.qdnn")
    print(f"wrote {out / 'compression.csv'} and {out / 'model_fp16.qdnn'}")


def _train_variants(
    out: Path, config: ScenarioConfig, variants: list[tuple[str, list[str]]], timing_csv: str
) -> dict[str, TrainResult]:
    """Train ``variants`` on the generated datasets and write their wall-clock table."""
    results = ablation_suite(config, variants, _dataset(out, "train", config), _dataset(out, "test", config))
    write_curves_csv(
        out / timing_csv,
        timing_points(results),
        config,
        extra_header={"note": "wall-clock seconds; machine dependent"},
    )
    return results


def _cmd_bench(args, config: ScenarioConfig) -> None:
    _train_variants(args.out, config, width_sweep_variants(config, args.widths), "bench_timing.csv")
    print(f"wrote {args.out / 'bench_timing.csv'}")


def _cmd_ablate(args, config: ScenarioConfig) -> None:
    out = args.out
    results = _train_variants(out, config, default_ablation_variants(config), "ablation_timing.csv")
    write_curves_csv(out / "ablation.csv", ablation_points(results), config)
    print(f"wrote {out / 'ablation.csv'} and {out / 'ablation_timing.csv'}")


# One entry per subcommand, in help order: name -> (help text, handler).
COMMANDS = {
    "generate": ("build the train/test datasets", _cmd_generate),
    "train": ("train the denoiser on the generated datasets", _cmd_train),
    "eval-recon": ("per-SNR reconstruction loss of a checkpoint", _cmd_eval_recon),
    "eval-doa": ("paired MUSIC angle-MSE trials across pipelines", _cmd_eval_doa),
    "spectrum": ("MUSIC spectra of several pipelines, one realization", _cmd_spectrum),
    "compress": ("fp16 conversion and loss comparison", _cmd_compress),
    "bench": ("training wall-clock across network widths", _cmd_bench),
    "ablate": ("train the fine-tuning variant grid", _cmd_ablate),
}


def parse_and_dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        COMMANDS[args.command][1](args, _load_scenario(args))
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: missing inputs, bad files, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(parse_and_dispatch())
