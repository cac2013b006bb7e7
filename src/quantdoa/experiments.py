"""Training loop and evaluation campaigns.

Everything here reduces to CurvePoint rows written as CSV with a
config-hash header, so each campaign output is plot-ready and exactly
reproducible from its seed.  DOA campaigns run paired trials: every
series at a given (SNR, trial) index sees identical angles, source
phases, and noise, so series differences are attributable to the
pipeline alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import music, network as net
from .checkpoint import parameter_payload_bytes
from .config import (
    DOMAIN_INIT,
    DOMAIN_SHUFFLE,
    DOMAIN_SPECTRUM,
    DOMAIN_TRIALS,
    MIN_SNR_DB,
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    derived_seed,
    derived_seeds,
)
from .dataset import Dataset
from .music import TrialResult, music_spectrum, noise_subspace, run_trials, sample_covariance, scan_grid
from .optimizer import NonFiniteGradientError, adam_step, init_state
from .quantizer import RAW_SERIES_BITS, QuantizerSpec, quantize_complex
from .signal_model import from_real_batch, noise_variance, steering_matrix, synthesize, to_real_batch

# Default spectrum-demo scenario: two sources 1.31 degrees apart plus a
# far-off third, the stress case for post-reconstruction resolution.
DEFAULT_SPECTRUM_ANGLES = (-18.9346, 8.6346, 9.9462)

DOA_SERIES = ("unquantized", *(f"raw-{b}bit" for b in RAW_SERIES_BITS), "recon-1bit")
SPECTRUM_SERIES = ("unquantized", "raw-2bit", "raw-3bit", "recon-1bit")


@dataclass
class CurvePoint:
    series: str
    x: float
    y: float
    spread: float = 0.0


@dataclass
class TrainResult:
    model: net.DenoiserModel
    curves: list[CurvePoint]
    diverged: bool
    train_seconds: float
    final_test_loss: float


def write_curves_csv(
    path: str | Path,
    points: list[CurvePoint],
    config: ScenarioConfig,
    extra_header: dict | None = None,
) -> None:
    """CSV with `#` header lines carrying the config hash and seed."""
    lines = [
        f"# config_hash: {config.config_hash()}",
        f"# seed: {config.seed}",
    ]
    for key, value in (extra_header or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append("series,x,y,spread")
    for p in points:
        lines.append(f"{p.series},{float(p.x)!r},{float(p.y)!r},{float(p.spread)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# -- training -------------------------------------------------------------------


def initial_model(config: ScenarioConfig) -> net.DenoiserModel:
    """The model :func:`train` starts from: ``config.network``'s layers, weights drawn from the init seed."""
    n = config.network
    rng = np.random.default_rng(derived_seed(config.seed, DOMAIN_INIT))
    return net.init_model(n.widths, rng, n.use_bn, n.use_residual, n.activation, n.input_bias)


def train(
    config: ScenarioConfig,
    train_set: Dataset,
    test_set: Dataset,
    progress: bool = False,
) -> TrainResult:
    """Shuffled mini-batch Adam on the reconstruction loss.

    Emits per-epoch train loss and test loss (inference-mode batch
    norm).  A non-finite loss or gradient, or an epoch that ends with
    non-finite parameters or test loss, aborts training; the last finite
    epoch's model is retained, flagged as diverged, and the aborted epoch
    writes no rows.
    """
    model = initial_model(config)
    state = init_state(model.params, learning_rate=config.train.lr)
    grad = np.empty_like(model.params)
    shuffle_rng = np.random.default_rng(derived_seed(config.seed, DOMAIN_SHUFFLE))
    inputs, targets = train_set.inputs, train_set.targets
    count = train_set.count
    batch_size = config.train.batch_size
    curves: list[CurvePoint] = []
    diverged = False
    retained = model.copy()
    test_loss = float("nan")

    start = time.perf_counter()
    for epoch in range(config.train.epochs):
        perm = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        seen = 0
        for lo in range(0, count, batch_size):
            idx = perm[lo : lo + batch_size]
            if idx.size < 2:
                continue  # batch norm cannot normalize a single row
            batch_loss = _gradient_step(model, inputs[idx], targets[idx], grad)
            if not np.isfinite(batch_loss):
                diverged = True
                break
            try:
                adam_step(model.params, grad, state)
            except NonFiniteGradientError:
                diverged = True
                break
            epoch_loss += batch_loss * idx.size
            seen += idx.size
        # the epoch's last step is seen by no forward inside the epoch
        diverged = diverged or not np.isfinite(model.params).all()
        if not diverged:
            test_loss = evaluate_loss(model, test_set)
            diverged = not np.isfinite(test_loss)
        if diverged:
            model = retained
            break
        retained = model.copy()
        train_loss = epoch_loss / max(seen, 1)
        curves.append(CurvePoint("train-loss", float(epoch), train_loss))
        curves.append(CurvePoint("test-loss", float(epoch), test_loss))
        if progress:
            print(f"epoch {epoch}: train {train_loss:.5f} test {test_loss:.5f}")
    elapsed = time.perf_counter() - start

    if diverged:  # test_loss is the diverged epoch's, or none: score the model rolled back to
        test_loss = evaluate_loss(model, test_set)
    return TrainResult(
        model=model,
        curves=curves,
        diverged=diverged,
        train_seconds=elapsed,
        final_test_loss=test_loss,
    )


def _gradient_step(model: net.DenoiserModel, xb: np.ndarray, yb: np.ndarray, grad: np.ndarray) -> float:
    """One batch's train-mode loss, with its gradients in ``grad`` when finite; its activations die on return."""
    out, cache = net.forward(model, xb, mode="train")
    batch_loss = net.loss(out, yb)
    if np.isfinite(batch_loss):
        net.backward(model, cache, yb, out=grad)
    return batch_loss


def evaluate_loss(model: net.DenoiserModel, ds: Dataset) -> float:
    out, _ = net.forward(model, ds.inputs, mode="infer")
    return net.loss(out, ds.targets)


# -- reconstruction evaluation ---------------------------------------------------


def reconstruction_loss_by_snr(model: net.DenoiserModel, ds: Dataset) -> dict[float, float]:
    """Mean per-record loss in each SNR bucket (float64 accumulation)."""
    out, _ = net.forward(model, ds.inputs, mode="infer")
    per_sample = net.per_sample_loss(out, ds.targets)
    return {
        snr: float(per_sample[idx].mean()) for snr, idx in ds.snr_buckets().items()
    }


def eval_reconstruction(model: net.DenoiserModel, ds: Dataset) -> list[CurvePoint]:
    by_snr = reconstruction_loss_by_snr(model, ds)
    return [CurvePoint("recon-loss", snr, loss) for snr, loss in sorted(by_snr.items())]


# -- DOA campaigns ---------------------------------------------------------------


def denoise_snapshots(model: net.DenoiserModel, data: np.ndarray) -> np.ndarray:
    """Run each snapshot column of ``data``, M x N or (..., M, N), through the network in ``CHUNK_BYTES`` batches."""
    rows = to_real_batch(data).astype(np.float32)
    flat = rows.reshape(-1, rows.shape[-1])
    cap = max(1, music.CHUNK_BYTES // (4 * max(max(layer.w.shape) for layer in model.dense)))
    out = [net.forward(model, flat[lo : lo + cap], mode="infer")[0] for lo in range(0, len(flat), cap)]
    return from_real_batch(np.concatenate(out).reshape(rows.shape))


def make_transform(tag: str, qspec_for, model: net.DenoiserModel | None = None):
    """Resolve a series tag to a signal transform.

    Tags: "unquantized", "raw-{B}bit", "recon-{B}bit".  ``qspec_for`` is
    a callable bits -> QuantizerSpec so all series share one full scale;
    a recon tag must name ``qspec_for()``, the ADC the model learned behind.
    """
    if tag == "unquantized":
        return lambda data: data
    if tag.startswith("raw-") and tag.endswith("bit"):
        spec = qspec_for(int(tag[4:-3]))
        return lambda data: quantize_complex(data, spec)
    if tag.startswith("recon-") and tag.endswith("bit"):
        if model is None:
            raise ValueError(f"series {tag!r} needs a denoiser model")
        spec = qspec_for(int(tag[6:-3]))
        if spec != qspec_for():
            raise ConfigError(f"series {tag!r} needs quantizer.bits = {spec.bits}, not {qspec_for().bits}")
        return lambda data: denoise_snapshots(model, quantize_complex(data, spec))
    raise ValueError(f"unknown series tag {tag!r}")


def eval_doa(
    model: net.DenoiserModel | None,
    config: ScenarioConfig,
    series: tuple[str, ...] = DOA_SERIES,
) -> tuple[list[CurvePoint], dict[tuple[str, float], TrialResult]]:
    """Paired MUSIC angle-error trials for every series at every SNR of ``config``."""
    if why := config.uncovered_sources():
        raise ConfigError(why)
    grid = scan_grid(config.music.grid_min, config.music.grid_max, config.music.grid_step)
    transforms = {tag: make_transform(tag, config.quantizer_spec, model) for tag in series}
    points: list[CurvePoint] = []
    details: dict[tuple[str, float], TrialResult] = {}
    for snr_index, snr in enumerate(config.snr_db):
        results = run_trials(
            geom=config.geometry(),
            num_sources=config.sources.count,
            angle_range=config.angle_range(),
            min_sep=config.eval_min_sep(),
            snr_db=snr,
            num_snapshots=config.music.num_snapshots,
            grid_deg=grid,
            transforms=transforms,
            seeds=derived_seeds(config.seed, DOMAIN_TRIALS, config.music.trials, stream=snr_index),
        )
        for tag in series:
            details[(tag, snr)] = results[tag]
            points.append(CurvePoint(tag, snr, results[tag].mean, results[tag].stderr))
    return points, details


def spectrum_compare(
    model: net.DenoiserModel,
    config: ScenarioConfig,
    angles_deg: tuple[float, ...] = DEFAULT_SPECTRUM_ANGLES,
    snr_db: float = 50.0,
) -> tuple[list[CurvePoint], int]:
    """MUSIC spectra of several pipelines on one shared realization."""
    if not 1 <= len(angles_deg) < config.array.num_sensors:
        raise ConfigError(f"need 1 to {config.array.num_sensors - 1} angles for "
                          f"{config.array.num_sensors} sensors, got {len(angles_deg)}")
    lo, hi = config.music.grid_min, config.music.grid_max
    if any(not (lo <= a <= hi) for a in angles_deg):
        raise ConfigError(f"angles {angles_deg} fall outside the scan range [{lo}, {hi}]")
    if not snr_db > MIN_SNR_DB:  # NaN fails it too
        raise ConfigError(f"snr_db must exceed {MIN_SNR_DB:.1f} dB (the config's snr_db floor), got {snr_db}")
    transforms = {tag: make_transform(tag, config.quantizer_spec, model) for tag in SPECTRUM_SERIES}
    trial_seed = derived_seed(config.seed, DOMAIN_SPECTRUM)
    rng = np.random.default_rng(trial_seed)
    geom = config.geometry()
    clean = synthesize(angles_deg, geom, noise_variance(snr_db), config.music.num_snapshots, rng)
    grid = scan_grid(lo, hi, config.music.grid_step)
    steering = steering_matrix(grid, geom)
    points: list[CurvePoint] = []
    for tag, transform in transforms.items():
        cov = sample_covariance(transform(clean))
        spectrum = music_spectrum(noise_subspace(cov, len(angles_deg)), steering)
        points.extend(CurvePoint(tag, g, s) for g, s in zip(grid, spectrum))
    return points, trial_seed


# -- model compression ------------------------------------------------------------


def compression_report(model: net.DenoiserModel, ds: Dataset) -> tuple[list[CurvePoint], net.DenoiserModel]:
    """Reconstruction loss of the fp32 model vs its fp16 rounding, and that rounding."""
    half = net.to_half_precision(model)
    full_loss = reconstruction_loss_by_snr(model, ds)
    half_loss = reconstruction_loss_by_snr(half, ds)
    points = []
    for snr in sorted(full_loss):
        f32, f16 = full_loss[snr], half_loss[snr]
        points.append(CurvePoint("fp32-loss", snr, f32))
        points.append(CurvePoint("fp16-loss", snr, f16))
        rel = abs(f16 - f32) / f32 if f32 > 0 else 0.0
        points.append(CurvePoint("rel-change", snr, rel))
    ratio = parameter_payload_bytes(half) / parameter_payload_bytes(model)
    points.append(CurvePoint("payload-ratio", 0.0, ratio))
    return points, half


# -- ablations and timing ----------------------------------------------------------


def _width_chain(config: ScenarioConfig, hidden: int, layers: int) -> list[int]:
    """``network.widths`` of a ``layers``-layer net with ``hidden``-wide hidden layers."""
    two_m = 2 * config.array.num_sensors
    return [two_m] + [hidden] * (layers - 1) + [two_m]


def default_ablation_variants(config: ScenarioConfig) -> list[tuple[str, list[str]]]:
    """The fine-tuning grid: depth, width, BN, skip, activation."""
    hidden = config.network.widths[1]
    depth = len(config.network.widths) - 1

    def widths(n_hidden: int, n_layers: int) -> str:
        return f"network.widths={_width_chain(config, n_hidden, n_layers)}"

    variants: list[tuple[str, list[str]]] = [("base", [])]
    for layers in (depth - 2, depth + 2):
        if layers >= 2:
            variants.append((f"layers-{layers}", [widths(hidden, layers)]))
    for neurons in (hidden // 4, hidden // 2, hidden * 2):
        if neurons >= 2:
            variants.append((f"neurons-{neurons}", [widths(neurons, depth)]))
    variants.append(("no-bn", ["network.use_bn=false"]))
    variants.append(("no-residual", ["network.use_residual=false"]))
    variants.append(("tanh", ["network.activation=tanh"]))
    return variants


def ablation_suite(
    config: ScenarioConfig,
    variants: list[tuple[str, list[str]]],
    train_set: Dataset,
    test_set: Dataset,
) -> dict[str, TrainResult]:
    """Train every variant on one shared dataset; keep diverged runs.

    Results come back by name in variant order.  The base configuration
    is included exactly once, first when the caller omits it.  Every
    variant is checked before any trains: a repeated name or an invalid
    config raises ``ConfigError``.
    """
    if "base" not in dict(variants):
        variants = [("base", [])] + list(variants)
    names = [name for name, _ in variants]
    if len(set(names)) < len(names):
        raise ConfigError(f"each variant must appear exactly once; got {names}")
    configs = {name: apply_overrides(config, ov) for name, ov in variants}
    for name, cfg in configs.items():
        errs = cfg.validate()
        if errs:
            raise ConfigError(f"variant {name!r} is invalid: {errs}")
    return {name: train(cfg, train_set, test_set) for name, cfg in configs.items()}


def ablation_points(results: dict[str, TrainResult]) -> list[CurvePoint]:
    """Loss table plus an explicit 0/1 divergence flag row per variant."""
    points = []
    for name, result in results.items():
        points.append(CurvePoint(name, 0.0, result.final_test_loss))
        points.append(CurvePoint(f"{name}/diverged", 0.0, 1.0 if result.diverged else 0.0))
    return points


def timing_points(results: dict[str, TrainResult]) -> list[CurvePoint]:
    return [CurvePoint(name, 0.0, result.train_seconds) for name, result in results.items()]


def width_sweep_variants(config: ScenarioConfig, widths: list[int]) -> list[tuple[str, list[str]]]:
    depth = len(config.network.widths) - 1
    out = []
    for n in widths:
        chain = _width_chain(config, n, depth)
        name = "base" if chain == config.network.widths else f"width-{n}"
        out.append((name, [f"network.widths={chain}"]))
    return out
