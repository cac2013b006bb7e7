"""MUSIC direction finding on sample covariances.

The estimator forms R = (1/N) sum_n y(n) y(n)^H from a handful of
snapshots, splits its eigenvectors into signal and noise subspaces, and
scans a dense angle grid for the peaks of

    P(theta) = 1 / (||E^H a(theta)||^2 + reg),

where E spans the noise subspace.  Steering vectors at source angles
are orthogonal to E, so P peaks there.  A tiny regularizer keeps the
spectrum finite in exactly noiseless scenarios.  The per-trial quality
metric is the mean squared angle error after rank pairing.

Covariance, subspace and spectrum accept leading batch axes, so
``run_trials`` scans a stack of trials in one call of each; every
matrix in a stack goes through the same arithmetic as a lone one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signal_model import (
    ArrayGeometry,
    NoiseSpec,
    SnapshotMatrix,
    SourceSet,
    draw_source_angles,
    steering_matrix,
    synthesize,
)

SPECTRUM_REGULARIZER = 1e-12

# Working-memory budget of one stacked scan: run_trials sizes its trial
# chunks so the (T, M-K, G) complex projection stays near this size.
CHUNK_BYTES = 2_000_000

# Transforms map the clean complex M x N matrix to whatever the
# estimator should see (identity, quantized, denoised, ...).
SignalTransform = Callable[[np.ndarray], np.ndarray]


@dataclass
class MusicResult:
    """Scan output: the spectrum plus the K picked angles."""

    grid_deg: np.ndarray
    spectrum: np.ndarray
    angles_deg: np.ndarray
    mse: float | None = None


def scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive angle grid from lo to hi in uniform steps."""
    if not step > 0:
        raise ValueError("grid step must be > 0")
    if hi <= lo:
        raise ValueError(f"empty grid [{lo}, {hi}]")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def sample_covariance(snapshots: SnapshotMatrix | np.ndarray) -> np.ndarray:
    """R = (1/N) Y Y^H, symmetrized to kill roundoff drift.

    Y is M x N, or a stack (..., M, N) giving a stack of covariances.
    """
    data = snapshots.data if isinstance(snapshots, SnapshotMatrix) else np.asarray(snapshots)
    data = np.atleast_2d(data)
    if data.shape[-1] < 1:
        raise ValueError("covariance needs at least one snapshot")
    cov = data @ data.conj().swapaxes(-1, -2) / data.shape[-1]
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def noise_subspace(cov: np.ndarray, num_sources: int) -> np.ndarray:
    """Orthonormal basis of the M-K smallest eigenvalue directions.

    ``cov`` is M x M, or a stack (..., M, M) giving a stack of bases.
    """
    cov = np.asarray(cov)
    m = cov.shape[-1]
    if cov.ndim < 2 or cov.shape[-2] != m:
        raise ValueError(f"covariance must be square, got {cov.shape}")
    if not 0 < num_sources < m:
        raise ValueError(f"need 0 < num_sources < {m}, got {num_sources}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance has non-finite entries")
    _, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    return vecs[..., : m - num_sources]


def music_spectrum(
    cov: np.ndarray,
    num_sources: int,
    geom: ArrayGeometry,
    grid_deg: np.ndarray,
    steering: np.ndarray | None = None,
) -> np.ndarray:
    """Pseudo-spectrum over the grid; larger means more source-like.

    A stack of covariances (..., M, M) gives a stack of spectra
    (..., G).  ``steering`` may carry a precomputed steering matrix for
    the grid (one column per angle) to amortize repeated scans.
    """
    grid_deg = np.asarray(grid_deg, dtype=float)
    if grid_deg.size == 0:
        raise ValueError("empty scan grid")
    subspace = noise_subspace(cov, num_sources)
    if steering is None:
        steering = steering_matrix(grid_deg, geom)
    projection = subspace.conj().swapaxes(-1, -2) @ steering
    power = np.sum(np.abs(projection) ** 2, axis=-2)
    return 1.0 / (power + SPECTRUM_REGULARIZER)


def pick_peaks(grid_deg: np.ndarray, spectrum: np.ndarray, num_sources: int) -> np.ndarray:
    """The K largest local maxima, padded with the largest leftover values.

    A local maximum is strictly greater than its neighbors; a plateau
    counts once, at its leftmost index.  Ties between peaks break toward
    the smaller index.  Returned angles are sorted ascending.
    """
    grid_deg = np.asarray(grid_deg, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if grid_deg.shape != spectrum.shape or grid_deg.ndim != 1:
        raise ValueError("grid and spectrum must be matching 1-D arrays")
    if num_sources < 1 or num_sources > grid_deg.size:
        raise ValueError(f"cannot pick {num_sources} peaks from {grid_deg.size} points")

    # Compress plateaus to runs, then compare neighboring run values;
    # endpoint runs have only one neighbor and never count.
    run_starts = np.concatenate([[0], np.flatnonzero(np.diff(spectrum) != 0.0) + 1])
    values = spectrum[run_starts]
    inner = values[1:-1]
    peaks = run_starts[1:-1][(inner > values[:-2]) & (inner > values[2:])]

    # Stable sorts of negated values keep ties in ascending index order.
    chosen = peaks[np.argsort(-spectrum[peaks], kind="stable")[:num_sources]]
    if chosen.size < num_sources:
        rest = np.delete(np.arange(grid_deg.size), chosen)
        fill = rest[np.argsort(-spectrum[rest], kind="stable")[: num_sources - chosen.size]]
        chosen = np.concatenate([chosen, fill])
    return np.sort(grid_deg[chosen])


def doa_mse(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared angle error in degrees^2, both lists paired by rank.

    For 1-D angles under squared error the rank (monotone) pairing is an
    optimal assignment, so no other pairing can give a smaller value.
    """
    est = np.sort(np.asarray(estimated, dtype=float).ravel())
    tru = np.sort(np.asarray(truth, dtype=float).ravel())
    if est.size != tru.size:
        raise ValueError(f"count mismatch: {est.size} estimates vs {tru.size} truths")
    if est.size == 0:
        raise ValueError("empty angle lists")
    return float(np.mean((est - tru) ** 2))


def estimate_doa(
    snapshots: SnapshotMatrix | np.ndarray,
    num_sources: int,
    geom: ArrayGeometry,
    grid_deg: np.ndarray,
    truth_deg: np.ndarray | None = None,
    steering: np.ndarray | None = None,
) -> MusicResult:
    """Covariance -> subspace -> spectrum -> peaks, in one call."""
    cov = sample_covariance(snapshots)
    spectrum = music_spectrum(cov, num_sources, geom, grid_deg, steering=steering)
    angles = pick_peaks(grid_deg, spectrum, num_sources)
    mse = None if truth_deg is None else doa_mse(angles, truth_deg)
    return MusicResult(grid_deg=grid_deg, spectrum=spectrum, angles_deg=angles, mse=mse)


@dataclass
class TrialResult:
    """Per-trial MSEs plus summary statistics."""

    mses: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.mses))

    @property
    def median(self) -> float:
        return float(np.median(self.mses))

    @property
    def stderr(self) -> float:
        n = self.mses.size
        if n < 2:
            return 0.0
        return float(np.std(self.mses, ddof=1) / np.sqrt(n))


def paired_stderr(a: TrialResult, b: TrialResult) -> float:
    """Standard error of the per-trial difference a - b."""
    diff = a.mses - b.mses
    return float(np.std(diff, ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else 0.0


def run_trials(
    *,
    geom: ArrayGeometry,
    num_sources: int,
    angle_range: tuple[float, float],
    min_sep: float,
    snr_db: float,
    num_snapshots: int,
    grid_deg: np.ndarray,
    transforms: dict[str, SignalTransform],
    trials: int,
    base_seed: int,
) -> dict[str, TrialResult]:
    """Monte-Carlo angle-error trials for several pipelines at one SNR.

    Trial t draws its angles, source phases, and noise from a generator
    seeded with ``base_seed XOR t``, once for all ``transforms``, so the
    pipelines see identical signals and differ only in the transform;
    repeated runs with the same seed repeat every trial.  Trials are
    scanned in stacked chunks; results do not depend on the chunk size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid_deg = np.asarray(grid_deg, dtype=float)
    steering = steering_matrix(grid_deg, geom)
    noise = NoiseSpec(snr_db=snr_db)
    projection_bytes = (geom.num_sensors - num_sources) * grid_deg.size * steering.itemsize
    chunk = max(1, CHUNK_BYTES // projection_bytes)
    mses = {tag: np.empty(trials, dtype=float) for tag in transforms}
    for lo in range(0, trials, chunk):
        ts = range(lo, min(lo + chunk, trials))
        truths = []
        observed: dict[str, list[np.ndarray]] = {tag: [] for tag in transforms}
        for t in ts:
            rng = np.random.default_rng(base_seed ^ t)
            angles = draw_source_angles(num_sources, angle_range, min_sep, rng)
            clean = synthesize(SourceSet(angles), geom, noise, num_snapshots, rng)
            truths.append(angles)
            for tag, transform in transforms.items():
                observed[tag].append(transform(clean.data))
        for tag, stack in observed.items():
            cov = sample_covariance(np.stack(stack))
            spectra = music_spectrum(cov, num_sources, geom, grid_deg, steering=steering)
            for t, spectrum, truth in zip(ts, spectra, truths):
                mses[tag][t] = doa_mse(pick_peaks(grid_deg, spectrum, num_sources), truth)
    return {tag: TrialResult(mses=m) for tag, m in mses.items()}
