"""MUSIC direction finding on sample covariances.

The estimator forms R = (1/N) sum_n y(n) y(n)^H from a handful of
snapshots, splits its eigenvectors into signal and noise subspaces, and
scans a dense angle grid for the peaks of

    P(theta) = 1 / (||E^H a(theta)||^2 + reg),

where E spans the noise subspace.  Steering vectors at source angles
are orthogonal to E, so P peaks there.  A tiny regularizer keeps the
spectrum finite in exactly noiseless scenarios.  The per-trial quality
metric is the mean squared angle error after rank pairing.  Snapshots
are plain complex ndarrays: Y is (M, N), one column per snapshot.

Every step accepts leading batch axes and puts each matrix of a stack
through the same arithmetic as a lone one, so ``run_trials`` can take one
covariance and one ``eigh`` per block of trials, scan the subspaces in
spectrum chunks and rescan any few of them, and still match one-at-a-time
scans bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signal_model import ArrayGeometry, noise_variance, steering_matrix, synthesize_seeded

SPECTRUM_REGULARIZER = 1e-12

# Working-memory budget of run_trials: a block's (T, M, N) snapshots and
# (T, M, M) covariances and eigenvectors, and the float32 rows of each layer
# of a denoiser call stay near it.  It sets only how many rows a chunk of the
# polynomial pass scans, as many as it holds (M-K, G) projections; a rescan
# forms one projection at a time.
CHUNK_BYTES = 4_000_000

# Transforms map clean complex snapshots, M x N or a stack (..., M, N)
# of trials, to what the estimator should see, in the same shape.
SignalTransform = Callable[[np.ndarray], np.ndarray]


# Most scan-grid points a config may ask for: each point costs a steering column
# (M complex128 values, 128 MB at 8 sensors for 10**6 points) and a spectrum value.
MAX_GRID_POINTS = 10**6


def grid_points(lo: float, hi: float, step: float) -> float:
    """Points of lo, lo + step, ... up to hi (1e-9 step of slack), a whole float: inf past float range."""
    return np.floor((hi - lo) / step + 1e-9) + 1


def scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Angle grid lo, lo + step, ... of ``grid_points(lo, hi, step)`` points."""
    if not step > 0:
        raise ValueError("grid step must be > 0")
    if hi <= lo:
        raise ValueError(f"empty grid [{lo}, {hi}]")
    return lo + step * np.arange(grid_points(lo, hi, step))


def sample_covariance(data: np.ndarray) -> np.ndarray:
    """R = (1/N) Y Y^H, symmetrized to kill roundoff drift.

    Y is M x N, or a stack (..., M, N) giving a stack of covariances.
    """
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


def music_spectrum(subspace: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """Pseudo-spectrum over a grid given by its steering matrix (one column per angle).

    ``subspace`` is a noise basis (M, M-K) from ``noise_subspace``, or a stack (..., M, M-K) giving a stack of
    spectra (..., G).  Larger means more source-like.  One basis at a time forms its (M-K, G) projection and sums
    it into its output row, so each spectrum has the bits of that basis scanned alone and no more than one
    projection is alive.
    """
    spectra = np.empty(subspace.shape[:-2] + steering.shape[-1:], np.result_type(subspace.real, steering.real))
    scratch = np.empty_like(spectra, shape=steering.shape[-1:])
    for index in np.ndindex(subspace.shape[:-2]):
        projection = subspace[index].conj().T @ steering
        # |P_r|^2 summed one row at a time, in the order np.sum(..., axis=-2) adds.
        spectrum = np.abs(projection[0], out=spectra[index])
        spectrum **= 2
        for row in range(1, len(projection)):
            np.abs(projection[row], out=scratch)
            scratch **= 2
            spectrum += scratch
        del projection  # before the next basis's product is formed
    spectra += SPECTRUM_REGULARIZER
    return np.divide(1.0, spectra, out=spectra)


def ranked_peaks(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the peaks of a finite (T, G) stack; only comparisons touch the values.

    A peak is a run of equal values above both neighbouring runs, at the
    run's leftmost index; endpoint runs never count.  Peaks come by row,
    then by descending value, ties toward the smaller index.  Only a rise that stops
    rising can start a peak; a plateau it starts is one if its run ends inside its row, above the next value.
    """
    g = spectra.shape[1]
    flat = spectra.ravel()
    up = flat[1:] > flat[:-1]
    at = np.flatnonzero(up[:-1] > up[1:]) + 1  # flat[at - 1] < flat[at] >= flat[at + 1]
    col = at % g
    at = at[(col > 0) & (col < g - 1)]  # drop the row seams
    plateau = np.flatnonzero(flat[at] == flat[at + 1])
    if plateau.size:
        starts = np.append(np.flatnonzero(flat[1:] != flat[:-1]) + 1, flat.size)  # run starts, then a sentinel
        end = starts[np.searchsorted(starts, at[plateau], side="right")]  # the first index past each run
        peak = end // g == at[plateau] // g  # the run ends inside its row,
        peak[peak] = flat[end[peak]] < flat[at[plateau[peak]]]  # above the value after it
        at = np.delete(at, plateau[~peak])
    order = np.lexsort((-flat[at], at // g))  # stable: ties keep index order
    return np.divmod(at[order], g)


def pick_peaks(grid_deg: np.ndarray, spectrum: np.ndarray, num_sources: int,
               ranked: np.ndarray | None = None) -> np.ndarray:
    """The first K peaks ``ranked_peaks`` ranks, padded with the largest other values.

    Ties break toward the smaller index.  ``ranked``, the row's peak columns in ``ranked_peaks``' order, spares
    ranking them again.  Returned angles are sorted ascending: on the grid 0, 1, ..., G-1, the picked columns.
    """
    grid_deg = np.asarray(grid_deg, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if grid_deg.shape != spectrum.shape or grid_deg.ndim != 1:
        raise ValueError("grid and spectrum must be matching 1-D arrays")
    if num_sources < 1 or num_sources > grid_deg.size:
        raise ValueError(f"cannot pick {num_sources} peaks from {grid_deg.size} points")
    if not np.all(np.isfinite(spectrum)):
        raise ValueError("spectrum must be finite")
    chosen = list((ranked_peaks(spectrum[None])[1] if ranked is None else ranked)[:num_sources])
    left = spectrum.copy()
    left[chosen] = -np.inf
    while len(chosen) < num_sources:
        chosen.append(np.argmax(left))  # the first of tied maxima
        left[chosen[-1]] = -np.inf
    return np.sort(grid_deg[chosen])


def pick_peak_rows(grid_deg: np.ndarray, spectra: np.ndarray, num_sources: int) -> tuple[np.ndarray, np.ndarray]:
    """``pick_peaks`` on every row of a finite (T, G) stack: (T, K) angles, and (T,) gaps.

    Peaks are found and ranked for the whole stack at once.  A row with fewer than K peaks goes through
    ``pick_peaks`` alone to be padded.  A row's gap is the smallest difference of two values its picks rest
    on, so a change below gap / 2 keeps them: an adjacent pair (they make the peaks), the K-th and (K+1)-th
    ranked peaks, or, with p < K peaks, the (K-p)-th and (K-p+1)-th largest other values.
    """
    rows, cols = ranked_peaks(spectra)
    counts = np.bincount(rows, minlength=spectra.shape[0])
    starts = np.cumsum(counts) - counts  # each row's first ranked peak
    rank = np.arange(rows.size) - starts[rows]
    top, after = rank < num_sources, np.flatnonzero(rank == num_sources)  # after: the (K+1)-th peaks
    angles = np.empty((spectra.shape[0], num_sources))
    angles[rows[top], rank[top]] = grid_deg[cols[top]]
    gaps = np.diff(spectra, axis=1)
    gaps = np.abs(gaps, out=gaps).min(axis=1, initial=np.inf)  # in place: one (T, G - 1) temporary, not two
    ranked = rows[after]
    gaps[ranked] = np.minimum(gaps[ranked], spectra[ranked, cols[after - 1]] - spectra[ranked, cols[after]])
    columns = np.arange(spectra.shape[1], dtype=float)
    for r in np.flatnonzero(counts < num_sources):
        peaks = cols[starts[r] : starts[r] + counts[r]]
        picked = pick_peaks(columns, spectra[r], num_sources, ranked=peaks).astype(int)  # p peaks, K - p padded
        angles[r], left = grid_deg[picked], spectra[r].copy()
        left[peaks] = np.inf  # so the least picked value is the last one padded
        last, left[picked] = left[picked].min(), -np.inf
        gaps[r] = min(gaps[r], last - left.max())  # inf when no other value is left (G = K)
    return np.sort(angles, axis=1), gaps


def polynomial_weights(subspace: np.ndarray) -> np.ndarray:
    """Weights (..., 2M-1) of d(u) = ||E^H a(u)||^2 = c_0 + 2 sum_l Re(c_l e^{jlu}) on the rows 1, cos lu, sin lu.

    c_l sums the l-th superdiagonal of P = E E^H (root-MUSIC, Barabell 1983); cos lu, sin lu = Re a_l, Im a_l.
    """
    proj = subspace @ subspace.conj().swapaxes(-1, -2)
    lags = np.stack([proj.diagonal(lag, -2, -1).sum(-1) for lag in range(proj.shape[-1])], axis=-1)
    return np.concatenate([lags.real[..., :1], 2 * lags.real[..., 1:], -2 * lags.imag[..., 1:]], axis=-1)


def denominator_bound(num_sensors: int, num_sources: int, max_phase: float) -> float:
    """B = 20 u M R (M + phi), u = 2^-53, R = M - K, phi = 2 pi spacing (M-1) max|sin theta|: first order in u.

    |polynomial d - GEMM d| per u M, for orthonormal E (sum |P_mn| <= M sqrt(R), d <= M): GEMM 2 sqrt(2) (M+2)
    sqrt(R) + R + 2; steering (4 phi + 6) sqrt(R), its roundings leaving conj(a_m) a_n within (4 phi + 6) u of
    a_(n-m); P = E E^H sqrt(2) (R+2) R; lag sums (M-1) sqrt(R); real product sqrt(2) (2M-1) sqrt(R): under 15 R
    (M + phi).  2 ulps of d + reg <= M + 1 add under 3 R (M + phi): values 2B apart stay ordered in 1 / (d + reg).
    """
    return 10 * np.finfo(float).eps * num_sensors * (num_sensors - num_sources) * (num_sensors + max_phase)


def doa_mse(estimated: np.ndarray, truth: np.ndarray) -> float | np.ndarray:
    """Mean squared angle error in degrees^2, both lists paired by rank.

    The last axis holds the angles; leading axes are a stack of trials
    and give one error per trial.  For 1-D angles under squared error
    the rank (monotone) pairing is an optimal assignment, so no other
    pairing can give a smaller value.
    """
    est = np.sort(np.asarray(estimated, dtype=float), axis=-1)
    tru = np.sort(np.asarray(truth, dtype=float), axis=-1)
    if est.shape != tru.shape:
        raise ValueError(f"count mismatch: {est.shape} estimates vs {tru.shape} truths")
    if est.size == 0:
        raise ValueError("empty angle lists")
    return np.mean((est - tru) ** 2, axis=-1)


@dataclass
class TrialResult:
    """Per-trial MSEs plus summary statistics."""

    mses: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.mean(self.mses))

    @property
    def stderr(self) -> float:
        n = self.mses.size
        if n < 2:
            return 0.0
        return float(np.std(self.mses, ddof=1) / np.sqrt(n))


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
    seeds: np.ndarray,
) -> dict[str, TrialResult]:
    """Monte-Carlo angle-error trials for several pipelines at one SNR.

    Trial t draws its angles, source phases, and noise from a generator
    seeded with ``seeds[t]`` (from ``config.derived_seeds``), once for all
    ``transforms``, so the pipelines see identical signals and differ only
    in the transform.  Each block of trials is synthesized and transformed once per series (the
    denoiser in batches of ``CHUNK_BYTES`` a layer), and its covariances and noise subspaces
    come from one ``eigh`` call; the spectra are scanned in chunks (see ``CHUNK_BYTES``).
    Neither size moves a result, nor does picking each chunk first from the polynomial spectrum -d:
    the trials in doubt, and only they, are picked again from their own ``music_spectrum`` products.
    """
    trials = len(seeds)
    if trials < 1:
        raise ValueError("need at least one trial seed")
    grid_deg = np.asarray(grid_deg, dtype=float)
    steering = steering_matrix(grid_deg, geom)
    max_phase = 2 * np.pi * geom.spacing * (geom.num_sensors - 1) * np.abs(np.sin(np.deg2rad(grid_deg))).max()
    margin = 2 * denominator_bound(geom.num_sensors, num_sources, max_phase)
    variance = noise_variance(snr_db)
    projection_bytes = (geom.num_sensors - num_sources) * grid_deg.size * steering.itemsize
    chunk = max(1, CHUNK_BYTES // projection_bytes)
    trial_bytes = geom.num_sensors * max(num_snapshots, geom.num_sensors) * steering.itemsize
    block = max(1, CHUNK_BYTES // trial_bytes)
    mses = {tag: np.empty(trials, dtype=float) for tag in transforms}
    for lo in range(0, trials, block):
        batch = seeds[lo : lo + block].tolist()
        truths, clean = synthesize_seeded(batch, [variance] * len(batch), geom,
                                          num_sources, angle_range, min_sep, num_snapshots)
        parts = [slice(i, i + chunk) for i in range(0, len(batch), chunk)]
        for tag, transform in transforms.items():
            subspaces = noise_subspace(sample_covariance(transform(clean)), num_sources)
            picks, doubt = np.empty_like(truths), np.empty(len(batch), dtype=bool)
            weights, table = polynomial_weights(subspaces), np.concatenate([steering.real, steering.imag[1:]])
            for part in parts:
                picks[part], gaps = pick_peak_rows(grid_deg, (-weights[part]) @ table, num_sources)
                doubt[part] = gaps <= margin
            del weights, table  # the projections below need the room
            # No name keeps a chunk's spectra, so they are freed before the next projection.
            for part in parts:
                if (rows := np.flatnonzero(doubt[part])).size:
                    picks[part][rows] = pick_peak_rows(
                        grid_deg, music_spectrum(subspaces[part][rows], steering), num_sources)[0]
            mses[tag][lo : lo + block] = doa_mse(picks, truths)
    return {tag: TrialResult(mses=m) for tag, m in mses.items()}
