"""Per-trial MUSIC reference: one covariance, spectrum and pick per call.

``estimate_doa`` scans a single snapshot matrix the way the package did
before trials were scanned in stacks; tests compare the stacked engine
in ``quantdoa.music.run_trials`` against it.  ``ranked_peaks`` is the
run-compression peak finder the package used before it looked only at
rise-then-fall candidates, kept verbatim.  ``run_trials_chunked`` is
the engine ``run_trials`` replaced, kept verbatim: it synthesizes,
transforms and scores every 2 MB spectrum chunk on its own.
``music_spectrum`` is the covariance-in spectrum both of them call, kept
verbatim from before the package took noise subspaces and summed the
squared magnitudes one subspace row at a time.  ``pick_peak_rows`` and
``vouched_picks`` are the stack pickers from before ``pick_peak_rows``
returned each row's gap, kept verbatim: one ranked the peaks for the
picks, the other ranked them again for the doubt flags.  Here both rank
through the run-compression ``ranked_peaks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantdoa.music import (
    SPECTRUM_REGULARIZER,
    SignalTransform,
    TrialResult,
    doa_mse,
    noise_subspace,
    pick_peaks,
    sample_covariance,
)
from quantdoa.signal_model import ArrayGeometry, noise_variance, steering_matrix, synthesize_seeded

# The chunk budget of the replaced engine: 4 trials a chunk at the desk shape.
CHUNK_BYTES = 2_000_000


def music_spectrum(cov: np.ndarray, num_sources: int, steering: np.ndarray) -> np.ndarray:
    """Pseudo-spectrum over a grid given by its steering matrix (one column per angle).

    Larger means more source-like.  A stack of covariances (..., M, M)
    gives a stack of spectra (..., G).
    """
    subspace = noise_subspace(cov, num_sources)
    rows = subspace.conj().swapaxes(-1, -2)
    if rows.shape[-2] > 1:  # one GEMM over the subspace rows of every matrix
        projection = (rows.reshape(-1, rows.shape[-1]) @ steering).reshape(*rows.shape[:-1], -1)
    else:
        # numpy sends one-row products to gemv, which rounds unlike gemm
        projection = rows @ steering
    power = np.abs(projection)
    power **= 2
    # Row-by-row adds: the order np.sum(..., axis=-2) adds in.
    spectrum = power[..., 0, :].copy() if rows.shape[-2] == 1 else np.add(power[..., 0, :], power[..., 1, :])
    for row in range(2, rows.shape[-2]):
        spectrum += power[..., row, :]
    spectrum += SPECTRUM_REGULARIZER
    return np.divide(1.0, spectrum, out=spectrum)


@dataclass
class MusicResult:
    """Scan output: the spectrum plus the K picked angles."""

    grid_deg: np.ndarray
    spectrum: np.ndarray
    angles_deg: np.ndarray
    mse: float | None = None


def estimate_doa(
    snapshots: np.ndarray,
    num_sources: int,
    geom: ArrayGeometry,
    grid_deg: np.ndarray,
    truth_deg: np.ndarray | None = None,
    steering: np.ndarray | None = None,
) -> MusicResult:
    """Covariance -> subspace -> spectrum -> peaks, in one call."""
    cov = sample_covariance(snapshots)
    if steering is None:
        steering = steering_matrix(grid_deg, geom)
    spectrum = music_spectrum(cov, num_sources, steering)
    angles = pick_peaks(grid_deg, spectrum, num_sources)
    mse = None if truth_deg is None else doa_mse(angles, truth_deg)
    return MusicResult(grid_deg=grid_deg, spectrum=spectrum, angles_deg=angles, mse=mse)


def ranked_peaks(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the peaks of a finite (T, G) stack.

    A peak is a run of equal values above both neighbouring runs, at the
    run's leftmost index; endpoint runs never count.  Peaks come by row,
    then by descending value, ties toward the smaller index.  Only
    comparisons touch the values.
    """
    t, g = spectra.shape
    # step is 1 where a row rises to the next point and -1 where it falls;
    # the last column, a change that does neither, keeps rows apart.
    step = np.full((t, g), 2, dtype=np.int8)
    np.subtract(spectra[:, 1:] > spectra[:, :-1], spectra[:, :-1] > spectra[:, 1:],
                out=step[:, :-1], dtype=np.int8)
    change = np.flatnonzero(step)
    kind = step.ravel()[change]
    peak_at = change[:-1][(kind[:-1] == 1) & (kind[1:] == -1)] + 1  # flat index into spectra
    order = np.lexsort((-spectra.ravel()[peak_at], peak_at // g))  # stable: ties keep index order
    return np.divmod(peak_at[order], g)


def pick_peak_rows(grid_deg: np.ndarray, spectra: np.ndarray, num_sources: int) -> np.ndarray:
    """``pick_peaks`` on every row of a finite (T, G) stack: (T, K) angles.

    Peaks are found and ranked for the whole stack at once.  A row with
    fewer than K peaks goes through ``pick_peaks`` alone to be padded.
    """
    rows, cols = ranked_peaks(spectra)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    top = rank < num_sources
    angles = np.empty((spectra.shape[0], num_sources))
    angles[rows[top], rank[top]] = grid_deg[cols[top]]
    for r in np.flatnonzero(np.bincount(rows, minlength=spectra.shape[0]) < num_sources):
        angles[r] = pick_peaks(grid_deg, spectra[r], num_sources)
    return np.sort(angles, axis=1)


def vouched_picks(grid_deg: np.ndarray, spectra: np.ndarray, num_sources: int,
                  margin: float) -> tuple[np.ndarray, np.ndarray]:
    """``pick_peak_rows`` of a finite (T, G) stack, and (T,) flags of the rows a change below margin / 2 could move.

    Those have two values their picks rest on within ``margin``: an adjacent pair (they make the peaks), the
    K-th and (K+1)-th ranked peaks, or, with p < K peaks, the (K-p)-th and (K-p+1)-th largest other values.
    """
    rows, cols = ranked_peaks(spectra)
    after = np.flatnonzero(np.arange(rows.size) - np.searchsorted(rows, rows) == num_sources)  # (K+1)-th peaks
    doubt = np.abs(np.diff(spectra, axis=1)).min(axis=1, initial=np.inf) <= margin
    doubt[rows[after]] |= spectra[rows[after], cols[after - 1]] - spectra[rows[after], cols[after]] <= margin
    short = np.flatnonzero((counts := np.bincount(rows, minlength=len(spectra))) < num_sources)
    left, taken, each = spectra[short], counts[rows] < num_sources, np.arange(short.size)
    left[np.searchsorted(short, rows[taken]), cols[taken]] = -np.inf
    largest, pads = np.empty((num_sources + 1, short.size)), num_sources - counts[short]
    for value in largest:  # the K + 1 largest other values of each short row, in turn
        value[:], left[each, at] = left[each, (at := left.argmax(axis=1))], -np.inf
    doubt[short] |= largest[pads - 1, each] - largest[pads, each] <= margin
    return pick_peak_rows(grid_deg, spectra, num_sources), doubt


def run_trials_chunked(
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
    variance = noise_variance(snr_db)
    projection_bytes = (geom.num_sensors - num_sources) * grid_deg.size * steering.itemsize
    chunk = max(1, CHUNK_BYTES // projection_bytes)
    mses = {tag: np.empty(trials, dtype=float) for tag in transforms}
    for lo in range(0, trials, chunk):
        ts = range(lo, min(lo + chunk, trials))
        truths, clean = synthesize_seeded([base_seed ^ t for t in ts], [variance] * len(ts), geom,
                                          num_sources, angle_range, min_sep, num_snapshots)
        for tag, transform in transforms.items():
            cov = sample_covariance(transform(clean))
            spectra = music_spectrum(cov, num_sources, steering)
            mses[tag][lo : ts.stop] = doa_mse(pick_peak_rows(grid_deg, spectra, num_sources), truths)
    return {tag: TrialResult(mses=m) for tag, m in mses.items()}
