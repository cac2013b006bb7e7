"""Per-trial MUSIC reference: one covariance, spectrum and pick per call.

``estimate_doa`` scans a single snapshot matrix the way the package did
before trials were scanned in stacks; tests compare the stacked engine
in ``quantdoa.music.run_trials`` against it.  ``ranked_peaks`` is the
run-compression peak finder the package used before it looked only at
rise-then-fall candidates, kept verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantdoa.music import doa_mse, music_spectrum, pick_peaks, sample_covariance
from quantdoa.signal_model import ArrayGeometry, steering_matrix


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
