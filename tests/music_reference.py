"""Per-trial MUSIC reference: one covariance, spectrum and pick per call.

``estimate_doa`` scans a single snapshot matrix the way the package did
before trials were scanned in stacks; tests compare the stacked engine
in ``quantdoa.music.run_trials`` against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantdoa.music import doa_mse, music_spectrum, pick_peaks, sample_covariance
from quantdoa.signal_model import ArrayGeometry


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
    spectrum = music_spectrum(cov, num_sources, geom, grid_deg, steering=steering)
    angles = pick_peaks(grid_deg, spectrum, num_sources)
    mse = None if truth_deg is None else doa_mse(angles, truth_deg)
    return MusicResult(grid_deg=grid_deg, spectrum=spectrum, angles_deg=angles, mse=mse)
