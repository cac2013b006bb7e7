"""B-bit rounding ADC applied separately to real and imaginary parts.

The quantizer saturates at the full-scale voltage V, then rounds to the
nearest level on the grid k*step for integer k, step = 2V/2^B.  That
grid has 2^B + 1 levels covering [-V, V]; exact half-step ties round
away from zero so the level set stays symmetric.  For in-range inputs
the error never exceeds step/2.  Snapshots are complex ndarrays of any
shape, (M, N) or a stack (..., M, N), and keep their shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .signal_model import noise_variance

# A_max of default_full_scale: every source is a unit-modulus phasor.
SOURCE_AMPLITUDE = 1.0
# ADC widths of eval-doa's raw series; config.validate() checks the step at each and at quantizer.bits.
RAW_SERIES_BITS = (1, 2, 3, 4)


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit depth and full-scale voltage; the step size is derived."""

    bits: int
    full_scale: float

    def __post_init__(self) -> None:
        if int(self.bits) != self.bits or self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits}")
        if not 0 < self.full_scale < np.inf:
            raise ValueError(f"full_scale must be finite and > 0, got {self.full_scale}")

    @property
    def step(self) -> float:
        return 2.0 * self.full_scale / (2.0 ** self.bits)


def quantize_real(values: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Saturating round-to-nearest on a real array; ties away from zero."""
    x = np.clip(np.asarray(values, dtype=float), -spec.full_scale, spec.full_scale)
    # np.round would tie to even; floor(|x|/step + 0.5) ties away from zero.
    k = np.floor(np.abs(x) / spec.step + 0.5)
    return np.sign(x) * k * spec.step


def quantize_complex(data: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """y(n) = x(n) + q(n): real and imaginary parts quantized independently."""
    data = np.asarray(data, dtype=complex)
    return quantize_real(data.real, spec) + 1j * quantize_real(data.imag, spec)


def clipping_rate(data: np.ndarray, spec: QuantizerSpec) -> float:
    """Fraction of real components of complex ``data`` beyond full scale (saturated)."""
    data = np.asarray(data)
    parts = np.concatenate([np.ravel(data.real), np.ravel(data.imag)])
    return float(np.mean(np.abs(parts) > spec.full_scale))


def default_full_scale(num_sources: int, snr_db: float | Iterable[float]) -> float:
    """Full scale covering the component range with negligible clipping.

    V = K*A_max + 4*sigma, where sigma is the worst-case (lowest SNR)
    per-real-component noise deviation.  A component's signal part is a
    sum of K unit phasors, so its magnitude never exceeds K*A_max; the
    4-sigma margin keeps the per-component clipping probability below
    1e-4.
    """
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    snrs = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if snrs.size == 0:
        raise ValueError("need at least one SNR value")
    worst_var = float(np.max([noise_variance(s) for s in snrs.tolist()]))
    sigma_component = np.sqrt(worst_var / 2.0)
    return num_sources * SOURCE_AMPLITUDE + 4.0 * sigma_component
