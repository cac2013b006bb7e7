"""Uniform-linear-array snapshot synthesis.

Narrowband far-field model: each snapshot is a superposition of K
unit-modulus source phasors steered across the array plus circular
complex Gaussian noise,

    x(n) = sum_k s_k(n) a(theta_k) + e(n),

with a(theta)_m = exp(j 2 pi (d/lambda) m sin theta) for sensor index
m = 0..M-1.  Angles are degrees at every interface; radians appear only
inside the trig calls.  Snapshots are plain complex ndarrays, (M, N)
or a stack (..., M, N); the network reads a snapshot real-stacked: all
M real parts, then all M imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Whole-set angle tries one record makes before it gives up.
MAX_ANGLE_TRIES = 10_000

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier.
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, PCG64_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True)
class ArrayGeometry:
    """ULA with ``num_sensors`` elements spaced ``spacing`` wavelengths apart."""

    num_sensors: int
    spacing: float = 0.5

    def __post_init__(self) -> None:
        if self.num_sensors < 2:
            raise ValueError(f"num_sensors must be >= 2, got {self.num_sensors}")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing (d/lambda) must be finite and > 0, got {self.spacing}")


def noise_variance(snr_db: float) -> float:
    """Noise variance per complex sample (each real part carries half) at ``snr_db``.

    With unit-modulus sources the per-source per-sensor SNR is 1/sigma^2,
    so sigma^2 = 10**(-snr_db/10); ``snr_db = inf`` gives 0, noiseless.
    Keep this scalar: numpy's array power differs in the last bit for some SNRs.
    """
    return float(10.0 ** (-snr_db / 10.0))


def steering_matrix(thetas_deg: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Steering vectors column-wise: (M, K), or (..., M, K) for (..., K) angles.

    Element m of a(theta) equals exp(j 2 pi (d/lambda) m sin theta), so
    element 0 is exactly 1.  Rejects |theta| >= 90 because sin is
    ambiguous outside the front half-space.
    """
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=float))
    if thetas.size and not np.all(np.abs(thetas) < 90.0):
        raise ValueError("all angles must satisfy |theta| < 90 degrees")
    m = np.arange(geom.num_sensors)[:, None]
    phase = 2.0 * np.pi * geom.spacing * m * np.sin(np.deg2rad(thetas))[..., None, :]
    return np.exp(1j * phase)


def _angle_bounds(num_sources: int, angle_range: tuple[float, float], min_sep: float) -> tuple[float, float]:
    """``angle_range`` as floats, once it is known to hold K angles ``min_sep`` apart."""
    lo, hi = float(angle_range[0]), float(angle_range[1])
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    if hi <= lo:
        raise ValueError(f"empty angle range [{lo}, {hi}]")
    if not min_sep >= 0:
        raise ValueError(f"min_sep must be >= 0, got {min_sep}")
    if hi - lo < (num_sources - 1) * min_sep:
        raise ValueError(f"range [{lo}, {hi}] cannot hold {num_sources} angles separated by {min_sep} degrees")
    return lo, hi


def _draw_angles(
    rng: np.random.Generator, u: np.ndarray, num_sources: int, lo: float, hi: float, min_sep: float,
) -> list[float]:
    """Fill ``u`` with uniform doubles and accept its first K, sorted, as angles.

    A rejected try shifts ``u`` left by K and draws K more at its end, so the
    stream is consumed as by one ``rng.random(K)`` per try and then the rest of ``u``.
    """
    k, span = num_sources, hi - lo
    rng.random(out=u)
    for _ in range(MAX_ANGLE_TRIES):
        angles = sorted([lo + span * x for x in u[:k].tolist()])
        if all(b - a >= min_sep for a, b in zip(angles, angles[1:])):
            return angles
        u[:-k] = u[k:]
        rng.random(out=u[-k:])
    raise RuntimeError(f"angle rejection sampling failed after {MAX_ANGLE_TRIES} tries")


def too_close(angles: np.ndarray, min_sep: float) -> np.ndarray:
    """Which rows of sorted (n, K) angles have a neighbour gap that is not >= ``min_sep``, a NaN gap included."""
    return (~(np.diff(angles, axis=1) >= min_sep)).any(axis=1)


def draw_source_angles(
    num_sources: int, angle_range: tuple[float, float], min_sep: float, rng: np.random.Generator,
) -> np.ndarray:
    """Draw K i.i.d. uniform angles, rejection-resampled for separation.

    Resamples the whole set until every pairwise gap is at least
    ``min_sep`` degrees, then returns the angles sorted ascending.
    """
    lo, hi = _angle_bounds(num_sources, angle_range, min_sep)
    return np.array(_draw_angles(rng, np.empty(num_sources), num_sources, lo, hi, min_sep))


def synthesize(
    angles_deg: np.ndarray,
    geom: ArrayGeometry,
    variance: float,
    num_snapshots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """N snapshots (M, N) of K unit-modulus sources at ``angles_deg`` plus noise.

    Each s_k(n) has a uniform random phase; the noise is circular complex
    Gaussian with ``variance`` per entry, half per real part.  Draws the
    phases, then the real and imaginary noise when ``variance`` is > 0.
    """
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(np.size(angles_deg), num_snapshots))
    draws = None
    if variance > 0.0:
        shape = (geom.num_sensors, num_snapshots)
        draws = (rng.standard_normal(shape), rng.standard_normal(shape))
    return mix(steering_matrix(angles_deg, geom), np.exp(1j * phases), variance, draws)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash step on uint32 arrays, given its running constant before and after it advances."""
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def pcg64_states(seeds: list[int]) -> list[dict]:
    """``np.random.PCG64(seed).state`` for each seed, hashed as one block.

    Copies ``SeedSequence(seed).generate_state(4, uint64)`` (a seed below
    2**64 fills the pool as [low word, high word, 0, 0]) and PCG64's
    ``set_seed``.  Integer arithmetic only, so no BLAS kernel touches it.
    """
    if bad := [s for s in seeds if not isinstance(s, (int, np.integer)) or not 0 <= s < 2**64]:
        raise ValueError(f"seeds must be integers in [0, 2**64), got {bad[0]!r}")
    s = np.array(seeds, dtype=np.uint64)
    # The running constant of each hash call: 4 fill the pool and 12 mix it, then 8 draw from it.
    a = np.array([INIT_A * MULT_A**c % 2**32 for c in range(17)], dtype=np.uint32)
    b = np.array([INIT_B * MULT_B**c % 2**32 for c in range(9)], dtype=np.uint32)
    pool = _hashmix(np.stack([s & 0xFFFFFFFF, s >> 32, 0 * s, 0 * s]).astype(np.uint32), a[:4, None], a[1:5, None])
    for c, (i, j) in enumerate([(i, j) for i in range(4) for j in range(4) if i != j], start=4):
        mixed = np.uint32(MIX_MULT_L) * pool[j] - np.uint32(MIX_MULT_R) * _hashmix(pool[i], a[c], a[c + 1])
        pool[j] = mixed ^ (mixed >> np.uint32(16))
    words = _hashmix(pool[np.arange(8) % 4], b[:8, None], b[1:, None]).astype(np.uint64)
    # generate_state pairs the words little-endian: init high, init low, sequence high, sequence low.
    init_hi, init_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    incs = [((hi << 64 | lo) << 1 | 1) % 2**128 for hi, lo in zip(seq_hi, seq_lo)]
    return [{"bit_generator": "PCG64", "state": {"state": ((inc + (hi << 64 | lo)) * PCG64_MULT + inc) % 2**128,
             "inc": inc}, "has_uint32": 0, "uinteger": 0} for inc, hi, lo in zip(incs, init_hi, init_lo)]


def synthesize_seeded(
    seeds: list[int], noise_variances: list[float], geom: ArrayGeometry, num_sources: int,
    angle_range: tuple[float, float], min_sep: float, num_snapshots: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Angles (n, K) and snapshots (n, M, N); row i from ``default_rng(seeds[i])``.

    Each row draws what :func:`synthesize` draws, in the same order, from
    one block generator set to the row's :func:`pcg64_states` entry: one
    ``random`` for the angle tries and the source phases, and one
    ``standard_normal`` for the real then imaginary noise when its variance
    is > 0.  Argument checks, first angle tries, steering and mixing run once
    for the block.  A first state unlike numpy's own raises ``RuntimeError``.
    """
    if len(seeds) != len(noise_variances):
        raise ValueError(f"{len(seeds)} seeds but {len(noise_variances)} noise variances")
    lo, hi = _angle_bounds(num_sources, angle_range, min_sep)
    states = pcg64_states(seeds)
    rng = np.random.Generator(bits := np.random.PCG64(seeds[0] if len(seeds) else 0))
    if states and states[0] != bits.state:
        raise RuntimeError("numpy seeds PCG64 differently from pcg64_states")
    k, n = num_sources, len(seeds)
    u = np.empty((n, k + k * num_snapshots))
    draws = np.zeros((n, 2, geom.num_sensors, num_snapshots))
    for i, (state, variance) in enumerate(zip(states, noise_variances)):
        bits.state = state
        rng.random(out=u[i])
        if variance > 0.0:
            rng.standard_normal(out=draws[i])
    # Every row's first angle try at once; rows it rejects replay _draw_angles.
    angles = np.sort(u[:, :k] * (hi - lo) + lo, axis=1)
    for i in np.flatnonzero(too_close(angles, min_sep)).tolist():
        bits.state = states[i]
        angles[i] = _draw_angles(rng, u[i], k, lo, hi, min_sep)
        if noise_variances[i] > 0.0:
            rng.standard_normal(out=draws[i])
    # (2 pi) * u is uniform(0.0, 2 pi) bit for bit: numpy adds the low end, 0.0.
    phases = (2.0 * np.pi) * u[:, k:].reshape(n, k, num_snapshots)
    return angles, mix(steering_matrix(angles, geom), np.exp(1j * phases), noise_variances, draws.swapaxes(0, 1))


def mix(
    steering: np.ndarray, amps: np.ndarray, variance: np.ndarray | float,
    draws: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Snapshots A s + sqrt(var/2) (e_re + j e_im), stacked over leading axes.

    ``steering`` is (..., M, K), ``amps`` (..., K, N), ``variance``
    broadcasts to the leading axes and ``draws`` holds the standard normal
    real and imaginary parts, each (..., M, N).  Noise is added only where
    the variance is > 0, since adding a zero term turns -0.0 into +0.0.
    """
    data = steering @ amps
    var = np.broadcast_to(variance, data.shape[:-2])
    noisy = var > 0.0
    if noisy.any():
        re, im = draws
        scale = np.sqrt(var[noisy] / 2.0)[:, None, None]
        data[noisy] = data[noisy] + scale * (re[noisy] + 1j * im[noisy])
    return data


def to_real_batch(data: np.ndarray) -> np.ndarray:
    """Snapshot columns of an (..., M, N) stack as network rows: (..., N, 2M) with real parts first."""
    data = np.asarray(data)
    return np.concatenate([data.real.swapaxes(-1, -2), data.imag.swapaxes(-1, -2)], axis=-1)


def from_real_batch(batch: np.ndarray) -> np.ndarray:
    """Rebuild the complex (..., M, N) stack from (..., N, 2M) network rows."""
    batch = np.asarray(batch, dtype=float)
    if batch.ndim < 2 or batch.shape[-1] % 2 != 0:
        raise ValueError(f"expected (..., N, 2M) rows, got shape {batch.shape}")
    half = batch.shape[-1] // 2
    return (batch[..., :half] + 1j * batch[..., half:]).swapaxes(-1, -2)
