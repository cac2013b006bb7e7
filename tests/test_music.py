import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantdoa import music, network
from quantdoa.config import DOMAIN_TRIALS, derived_seed, derived_seeds, desk_default
from quantdoa.experiments import DOA_SERIES, eval_doa, make_transform
from quantdoa.network import init_model
from quantdoa.music import (
    doa_mse,
    music_spectrum,
    noise_subspace,
    pick_peak_rows,
    pick_peaks,
    run_trials,
    sample_covariance,
    scan_grid,
)
from quantdoa.quantizer import QuantizerSpec, quantize_complex
from quantdoa.signal_model import ArrayGeometry, noise_variance, steering_matrix, synthesize

from music_reference import estimate_doa, ranked_peaks as ranked_peaks_runs, run_trials_chunked, vouched_picks
from music_reference import pick_peak_rows as pick_peak_rows_ref
from music_reference import music_spectrum as music_spectrum_cov

GEOM8 = ArrayGeometry(8)
GRID = scan_grid(-30.0, 30.0, 0.01)


def random_psd(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return a @ a.conj().T / m


def pick_peaks_loop(grid_deg, spectrum, num_sources):
    """The former loop implementation of `pick_peaks`, kept verbatim as the reference."""
    grid_deg = np.asarray(grid_deg, dtype=float)
    spectrum = np.asarray(spectrum, dtype=float)
    if grid_deg.shape != spectrum.shape or grid_deg.ndim != 1:
        raise ValueError("grid and spectrum must be matching 1-D arrays")
    if num_sources < 1 or num_sources > grid_deg.size:
        raise ValueError(f"cannot pick {num_sources} peaks from {grid_deg.size} points")

    # Compress plateaus to runs, then compare neighboring run values;
    # endpoint runs have only one neighbor and never count.
    change = np.flatnonzero(np.diff(spectrum) != 0.0)
    run_starts = np.concatenate([[0], change + 1])
    run_values = spectrum[run_starts]
    peaks = [
        int(run_starts[r])
        for r in range(1, run_values.size - 1)
        if run_values[r] > run_values[r - 1] and run_values[r] > run_values[r + 1]
    ]

    order = sorted(peaks, key=lambda i: (-spectrum[i], i))
    chosen = order[:num_sources]
    if len(chosen) < num_sources:
        taken = set(chosen)
        rest = sorted(
            (i for i in range(grid_deg.size) if i not in taken),
            key=lambda i: (-spectrum[i], i),
        )
        chosen.extend(rest[: num_sources - len(chosen)])
    return np.sort(grid_deg[np.array(chosen, dtype=int)])


def music_spectrum_2d(cov, num_sources, steering):
    """The former one-matrix arithmetic of subspace -> spectrum, verbatim."""
    m = cov.shape[0]
    _, vecs = np.linalg.eigh(cov)
    subspace = vecs[:, : m - num_sources]
    projection = subspace.conj().T @ steering
    power = np.sum(np.abs(projection) ** 2, axis=0)
    return 1.0 / (power + 1e-12)


def sample_covariance_2d(data):
    """The former one-matrix covariance arithmetic, verbatim."""
    cov = data @ data.conj().T / data.shape[1]
    return 0.5 * (cov + cov.conj().T)


class TestScanGrid:
    def test_inclusive_endpoints(self):
        g = scan_grid(-30, 30, 0.01)
        assert g[0] == -30.0
        assert g[-1] == pytest.approx(30.0)
        assert g.size == 6001

    def test_uniform_step(self):
        g = scan_grid(-5, 5, 0.5)
        np.testing.assert_allclose(np.diff(g), 0.5)

    def test_never_steps_past_hi(self):
        np.testing.assert_array_equal(scan_grid(0, 1, 0.35), [0.0, 0.35, 0.7])

    def test_desk_grid_values_unchanged(self):
        np.testing.assert_array_equal(scan_grid(-30.0, 30.0, 0.01), -30.0 + 0.01 * np.arange(6001))


class TestSampleCovariance:
    def test_single_ones_snapshot_hand_value(self):
        snap = np.ones((2, 1), dtype=complex)
        np.testing.assert_array_equal(sample_covariance(snap), np.ones((2, 2)))

    def test_hermitian_and_psd(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        cov = sample_covariance(data)
        np.testing.assert_allclose(cov, cov.conj().T, rtol=1e-12)
        eigvals = np.linalg.eigvalsh(cov)
        assert eigvals.min() >= -1e-10 * eigvals.max()

    def test_large_snapshot_limit(self):
        # law of large numbers: R -> a a^H + sigma^2 I elementwise within 5%
        rng = np.random.default_rng(3)
        theta, snr = 9.0, 20.0
        snap = synthesize(np.array([theta]), GEOM8, noise_variance(snr), 10_000, rng)
        cov = sample_covariance(snap)
        a = steering_matrix(theta, GEOM8)[:, 0]
        expected = np.outer(a, a.conj()) + 10 ** (-snr / 10) * np.eye(8)
        assert np.max(np.abs(cov - expected)) < 0.05

    def test_zero_snapshots_rejected(self):
        with pytest.raises(ValueError):
            sample_covariance(np.ones((3, 0), dtype=complex))


class TestNoiseSubspace:
    def test_identity_covariance_orthonormal_basis(self):
        e = noise_subspace(np.eye(4, dtype=complex), 1)
        assert e.shape == (4, 3)
        np.testing.assert_allclose(e.conj().T @ e, np.eye(3), atol=1e-10)

    def test_orthogonal_to_single_source(self):
        a = steering_matrix(-14.0, GEOM8)[:, 0]
        cov = np.outer(a, a.conj()) + 0.01 * np.eye(8)
        e = noise_subspace(cov, 1)
        assert np.linalg.norm(e.conj().T @ a) < 1e-6 * np.linalg.norm(a)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orthonormal_for_random_psd(self, seed):
        e = noise_subspace(random_psd(7, seed), 2)
        np.testing.assert_allclose(
            np.max(np.abs(e.conj().T @ e - np.eye(5))), 0.0, atol=1e-10
        )

    def test_rejects_too_many_sources(self):
        with pytest.raises(ValueError):
            noise_subspace(np.eye(4, dtype=complex), 4)

    def test_rejects_nonfinite(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            noise_subspace(bad, 1)


class TestMusicSpectrum:
    def test_peak_at_single_source(self):
        theta = 7.37
        a = steering_matrix(theta, GEOM8)[:, 0]
        cov = np.outer(a, a.conj()) + 1e-6 * np.eye(8)
        spectrum = music_spectrum(noise_subspace(cov, 1), steering_matrix(GRID, GEOM8))
        nearest = GRID[np.argmin(np.abs(GRID - theta))]
        assert GRID[np.argmax(spectrum)] == pytest.approx(nearest)

    def test_symmetric_sources_symmetric_spectrum(self):
        theta = 10.0
        a_pos = steering_matrix(theta, GEOM8)[:, 0]
        a_neg = steering_matrix(-theta, GEOM8)[:, 0]
        cov = np.outer(a_pos, a_pos.conj()) + np.outer(a_neg, a_neg.conj()) + 1e-4 * np.eye(8)
        grid = scan_grid(-20, 20, 0.05)
        spectrum = music_spectrum(noise_subspace(cov, 2), steering_matrix(grid, GEOM8))
        np.testing.assert_allclose(spectrum, spectrum[::-1], rtol=1e-6)

    def test_finite_and_positive_even_noiseless(self):
        a = steering_matrix(0.0, GEOM8)[:, 0]
        cov = np.outer(a, a.conj())  # exactly singular
        spectrum = music_spectrum(noise_subspace(cov, 1), steering_matrix(GRID, GEOM8))
        assert np.all(np.isfinite(spectrum))
        assert np.all(spectrum > 0)

    @given(
        trials=st.integers(1, 16),
        shape=st.sampled_from([(8, 3), (8, 7), (4, 3), (6, 1)]),  # (8, 7) and (4, 3): the one-row product
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_sub_stack_matches_the_whole_stack_bit_for_bit(self, trials, shape, seed, data):
        m, k = shape
        rng = np.random.default_rng(seed)
        snapshots = rng.standard_normal((trials, m, 5)) + 1j * rng.standard_normal((trials, m, 5))
        snapshots[trials // 2 :] = quantize_complex(snapshots[trials // 2 :], QuantizerSpec(1, 1.0))  # exact ties
        subspaces = noise_subspace(sample_covariance(snapshots), k)
        steering = steering_matrix(GRID, ArrayGeometry(m))
        whole = music_spectrum(subspaces, steering)
        keep = np.array(data.draw(st.lists(st.integers(0, trials - 1), unique=True), label="keep"), dtype=np.intp)
        for rows in (keep, np.sort(keep), np.arange(trials)):
            sub = music_spectrum(subspaces[rows], steering)
            assert sub.shape == (rows.size, GRID.size)
            assert sub.tobytes() == whole[rows].tobytes()


class TestStackedScan:
    def test_stack_matches_each_matrix_bit_for_bit(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((6, 8, 5)) + 1j * rng.standard_normal((6, 8, 5))
        # 1-bit observations give rank-deficient covariances with exact ties
        data[3:] = quantize_complex(data[3:], QuantizerSpec(1, 1.0))
        steering = steering_matrix(GRID, GEOM8)
        covs = sample_covariance(data)
        subspaces = noise_subspace(covs, 3)
        spectra = music_spectrum(subspaces, steering)
        assert covs.shape == (6, 8, 8) and spectra.shape == (6, GRID.size)
        for i in range(data.shape[0]):
            # a denoised matrix arrives column-major; its scan must not differ
            for single in (data[i], np.asfortranarray(data[i])):
                cov = sample_covariance(single)
                np.testing.assert_array_equal(covs[i], cov)
                np.testing.assert_array_equal(covs[i], sample_covariance_2d(single))
                np.testing.assert_array_equal(subspaces[i], noise_subspace(cov, 3))
                np.testing.assert_array_equal(spectra[i], music_spectrum(noise_subspace(cov, 3), steering))
                np.testing.assert_array_equal(spectra[i], music_spectrum_2d(cov, 3, steering))

    @pytest.mark.parametrize("m, k", [(8, 7), (4, 3), (8, 6), (8, 3), (6, 1)])
    def test_flat_gemm_matches_each_matrix_bit_for_bit(self, m, k):
        # M - K = 1 takes numpy's one-row product (gemv); M - K >= 2 a gemm per matrix
        rng = np.random.default_rng(m * 10 + k)
        geom = ArrayGeometry(m)
        data = rng.standard_normal((9, m, 5)) + 1j * rng.standard_normal((9, m, 5))
        data[5:] = quantize_complex(data[5:], QuantizerSpec(1, 1.0))
        steering = steering_matrix(GRID, geom)
        covs = sample_covariance(data)
        spectra = music_spectrum(noise_subspace(covs, k), steering)
        for cov, spectrum in zip(covs, spectra):
            np.testing.assert_array_equal(spectrum, music_spectrum_2d(cov, k, steering))

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="square"):
            noise_subspace(np.ones((2, 4, 3), dtype=complex), 1)
        bad = np.stack([np.eye(4, dtype=complex)] * 2)
        bad[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            noise_subspace(bad, 1)


class TestRowSpectrum:
    """``music_spectrum`` on noise subspaces against the covariance-in spectrum it replaced."""

    @staticmethod
    def _covs(m, seed, count=9):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((count, m, 5)) + 1j * rng.standard_normal((count, m, 5))
        # 1-bit observations give rank-deficient covariances with exact ties
        data[count // 2 :] = quantize_complex(data[count // 2 :], QuantizerSpec(1, 1.0))
        return data, sample_covariance(data)

    # M - K = 1 takes the one-row product; (8, 3) is the desk shape.  The reference scans each matrix
    # alone: its one GEMM over a stack's rows rounds a row by its place in the stack under some kernels.
    @pytest.mark.parametrize("m, k", [(8, 3), (8, 7), (4, 3), (8, 6), (6, 1), (8, 1)])
    def test_stack_matches_reference_bit_for_bit(self, m, k):
        _, covs = self._covs(m, 100 + m * 10 + k)
        steering = steering_matrix(GRID, ArrayGeometry(m))
        spectra = music_spectrum(noise_subspace(covs, k), steering)
        for cov, spectrum in zip(covs, spectra):
            np.testing.assert_array_equal(spectrum, music_spectrum_cov(cov, k, steering))

    @pytest.mark.parametrize("m, k", [(8, 3), (8, 7), (6, 2)])
    def test_one_matrix_and_fortran_order_match_reference(self, m, k):
        data, covs = self._covs(m, 200 + m * 10 + k)
        steering = steering_matrix(GRID, ArrayGeometry(m))
        for single, cov in zip(data, covs):
            expected = music_spectrum_cov(cov, k, steering)
            subspace = noise_subspace(cov, k)
            fortran = noise_subspace(sample_covariance(np.asfortranarray(single)), k)
            for basis in (subspace, np.asfortranarray(subspace), np.ascontiguousarray(subspace), fortran):
                np.testing.assert_array_equal(music_spectrum(basis, steering), expected)

    def test_chunks_of_a_block_subspace_match_reference(self):
        # run_trials scans slices of one block-wide eigh output
        _, covs = self._covs(8, 31, count=13)
        steering = steering_matrix(GRID, GEOM8)
        subspaces = noise_subspace(covs, 3)
        for lo in range(0, 13, 4):
            for cov, spectrum in zip(covs[lo : lo + 4], music_spectrum(subspaces[lo : lo + 4], steering)):
                np.testing.assert_array_equal(spectrum, music_spectrum_cov(cov, 3, steering))


class TestPickPeaks:
    def test_unimodal_argmax(self):
        grid = np.arange(5.0)
        spectrum = np.array([0.1, 0.5, 2.0, 0.4, 0.2])
        np.testing.assert_array_equal(pick_peaks(grid, spectrum, 1), [2.0])

    def test_equal_peaks_leftmost_wins(self):
        grid = np.arange(7.0)
        spectrum = np.array([0.0, 3.0, 0.0, 1.0, 0.0, 3.0, 0.0])
        np.testing.assert_array_equal(pick_peaks(grid, spectrum, 1), [1.0])

    def test_plateau_counts_once_leftmost(self):
        grid = np.arange(6.0)
        spectrum = np.array([0.0, 2.0, 2.0, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(pick_peaks(grid, spectrum, 1), [1.0])

    def test_fallback_fills_with_largest_values(self):
        grid = np.arange(5.0)
        spectrum = np.array([1.0, 2.0, 3.0, 4.0, 5.0])  # monotone: no interior peak
        np.testing.assert_array_equal(pick_peaks(grid, spectrum, 2), [3.0, 4.0])

    def test_sorted_output(self):
        grid = np.arange(9.0)
        spectrum = np.array([0, 5, 0, 9, 0, 7, 0, 6, 0], dtype=float)
        # three largest of the four local maxima (9, 7, 6), sorted by angle
        np.testing.assert_array_equal(pick_peaks(grid, spectrum, 3), [3.0, 5.0, 7.0])

    def test_too_many_peaks_requested_rejected(self):
        with pytest.raises(ValueError):
            pick_peaks(np.arange(3.0), np.ones(3), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            pick_peaks(np.arange(3.0), np.array([1.0, bad, 2.0]), 1)

    @given(
        values=st.lists(
            st.one_of(
                st.integers(0, 4).map(float),  # a small alphabet: plateaus and exact ties
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        data=st.data(),
    )
    @example(values=[5.0, 1.0, 1.0, 4.0], data=None)  # endpoint maxima only
    @example(values=[2.0, 2.0, 2.0], data=None)  # one flat run
    @example(values=[1.0, 3.0, 3.0, 1.0, 3.0, 1.0, 0.0], data=None)  # tie, plateau, too few peaks
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_reference(self, values, data):
        spectrum = np.array(values)
        grid = -30.0 + 0.5 * np.arange(spectrum.size)
        ks = range(1, spectrum.size + 1) if data is None else [
            data.draw(st.integers(1, spectrum.size), label="num_sources")
        ]
        for k in ks:
            np.testing.assert_array_equal(
                pick_peaks(grid, spectrum, k), pick_peaks_loop(grid, spectrum, k)
            )


SPECTRUM_VALUE = st.one_of(
    st.integers(0, 4).map(float),  # a small alphabet: plateaus and exact ties
    st.floats(-1e6, 1e6, allow_nan=False),
)

# Values whose differences hit each doubt margin exactly, beside ties, plateaus and wide floats.
MARGIN_VALUE = st.one_of(SPECTRUM_VALUE, st.sampled_from([1e-4, 0.05, 0.5, 2.0]))


class TestPickPeakRows:
    @given(
        rows=st.integers(1, 40).flatmap(
            lambda g: st.lists(st.lists(SPECTRUM_VALUE, min_size=g, max_size=g), min_size=1, max_size=6)
        ),
        data=st.data(),
    )
    @example(rows=[[5.0, 1.0, 1.0, 4.0], [2.0, 2.0, 2.0, 2.0]], data=None)  # endpoint maxima, one flat run
    @example(rows=[[1.0, 3.0, 3.0, 1.0, 3.0, 1.0, 0.0], [0, 5, 0, 9, 0, 7, 0]], data=None)
    @example(rows=[[1.0, 2.0, 1.0, 2.0, 1.0], [3.0, 3.0, 1.0, 3.0, 3.0]], data=None)  # tied peaks
    @example(rows=[[7.0]], data=None)
    @settings(max_examples=300, deadline=None)
    def test_stack_matches_loop_reference_row_by_row(self, rows, data):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        ks = range(1, grid.size + 1) if data is None else [
            data.draw(st.integers(1, grid.size), label="num_sources")
        ]
        for k in ks:
            picks = pick_peak_rows(grid, spectra, k)[0]
            for row, pick in zip(spectra, picks):
                np.testing.assert_array_equal(pick, pick_peaks_loop(grid, row, k))

    def test_rejects_more_picks_than_points(self):
        with pytest.raises(ValueError, match="cannot pick"):
            pick_peak_rows(np.arange(3.0), np.ones((2, 3)), 4)


def peak_stacks():
    """(T, G) stacks with G of 1 to 3 as often as wider ones; T·G may be below 3."""
    return st.one_of(st.integers(1, 3), st.integers(4, 30)).flatmap(
        lambda g: st.lists(st.lists(SPECTRUM_VALUE, min_size=g, max_size=g), min_size=1, max_size=6)
    )


class TestPeakFinder:
    """The candidate finder against the run-compression reference it replaced."""

    @given(rows=peak_stacks(), data=st.data())
    @example(rows=[[0.0, 1.0, 5.0], [0.0, 2.0, 0.0]], data=None)  # a row ends high, the next starts low
    @example(rows=[[5.0, 1.0, 0.0], [9.0, 2.0, 0.0]], data=None)  # a row ends low, the next starts high
    @example(rows=[[0.0, 2.0, 2.0, 2.0], [1.0, 0.0, 1.0, 0.0]], data=None)  # plateau into the last column
    @example(rows=[[0.0, 2.0, 2.0], [2.0, 2.0, 0.0]], data=None)  # a plateau continued across the seam
    @example(rows=[[0.0, 2.0, 2.0, 1.0, 3.0, 1.0], [1.0, 3.0, 1.0, 3.0, 1.0, 0.0]], data=None)  # plateau, ties
    @example(rows=[[7.0]], data=None)
    @example(rows=[[1.0, 2.0]], data=None)
    @example(rows=[[1.0], [2.0]], data=None)
    @example(rows=[[1.0, 2.0, 1.0]], data=None)
    @example(rows=[[0.0, 2.0, 2.0]], data=None)  # a plateau that runs to the end of the last row
    @example(rows=[[0.0, 2.0, 2.0, 3.0, 1.0]], data=None)  # a plateau whose run ends in a rise
    @example(rows=[[1.0, 3.0, 1.0], [0.0, 2.0, 2.0]], data=None)  # the last row ends on a plateau
    @settings(max_examples=400, deadline=None)
    def test_matches_run_compression_row_by_row(self, rows, data):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        got, want = music.ranked_peaks(spectra), ranked_peaks_runs(spectra)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        for r, row in enumerate(spectra):
            np.testing.assert_array_equal(got[1][got[0] == r], ranked_peaks_runs(row[None])[1])
        ks = range(1, grid.size + 1) if data is None else [
            data.draw(st.integers(1, grid.size), label="num_sources")
        ]
        for k in ks:
            picks = pick_peak_rows(grid, spectra, k)[0]
            for row, pick in zip(spectra, picks):
                np.testing.assert_array_equal(pick, pick_peaks_loop(grid, row, k))
                np.testing.assert_array_equal(pick_peaks(grid, row, k), pick_peaks_loop(grid, row, k))

    @given(rows=peak_stacks(), data=st.data())
    @example(rows=[[0.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0]], data=None)
    @settings(max_examples=200, deadline=None)
    def test_pads_through_pick_peaks_once_per_short_row(self, rows, data):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        ks = range(1, grid.size + 1) if data is None else [
            data.draw(st.integers(1, grid.size), label="num_sources")
        ]
        for k in ks:
            counts = np.bincount(ranked_peaks_runs(spectra)[0], minlength=len(spectra))
            short = sorted(row.tobytes() for row, n in zip(spectra, counts) if n < k)
            padded = []

            def recording(grid_deg, spectrum, num_sources, ranked=None):
                padded.append(np.asarray(spectrum).tobytes())
                # the block's ranking of this row, cut out for it rather than ranked again
                np.testing.assert_array_equal(ranked, ranked_peaks_runs(np.asarray(spectrum)[None])[1])
                return pick_peaks(grid_deg, spectrum, num_sources, ranked=ranked)

            with mock.patch.object(music, "pick_peaks", recording):
                pick_peak_rows(grid, spectra, k)
            assert sorted(padded) == short

    @given(rows=peak_stacks(), data=st.data())
    @example(rows=[[0.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0]], data=None)
    @example(rows=[[1.0, 3.0, 1.0], [0.0, 2.0, 2.0]], data=None)  # a row ends on a plateau, the next starts low
    @settings(max_examples=200, deadline=None)
    def test_any_subset_of_rows_picks_as_the_whole_stack(self, rows, data):
        # run_trials re-picks only a chunk's doubted rows, so a row's picks and gap may not depend on the others
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        subsets = [[r] for r in range(len(spectra))] + [list(range(1, len(spectra))), list(range(0, len(spectra), 2))]
        if data is not None:
            subsets.append(data.draw(st.lists(st.integers(0, len(spectra) - 1), unique=True), label="subset"))
        for k in range(1, grid.size + 1):
            angles, gaps = pick_peak_rows(grid, spectra, k)
            for subset in subsets:
                sub_angles, sub_gaps = pick_peak_rows(grid, spectra[subset], k)
                assert sub_angles.tobytes() == angles[subset].tobytes(), (k, subset)
                assert sub_gaps.tobytes() == gaps[subset].tobytes(), (k, subset)

    @given(rows=peak_stacks())
    @example(rows=[[0.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0]])
    @settings(max_examples=200, deadline=None)
    def test_a_given_ranking_picks_as_ranking_again(self, rows):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        for row in spectra:
            ranked = music.ranked_peaks(row[None])[1]
            for k in range(1, grid.size + 1):
                assert pick_peaks(grid, row, k, ranked=ranked).tobytes() == pick_peaks(grid, row, k).tobytes(), k

    @given(rows=peak_stacks())
    @example(rows=[[0.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.0, 2.0], [0.0, 1.0, 0.0, 1.0]])
    @example(rows=[[1.0, 3.0, 1.0], [0.0, 0.0, 0.0]])  # K = G leaves no other value
    @settings(max_examples=200, deadline=None)
    def test_picks_columns_on_the_column_grid_and_gaps_ignore_the_grid(self, rows):
        # pick_peak_rows pads short rows by pick_peaks on the columns 0 ... G-1, and reads its gaps off them
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        columns = np.arange(float(grid.size))
        for k in range(1, grid.size + 1):
            angles, gaps = pick_peak_rows(grid, spectra, k)
            picked, column_gaps = pick_peak_rows(columns, spectra, k)
            assert np.array_equal(picked, np.round(picked))
            np.testing.assert_array_equal(grid[picked.astype(int)], angles)
            tied_gaps = pick_peak_rows(np.zeros(grid.size), spectra, k)[1]
            assert column_gaps.tobytes() == gaps.tobytes() == tied_gaps.tobytes(), k


def gemm_denominators(subspaces, steering):
    """||E^H a||^2 through the complex projection, as ``music_spectrum`` forms it before 1 / (d + reg)."""
    return np.sum(np.abs(subspaces.conj().swapaxes(-1, -2) @ steering) ** 2, axis=-2)


def polynomial_denominators(subspaces, steering):
    """||E^H a||^2 as ``run_trials`` evaluates it: the weights on the rows Re a_0 ... Re a_(M-1), Im a_1 ... Im a_(M-1)."""
    return music.polynomial_weights(subspaces) @ np.concatenate([steering.real, steering.imag[1:]])


class RescanLog:
    """Spies on ``run_trials``: the trials each polynomial-pass chunk doubts, and the noise bases each rescan gets.

    A doubted trial is named by its row in its series' block, the ``noise_subspace`` output its chunk was cut
    from.  ``bound`` stands in for ``music.denominator_bound``.
    """

    def __init__(self, monkeypatch, bound=None):
        self.doubted, self.rescans = [], []  # (block, rows) per chunk; (block, bases) per rescan
        block, offset, margin, rescanning = None, 0, None, False
        subspace, picker, spectrum = music.noise_subspace, music.pick_peak_rows, music.music_spectrum
        bound = bound or music.denominator_bound

        def noise_subspace_(cov, num_sources):
            nonlocal block, offset
            block, offset = subspace(cov, num_sources), 0
            return block

        def denominator_bound_(*args):
            nonlocal margin
            b = bound(*args)
            margin = 2 * b  # a row is in doubt when its gap is at most 2B
            return b

        def pick_peak_rows_(grid_deg, spectra, num_sources):
            nonlocal offset, rescanning
            picks, gaps = picker(grid_deg, spectra, num_sources)
            if not rescanning:  # a chunk of the polynomial pass
                self.doubted.append((block, offset + np.flatnonzero(gaps <= margin)))
                offset += len(spectra)
            rescanning = False
            return picks, gaps

        def music_spectrum_(subspaces, steering):
            nonlocal rescanning
            rescanning = True
            self.rescans.append((block, subspaces.copy()))
            return spectrum(subspaces, steering)

        for name, fn in [("noise_subspace", noise_subspace_), ("denominator_bound", denominator_bound_),
                         ("pick_peak_rows", pick_peak_rows_), ("music_spectrum", music_spectrum_)]:
            monkeypatch.setattr(music, name, fn)

    def each_rescan_is_one_chunks_doubted_trials(self) -> bool:
        """Rescans, in order, get the bases of exactly the doubted trials of each chunk that has any: none twice."""
        doubted = [(block, rows) for block, rows in self.doubted if rows.size]
        return len(doubted) == len(self.rescans) and all(
            at is block and np.array_equal(bases, block[rows]) for (block, rows), (at, bases) in zip(doubted, self.rescans))


class TestVouchedPicks:
    """The polynomial spectrum, its rounding bound and the doubt rules of ``pick_peak_rows``'s gaps."""

    MARGIN = 0.01

    # One row per rule, with its deciding gap `gap`: the value at the first of the last two indices
    # minus the value at the second.  Every other gap is at least 0.5.
    @staticmethod
    def _rule_row(rule, gap):
        return {
            "adjacent": (2, [0.0, 5.0, 1.0, 4.0, 1.5, 1.5 + gap, 3.0, 2.0, 0.0], [1, 3], (5, 4)),
            "rank": (2, [0.0, 5.0, 1.0, 4.0, 1.5, 3.0, 2.0, 4.0 - gap, 0.0], [1, 3], (3, 7)),
            "padding": (2, [7.0 - gap, 9.0, 7.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0], [1, 2], (2, 0)),
            "padding, K + 1 points": (2, [1.0 + gap, 3.0, 1.0], [1, 0], (0, 2)),
        }[rule]

    @pytest.mark.parametrize("rule", ["adjacent", "rank", "padding", "padding, K + 1 points"])
    @pytest.mark.parametrize("factor, doubted", [(0.5, True), (2.0, False)])
    def test_each_rule_doubts_inside_the_margin(self, rule, factor, doubted):
        k, row, chosen, (hi, lo) = self._rule_row(rule, factor * self.MARGIN)
        spectra = np.array([row])
        grid = -4.0 + np.arange(spectra.shape[1])
        picks, gaps = pick_peak_rows(grid, spectra, k)
        assert gaps.tolist() == [spectra[0, hi] - spectra[0, lo]]
        assert (gaps <= self.MARGIN).tolist() == [doubted]
        np.testing.assert_array_equal(picks, pick_peak_rows_ref(grid, spectra, k))
        np.testing.assert_array_equal(picks[0], np.sort(grid[chosen]))

    @pytest.mark.parametrize("k, doubted", [(1, True), (2, False)])
    def test_exact_mirror_twins(self, k, doubted):
        # two tied peaks decide the first pick, but not a pick of both
        spectra = np.array([[0.0, 5.0, 1.0, 3.0, 1.0, 5.0, 0.0]])
        grid = np.arange(-3.0, 4.0)
        picks, gaps = pick_peak_rows(grid, spectra, k)
        assert (gaps <= self.MARGIN).tolist() == [doubted]
        np.testing.assert_array_equal(picks, pick_peak_rows_ref(grid, spectra, k))

    @pytest.mark.parametrize("row", [[3.0], [1.0, 2.0], [2.0, 1.0, 1.5]])
    def test_grid_of_exactly_k_points_is_vouched(self, row):
        spectra = np.array([row])
        grid = np.arange(float(len(row)))
        picks, gaps = pick_peak_rows(grid, spectra, len(row))
        assert not (gaps <= self.MARGIN).any()
        np.testing.assert_array_equal(picks[0], grid)

    @given(rows=peak_stacks(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_vouched_rows_keep_their_picks_within_half_the_margin(self, rows, data):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        k = data.draw(st.integers(1, grid.size), label="num_sources")
        margin = data.draw(st.sampled_from([0.0, 0.05, 0.5, 2.0]), label="margin")
        picks, gaps = pick_peak_rows(grid, spectra, k)
        doubt = gaps <= margin
        np.testing.assert_array_equal(picks, pick_peak_rows_ref(grid, spectra, k))
        shift = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        moved = spectra + shift.uniform(-0.49, 0.49, spectra.shape) * margin
        np.testing.assert_array_equal(pick_peak_rows(grid, moved, k)[0][~doubt], picks[~doubt])

    @given(
        rows=st.integers(1, 40).flatmap(
            lambda g: st.lists(st.lists(MARGIN_VALUE, min_size=g, max_size=g), min_size=1, max_size=6)
        ),
        data=st.data(),
    )
    @example(rows=[[0.0, 2.0, 2.0, 1.0, 1e-4, 0.0], [2.0, 0.5, 2.0, 0.05, 0.0, 0.05]], data=None)
    @example(rows=[[1.0, 3.0, 1.0], [0.0, 0.0, 0.0]], data=None)  # K = G: the (K-p+1)-th other value is missing
    @settings(max_examples=300, deadline=None)
    def test_gaps_match_the_two_pass_reference(self, rows, data):
        spectra = np.array(rows, dtype=float)
        grid = -30.0 + 0.5 * np.arange(spectra.shape[1])
        ks = range(1, grid.size + 1) if data is None else [
            data.draw(st.integers(1, grid.size), label="num_sources")
        ]
        for k in ks:
            picks, gaps = pick_peak_rows(grid, spectra, k)
            for margin in (0.0, 1e-4, 0.05, 0.5, 2.0):
                want_picks, want_doubt = vouched_picks(grid, spectra, k, margin)
                np.testing.assert_array_equal(picks, want_picks)
                np.testing.assert_array_equal(gaps <= margin, want_doubt, err_msg=str((k, margin)))

    SWEEP_GRID = np.concatenate([[-89.0], scan_grid(-30.0, 30.0, 0.01), [89.0]])
    SWEEP_SHAPES = [(m, k) for m in (2, 3, 8, 16) for k in sorted({1, m // 2, m - 1})]

    @staticmethod
    def _sweep(m, k, spacing, trials=4):
        """Noise subspaces of every sweep scenario of one array shape and spacing, and its steering matrix."""
        geom = ArrayGeometry(m, spacing)
        spec = desk_default().quantizer_spec
        subspaces = []
        for snr in (np.inf, 50.0, 10.0):
            seeds = [1000 * m + 100 * k + t for t in range(trials)]
            _, clean = music.synthesize_seeded(seeds, [noise_variance(snr)] * trials, geom, k, (-30.0, 30.0), 1.0, 5)
            for tag in ("unquantized", "raw-1bit", "raw-2bit"):
                subspaces.append(noise_subspace(sample_covariance(make_transform(tag, spec)(clean)), k))
        grid = TestVouchedPicks.SWEEP_GRID
        phase = 2 * np.pi * spacing * (m - 1) * np.abs(np.sin(np.deg2rad(grid))).max()
        return np.concatenate(subspaces), steering_matrix(grid, geom), phase

    @staticmethod
    def _gap(subspaces, steering):
        return np.abs(polynomial_denominators(subspaces, steering) - gemm_denominators(subspaces, steering)).max()

    @pytest.mark.parametrize("spacing", [0.5, 2.0, 100.0, 1e4])
    def test_gap_is_within_an_eighth_of_the_bound_and_vouched_picks_hold(self, spacing):
        grid = self.SWEEP_GRID
        for m, k in self.SWEEP_SHAPES:
            subspaces, steering, phase = self._sweep(m, k, spacing)
            bound = music.denominator_bound(m, k, phase)
            gap = self._gap(subspaces, steering)
            assert gap <= bound / 8, (m, k, gap, bound)
            picks, gaps = pick_peak_rows(grid, -polynomial_denominators(subspaces, steering), k)
            doubt = gaps <= 2 * bound
            exact = pick_peak_rows(grid, music_spectrum(subspaces, steering), k)[0]
            np.testing.assert_array_equal(picks[~doubt], exact[~doubt], err_msg=str((m, k)))

    @pytest.mark.parametrize("spacing", [100.0, 1e4])
    def test_bound_without_its_phase_term_fails(self, spacing):
        # For M <= 3 the phases 0, 1 and 2 times the first are exact (doubling rounds
        # exactly), so only longer arrays carry the steering phase error.
        for m, k in self.SWEEP_SHAPES:
            if m >= 8:
                subspaces, steering, _ = self._sweep(m, k, spacing)
                assert self._gap(subspaces, steering) > music.denominator_bound(m, k, 0.0) / 8, (m, k)

    def test_unbounded_doubt_takes_the_gemm_route_with_the_same_mses(self, monkeypatch):
        cfg = desk_default()
        cfg.music.trials = 40
        model = init_model([16, 32, 32, 32, 16], rng=np.random.default_rng(7))
        vouched = RescanLog(monkeypatch)
        default = eval_doa(model, cfg)[1]
        monkeypatch.undo()
        unbounded = RescanLog(monkeypatch, bound=lambda *args: np.inf)
        gemm = eval_doa(model, cfg)[1]
        # with B = inf every row of every chunk is rescanned, once; by default most are vouched for
        rescans = [len(bases) for _, bases in unbounded.rescans]
        assert len(vouched.rescans) < len(rescans) and sum(rescans) == len(DOA_SERIES) * len(cfg.snr_db) * 40
        assert vouched.each_rescan_is_one_chunks_doubted_trials() and unbounded.each_rescan_is_one_chunks_doubted_trials()
        every = np.concatenate([rows for _, rows in unbounded.doubted])
        assert every.tolist() == list(range(40)) * len(DOA_SERIES) * len(cfg.snr_db)
        assert list(gemm) == list(default)
        for key in default:
            np.testing.assert_array_equal(gemm[key].mses, default[key].mses, err_msg=str(key))


class TestDoaMse:
    def test_identical_lists_zero(self):
        assert doa_mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_pair(self):
        assert doa_mse([1.0], [0.0]) == 1.0

    def test_rank_pairing_hand_example(self):
        # sorted pairing: (-9 vs -10) and (11 vs 10) -> (1 + 1)/2 = 1
        assert doa_mse([11.0, -9.0], [-10.0, 10.0]) == pytest.approx(1.0)

    @given(
        angles=st.lists(st.floats(-30, 30), min_size=1, max_size=5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, angles, seed):
        rng = np.random.default_rng(seed)
        est = rng.uniform(-30, 30, len(angles))
        shuffled = rng.permutation(est)
        assert doa_mse(est, angles) == doa_mse(shuffled, angles)

    def test_stack_matches_each_trial_bit_for_bit(self):
        rng = np.random.default_rng(4)
        est, truth = rng.uniform(-30, 30, (50, 3)), rng.uniform(-30, 30, (50, 3))
        mses = doa_mse(est, truth)
        for e, t, mse in zip(est, truth, mses):
            # the former one-trial arithmetic, verbatim
            assert mse == float(np.mean((np.sort(e.ravel()) - np.sort(t.ravel())) ** 2))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            doa_mse([1.0, 2.0], [1.0])

    @given(
        est=st.lists(st.floats(-30, 30), min_size=1, max_size=5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_rank_pairing_is_optimal(self, est, seed):
        truth = np.random.default_rng(seed).uniform(-30, 30, len(est))
        best = min(
            np.mean((np.array(perm) - np.sort(truth)) ** 2)
            for perm in itertools.permutations(est)
        )
        assert doa_mse(est, truth) <= best + 1e-9


class TestEndToEnd:
    def test_noiseless_single_source_within_grid_step(self):
        rng = np.random.default_rng(0)
        truth = np.array([-13.17])
        snap = synthesize(truth, GEOM8, noise_variance(np.inf), 5, rng)
        result = estimate_doa(snap, 1, GEOM8, GRID, truth_deg=truth)
        assert abs(result.angles_deg[0] - (-13.17)) <= 0.01

    def test_high_resolution_quantization_matches_unquantized(self):
        rng = np.random.default_rng(1)
        snap = synthesize(np.array([-20.0, 5.0]), GEOM8, noise_variance(30.0), 5, rng)
        spec = QuantizerSpec(16, float(np.max(np.abs(snap.view(np.float64)))))
        quantized = quantize_complex(snap, spec)
        r_clean = estimate_doa(snap, 2, GEOM8, GRID)
        r_quant = estimate_doa(quantized, 2, GEOM8, GRID)
        np.testing.assert_array_equal(r_clean.angles_deg, r_quant.angles_deg)


class TestRunTrials:
    def _common(self):
        return dict(
            geom=GEOM8,
            num_sources=3,
            angle_range=(-30.0, 30.0),
            min_sep=4.0,
            num_snapshots=5,
            grid_deg=GRID,
            seeds=derived_seeds(999, 0, 60),  # domain 0 keeps 999 as the base seed
        )

    def test_identity_high_snr_below_grid_step_squared(self):
        # two well-separated sources at high SNR: near-exact recovery
        kw = self._common()
        kw.update(num_sources=2, min_sep=10.0)
        result = run_trials(snr_db=50.0, transforms={"id": lambda d: d}, **kw)["id"]
        assert result.mean < 0.01**2

    def test_fixed_seed_reproducible(self):
        r1 = run_trials(snr_db=30.0, transforms={"id": lambda d: d}, **self._common())["id"]
        r2 = run_trials(snr_db=30.0, transforms={"id": lambda d: d}, **self._common())["id"]
        np.testing.assert_array_equal(r1.mses, r2.mses)

    @pytest.mark.parametrize("budget", [1, 10**12])
    def test_chunk_size_does_not_change_results(self, budget, monkeypatch):
        kw = self._common()
        transforms = {
            "id": lambda d: d,
            "1bit": lambda d: quantize_complex(d, QuantizerSpec(1, 3.1)),
        }
        default = run_trials(snr_db=30.0, transforms=transforms, **kw)
        stacks = []

        def recording(data, *args):
            stacks.append(data.shape[0])
            return sample_covariance(data, *args)

        monkeypatch.setattr(music, "CHUNK_BYTES", budget)
        monkeypatch.setattr(music, "sample_covariance", recording)
        chunked = run_trials(snr_db=30.0, transforms=transforms, **kw)
        assert set(stacks) == ({1} if budget == 1 else {len(kw["seeds"])})
        for tag in transforms:
            np.testing.assert_array_equal(default[tag].mses, chunked[tag].mses)

    def test_more_bits_no_worse(self):
        kw = self._common()
        full_scale = 3.1
        results = run_trials(
            snr_db=30.0,
            transforms={
                "q1": lambda d: quantize_complex(d, QuantizerSpec(1, full_scale)),
                "q4": lambda d: quantize_complex(d, QuantizerSpec(4, full_scale)),
            },
            **kw,
        )
        q1, q4 = results["q1"], results["q4"]
        assert q4.mean <= q1.mean

    def test_summary_statistics(self):
        result = run_trials(snr_db=50.0, transforms={"id": lambda d: d}, **self._common())["id"]
        assert np.median(result.mses) <= result.mean + 1e-12
        assert result.stderr >= 0.0


class TestSnrBlocks:
    """``run_trials`` against the chunk-at-a-time engine it replaced, at the desk shape."""

    @staticmethod
    def _desk(trials=13, transforms=None):
        cfg = desk_default()
        if transforms is None:
            model = init_model([16, 32, 32, 32, 16], rng=np.random.default_rng(7))
            transforms = {tag: make_transform(tag, cfg.quantizer_spec, model) for tag in DOA_SERIES}
        return dict(
            geom=cfg.geometry(),
            num_sources=cfg.sources.count,
            angle_range=cfg.angle_range(),
            min_sep=cfg.eval_min_sep(),
            num_snapshots=cfg.music.num_snapshots,
            grid_deg=scan_grid(cfg.music.grid_min, cfg.music.grid_max, cfg.music.grid_step),
            transforms=transforms,
            seeds=derived_seeds(cfg.seed, DOMAIN_TRIALS, trials),
        )

    # 13 trials leave a partial last chunk at both 4 (the old engine) and 8 trials.
    @pytest.mark.parametrize("budget", [1, music.CHUNK_BYTES, 10**12])
    @pytest.mark.parametrize("snr_db", [10.0, 50.0])
    def test_matches_chunked_reference_bit_for_bit(self, budget, snr_db, monkeypatch):
        kw = self._desk()
        seeds = kw.pop("seeds")
        base_seed = derived_seed(desk_default().seed, DOMAIN_TRIALS)
        expected = run_trials_chunked(snr_db=snr_db, trials=len(seeds), base_seed=base_seed, **kw)
        monkeypatch.setattr(music, "CHUNK_BYTES", budget)
        got = run_trials(snr_db=snr_db, seeds=seeds, **kw)
        assert list(got) == list(DOA_SERIES)
        for tag in DOA_SERIES:
            np.testing.assert_array_equal(got[tag].mses, expected[tag].mses, err_msg=tag)

    @pytest.mark.parametrize("trials, budget, block, chunk", [
        (200, music.CHUNK_BYTES, 200, 8),
        (13, 3 * 16 * 8 * 8, 3, 1),  # room for 3 trials of covariances, not one projection
    ])
    def test_one_synthesis_and_transform_per_block(self, trials, budget, block, chunk, monkeypatch):
        seen = {"synthesize": [], "id": [], "1bit": [], "covariance": [], "subspace": [], "spectrum": []}

        def spy(name, fn):
            def wrapped(data, *args):
                seen[name].append(len(data))
                return fn(data, *args)
            return wrapped

        def picker(grid_deg, spectra, *args, pick_peak_rows=music.pick_peak_rows):
            seen["spectrum"].append(len(spectra))
            return pick_peak_rows(grid_deg, spectra, *args)

        one_bit = lambda d: quantize_complex(d, QuantizerSpec(1, 3.1))
        kw = self._desk(trials, {"id": spy("id", lambda d: d), "1bit": spy("1bit", one_bit)})
        monkeypatch.setattr(music, "CHUNK_BYTES", budget)
        monkeypatch.setattr(music, "synthesize_seeded", spy("synthesize", music.synthesize_seeded))
        monkeypatch.setattr(music, "sample_covariance", spy("covariance", sample_covariance))
        monkeypatch.setattr(music, "noise_subspace", spy("subspace", noise_subspace))
        monkeypatch.setattr(music, "pick_peak_rows", picker)
        log = RescanLog(monkeypatch)
        run_trials(snr_db=10.0, **kw)
        blocks = [min(block, trials - lo) for lo in range(0, trials, block)]
        assert seen["synthesize"] == seen["id"] == seen["1bit"] == blocks
        # one covariance and one subspace per series per block; spectra per chunk
        assert seen["covariance"] == seen["subspace"] == [n for n in blocks for _ in range(2)]
        assert max(seen["spectrum"]) == chunk
        assert sum(seen["spectrum"]) == 2 * trials + sum(len(bases) for _, bases in log.rescans)
        assert log.each_rescan_is_one_chunks_doubted_trials()

    def test_one_denoiser_call_per_block(self, monkeypatch):
        rows = []

        def forward(model, x, mode="train", forward=network.forward):
            rows.append(len(x))
            return forward(model, x, mode)

        cfg = desk_default()
        model = init_model([16, 32, 32, 32, 16], rng=np.random.default_rng(7))
        kw = self._desk(13, {"recon-1bit": make_transform("recon-1bit", cfg.quantizer_spec, model)})
        monkeypatch.setattr(music, "CHUNK_BYTES", 3 * 16 * 8 * 8)  # 3-trial blocks, as above
        monkeypatch.setattr(network, "forward", forward)
        run_trials(snr_db=10.0, **kw)
        n = cfg.music.num_snapshots
        assert rows == [3 * n] * 4 + [n]  # one call per block, every snapshot of its trials in it

    def test_denoiser_calls_stay_within_chunk_bytes(self, monkeypatch):
        rows = []

        def forward(model, x, mode="train", forward=network.forward):
            rows.append(len(x))
            return forward(model, x, mode)

        cfg = desk_default()
        model = init_model([16, 128, 128, 128, 16], rng=np.random.default_rng(7))
        kw = self._desk(13, {"recon-1bit": make_transform("recon-1bit", cfg.quantizer_spec, model)})
        monkeypatch.setattr(network, "forward", forward)
        whole = run_trials(snr_db=10.0, **kw)["recon-1bit"]
        assert rows == [13 * cfg.music.num_snapshots]  # the budget holds 7,812 rows at width 128
        rows.clear()
        monkeypatch.setattr(music, "CHUNK_BYTES", 3 * 16 * 8 * 8)  # 3-trial blocks of 15 rows, 6 rows a call
        capped = run_trials(snr_db=10.0, **kw)["recon-1bit"]
        assert rows == [6, 6, 3] * 4 + [5]
        assert capped.mses.tobytes() == whole.mses.tobytes()

    def test_working_set_stays_within_its_array_budget(self, monkeypatch):
        # Beside the steering matrix, the peak of a desk run is the larger of
        # its two passes: the polynomial pass holds its (2M-1, G) table and two
        # (T, G) rows of a chunk (the spectrum and its differences); a rescan
        # holds the (n, M-K, G) projection of the n trials it rescans and two
        # (n, G) rows (the spectrum and the row being squared).  The 0.5 MiB
        # margin covers the grid, the block's snapshots, subspaces and picks,
        # and the peak picker's temporaries.
        kw = self._desk(40)
        m, k, g = kw["geom"].num_sensors, kw["num_sources"], kw["grid_deg"].size
        chunk = music.CHUNK_BYTES // ((m - k) * g * 16)
        assert chunk == 8  # five chunks, so one chunk's leftovers could meet the next
        run_trials(snr_db=10.0, **kw)  # first-call imports and caches stay out of the peak
        rescans = []
        monkeypatch.setattr(music, "music_spectrum", lambda s, a, scan=music_spectrum: rescans.append(len(s)) or scan(s, a))
        tracemalloc.start()
        try:
            run_trials(snr_db=10.0, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rescans, "no trial was rescanned, so the rescan's share of the budget went untested"
        n = max(rescans)
        budget = m * g * 16 + max((2 * m - 1) * g * 8 + 2 * chunk * g * 8, n * (m - k) * g * 16 + 2 * n * g * 8) + 2**19
        assert peak < budget, f"peak {peak / 2**20:.2f} MiB over a {budget / 2**20:.2f} MiB budget"
