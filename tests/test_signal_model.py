import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantdoa import signal_model
from quantdoa.config import DOMAIN_TRIALS, derived_seeds, desk_default
from quantdoa.dataset import split_seeds
from quantdoa.music import noise_subspace, sample_covariance
from quantdoa.signal_model import (
    MAX_ANGLE_TRIES,
    ArrayGeometry,
    draw_source_angles,
    from_real_batch,
    mix,
    noise_variance,
    pcg64_states,
    steering_matrix,
    synthesize,
    synthesize_seeded,
    to_real_batch,
)

GEOM8 = ArrayGeometry(num_sensors=8)


def reference_angles(num_sources, angle_range, min_sep, rng):
    """The one-record angle draw before the block loop: one ``rng.random(K)`` per try."""
    lo, hi = angle_range
    for _ in range(MAX_ANGLE_TRIES):
        angles = np.sort(lo + (hi - lo) * rng.random(num_sources))
        if num_sources == 1 or (angles[1:] - angles[:-1]).min() >= min_sep:
            return angles
    raise RuntimeError("reference draw ran out of tries")


class TestGeometry:
    def test_defaults_half_wavelength(self):
        assert GEOM8.spacing == 0.5

    @pytest.mark.parametrize("m", [0, 1, -3])
    def test_too_few_sensors_rejected(self, m):
        with pytest.raises(ValueError):
            ArrayGeometry(num_sensors=m)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ValueError):
            ArrayGeometry(num_sensors=4, spacing=0.0)

    @pytest.mark.parametrize("spacing", [np.inf, np.nan])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="finite and > 0"):
            ArrayGeometry(num_sensors=4, spacing=spacing)


class TestSteeringVector:
    """Steering vectors a(theta): the one column of a one-angle steering matrix."""

    def test_broadside_is_all_ones(self):
        a = steering_matrix(0.0, ArrayGeometry(4))[:, 0]
        np.testing.assert_array_equal(a, np.ones(4, dtype=complex))

    def test_thirty_degrees_hand_value(self):
        # 2*pi*0.5*sin(30deg) = pi/2, so the second element is exp(j*pi/2) = j
        a = steering_matrix(30.0, ArrayGeometry(2, spacing=0.5))[:, 0]
        np.testing.assert_allclose(a, [1.0, 1j], atol=1e-12)

    def test_first_element_exactly_one(self):
        a = steering_matrix(-17.3, GEOM8)[:, 0]
        assert a[0] == 1.0 + 0.0j

    @given(theta=st.floats(-89.9, 89.9))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, theta):
        a = steering_matrix(theta, GEOM8)[:, 0]
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)

    @given(theta=st.floats(-89.0, 89.0))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_symmetry(self, theta):
        a_pos = steering_matrix(theta, GEOM8)[:, 0]
        a_neg = steering_matrix(-theta, GEOM8)[:, 0]
        np.testing.assert_allclose(a_neg, np.conj(a_pos), atol=1e-12)

    @pytest.mark.parametrize("theta", [90.0, -90.0, 123.0])
    def test_rejects_back_halfspace(self, theta):
        with pytest.raises(ValueError):
            steering_matrix(theta, GEOM8)

    def test_matrix_matches_vectors(self):
        thetas = np.array([-20.0, 3.5, 28.0])
        mat = steering_matrix(thetas, GEOM8)
        for k, th in enumerate(thetas):
            np.testing.assert_allclose(mat[:, k], steering_matrix(th, GEOM8)[:, 0])

    def test_stack_matches_each_matrix_bytewise(self):
        thetas = np.random.default_rng(5).uniform(-60.0, 60.0, size=(4, 2, 3))
        stack = steering_matrix(thetas, GEOM8)
        assert stack.shape == (4, 2, 8, 3)
        for idx in np.ndindex(4, 2):
            assert stack[idx].tobytes() == steering_matrix(thetas[idx], GEOM8).tobytes()

    def test_stack_rejects_back_halfspace(self):
        with pytest.raises(ValueError):
            steering_matrix(np.array([[0.0, 10.0], [95.0, 1.0]]), GEOM8)


class TestDrawSourceAngles:
    def test_single_angle_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = draw_source_angles(1, (-30, 30), 1.0, rng)
            assert a.shape == (1,)
            assert -30 <= a[0] <= 30

    def test_min_separation_enforced(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = draw_source_angles(3, (-30, 30), 1.0, rng)
            assert np.all(np.diff(a) >= 1.0)
            assert np.all(np.diff(a) > 0)  # sorted ascending

    def test_fixed_seed_reproducible(self):
        a1 = draw_source_angles(3, (-30, 30), 1.0, np.random.default_rng(42))
        a2 = draw_source_angles(3, (-30, 30), 1.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a1, a2)

    def test_infeasible_request_rejected(self):
        with pytest.raises(ValueError):
            draw_source_angles(3, (0.0, 1.0), 1.0, np.random.default_rng(0))

    def test_nan_min_sep_rejected_before_any_draw(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="min_sep"):
            draw_source_angles(3, (-30, 30), np.nan, rng)
        assert rng.bit_generator.state == state


class TestSynthesize:
    def test_noiseless_single_source_broadside(self):
        # one unit source at 0 degrees: every column is the all-ones vector
        snap = mix(steering_matrix(0.0, ArrayGeometry(4)), np.ones((1, 3), dtype=complex), 0.0, None)
        np.testing.assert_allclose(snap, np.ones((4, 3), dtype=complex))

    def test_noiseless_two_sources_hand_sum(self):
        # direct evaluation: column = s_1 a(th_1) + s_2 a(th_2)
        geom = ArrayGeometry(5)
        amps = np.array([[0.3 + 0.1j], [-0.7j]])
        snap = mix(steering_matrix(np.array([-11.0, 24.0]), geom), amps, 0.0, None)
        a1, a2 = steering_matrix(-11.0, geom)[:, 0], steering_matrix(24.0, geom)[:, 0]
        expected = amps[0, 0] * a1 + amps[1, 0] * a2
        np.testing.assert_allclose(snap[:, 0], expected, atol=1e-12)

    def test_noise_variance_monte_carlo(self):
        # 1e5 complex entries: empirical variance of x - signal within 5%;
        # the same seed draws the same phases first, so the difference is the noise
        geom = ArrayGeometry(100)
        noisy = synthesize(np.array([5.0]), geom, noise_variance(10.0), 1000, np.random.default_rng(7))
        clean = synthesize(np.array([5.0]), geom, noise_variance(np.inf), 1000, np.random.default_rng(7))
        resid = noisy - clean
        emp_var = float(np.mean(np.abs(resid) ** 2))
        assert abs(emp_var - 0.1) < 0.05 * 0.1

    def test_unit_modulus_amplitudes_drawn(self):
        rng = np.random.default_rng(3)
        snap = synthesize(np.array([-5.0, 10.0]), ArrayGeometry(2), noise_variance(np.inf), 4, rng)
        # noiseless two-unit-source mixture: |column 0 entry| <= 2
        assert np.all(np.abs(snap) <= 2.0 + 1e-12)

    def test_noiseless_single_source_rank_one(self):
        rng = np.random.default_rng(11)
        snap = synthesize(np.array([13.0]), GEOM8, noise_variance(np.inf), 16, rng)
        s = np.linalg.svd(snap, compute_uv=False)
        energy = s**2
        assert energy[0] / energy.sum() > 1.0 - 1e-10

    def test_rng_required_when_drawing(self):
        with pytest.raises(TypeError):
            synthesize(np.array([0.0]), GEOM8, noise_variance(np.inf), 2)


class TestMix:
    def test_stack_matches_each_record_bytewise(self):
        # three records, the middle one noiseless: its draws must be ignored
        rng = np.random.default_rng(9)
        steering = steering_matrix(rng.uniform(-30.0, 30.0, (3, 2)), GEOM8)
        amps = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (3, 2, 4)))
        var = np.array([0.1, 0.0, 1e-3])
        draws = rng.standard_normal((2, 3, 8, 4))
        stack = mix(steering, amps, var, draws)
        for i in range(3):
            one = mix(steering[i], amps[i], float(var[i]), (draws[0, i], draws[1, i]))
            assert stack[i].tobytes() == one.tobytes()
        assert stack[1].tobytes() == (steering[1] @ amps[1]).tobytes()

    def test_synthesize_draws_match_mix(self):
        angles = np.array([-7.0, 12.0])
        snap = synthesize(angles, GEOM8, noise_variance(20.0), 3, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        amps = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)))
        draws = (rng.standard_normal((8, 3)), rng.standard_normal((8, 3)))
        expected = mix(steering_matrix(angles, GEOM8), amps, noise_variance(20.0), draws)
        assert snap.tobytes() == expected.tobytes()


class TestSynthesizeSeeded:
    @pytest.mark.parametrize("snr_db", [20.0, np.inf])
    def test_rows_match_one_synthesize_call_per_seed(self, snr_db):
        seeds = [7, 2**40 + 3, 12345]
        angles, stack = synthesize_seeded(
            seeds, [noise_variance(snr_db)] * 3, GEOM8, 3, (-30.0, 30.0), 4.0, 5
        )
        assert angles.shape == (3, 3) and stack.shape == (3, 8, 5)
        for seed, row_angles, row in zip(seeds, angles, stack):
            rng = np.random.default_rng(seed)
            truth = draw_source_angles(3, (-30.0, 30.0), 4.0, rng)
            snap = synthesize(truth, GEOM8, noise_variance(snr_db), 5, rng)
            assert row_angles.tobytes() == truth.tobytes()
            assert row.tobytes() == snap.tobytes()

    @given(
        k=st.integers(1, 4),
        n=st.sampled_from([1, 5]),
        lo=st.floats(-80.0, 0.0),
        width=st.floats(1.0, 80.0),
        crowding=st.floats(0.0, 0.75),
        rows=st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.sampled_from([0.0, 1e-3, 0.1, 2.0])),
            min_size=1, max_size=6,
        ),
    )
    # Four angles at 0.74 of the widest feasible gap: (1 - 0.74)**4, about 1 try in 220, is kept.
    @example(k=4, n=5, lo=-30.0, width=60.0, crowding=0.74,
             rows=[(3, 0.0), (2**63, 0.1), (17, 0.0), (99, 1e-3)])
    @settings(max_examples=60, deadline=None)
    def test_rows_match_reference_draws(self, k, n, lo, width, crowding, rows):
        # min_sep up to 0.75 of the feasibility limit, where most records reject many tries
        span = (lo, lo + width)
        min_sep = crowding * width / max(k - 1, 1)
        seeds, variances = [r[0] for r in rows], [r[1] for r in rows]
        angles, stack = synthesize_seeded(seeds, variances, GEOM8, k, span, min_sep, n)
        for seed, variance, row_angles, row in zip(seeds, variances, angles, stack):
            truth = reference_angles(k, span, min_sep, rng := np.random.default_rng(seed))
            snap = synthesize(truth, GEOM8, variance, n, rng)
            assert row_angles.tobytes() == truth.tobytes()
            assert row.tobytes() == snap.tobytes()
            one = draw_source_angles(k, span, min_sep, np.random.default_rng(seed))
            assert one.tobytes() == truth.tobytes()

    @pytest.mark.parametrize("n", [1, 5])
    def test_desk_block_of_600_rows_matches_default_rng(self, n):
        # one block at the desk angle rule, where about 1 row in 10 rejects its first try and replays
        cfg = desk_default()
        span, min_sep, snrs = cfg.angle_range(), cfg.sources.min_sep, cfg.snr_db
        seeds = split_seeds(cfg, "train")[:600].tolist()
        variances = [noise_variance(snrs[i % len(snrs)]) for i in range(600)]
        angles, stack = synthesize_seeded(seeds, variances, GEOM8, 3, span, min_sep, n)
        replayed = 0
        for seed, variance, row_angles, row in zip(seeds, variances, angles, stack, strict=True):
            first = np.sort(span[0] + (span[1] - span[0]) * np.random.default_rng(seed).random(3))
            replayed += bool(np.diff(first).min() < min_sep)
            truth = reference_angles(3, span, min_sep, rng := np.random.default_rng(seed))
            assert row_angles.tobytes() == truth.tobytes()
            assert row.tobytes() == synthesize(truth, GEOM8, variance, n, rng).tobytes()
        assert replayed > 0  # 52 of the 600 at the desk seeds

    def test_seed_and_variance_counts_must_match(self):
        with pytest.raises(ValueError, match="3 seeds but 1 noise variances"):
            synthesize_seeded([1, 2, 3], [0.1], GEOM8, 2, (-30.0, 30.0), 1.0, 1)

    def test_out_of_tries_raises(self):
        # two angles exactly one degree apart in a one-degree range: never drawn
        with pytest.raises(RuntimeError, match=f"after {MAX_ANGLE_TRIES} tries"):
            synthesize_seeded([4, 5], [0.0, 0.1], GEOM8, 2, (0.0, 1.0), 1.0, 3)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_gap_fails_every_try(self):
        # the span overflows to inf, so every try holds inf angles whose gaps are NaN (the block
        # pass warns on inf - inf); validate() keeps configs inside (-90, 90) degrees
        with pytest.raises(RuntimeError, match=f"after {MAX_ANGLE_TRIES} tries"):
            synthesize_seeded([4], [0.0], GEOM8, 2, (-1e308, 1e308), 1.0, 1)


class TestBlockSeeding:
    """``pcg64_states`` against numpy's own PCG64 seeding, and ``synthesize_seeded``'s seed checks."""

    EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int64(5)]

    @staticmethod
    def draw(seeds, snr_db=20.0):
        return synthesize_seeded(seeds, [noise_variance(snr_db)] * len(seeds), GEOM8, 3, (-30.0, 30.0), 4.0, 2)

    def test_edge_seeds_match_numpy(self):
        for seed, state in zip(self.EDGE_SEEDS, pcg64_states(self.EDGE_SEEDS), strict=True):
            assert state == np.random.PCG64(seed).state, seed

    def test_every_desk_record_and_trial_seed_matches_numpy(self):
        cfg = desk_default()
        assert cfg.seed == 20240801
        trials = [derived_seeds(cfg.seed, DOMAIN_TRIALS, cfg.music.trials, stream=s) for s in range(len(cfg.snr_db))]
        seeds = np.concatenate([split_seeds(cfg, "train"), split_seeds(cfg, "test"), *trials]).tolist()
        assert len(seeds) == 7000
        for seed, state in zip(seeds, pcg64_states(seeds), strict=True):
            assert state == np.random.PCG64(seed).state, seed

    def test_empty_block(self):
        assert pcg64_states([]) == []

    def test_doctored_first_state_trips_the_block_check(self, monkeypatch):
        def doctored(seeds):
            states = pcg64_states(seeds)
            states[0]["state"]["state"] ^= 1
            return states
        monkeypatch.setattr(signal_model, "pcg64_states", doctored)
        with pytest.raises(RuntimeError, match="seeds PCG64 differently"):
            self.draw([11, 12])

    def test_no_default_rng_call(self, monkeypatch):
        seeds = [3, 2**40 + 1, 2**64 - 1]
        expected = self.draw(seeds)

        def refuse(*args, **kwargs):
            raise AssertionError("synthesize_seeded called default_rng")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        angles, stack = self.draw(seeds)
        assert angles.tobytes() == expected[0].tobytes()
        assert stack.tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, np.float64(2.0), "7", None])
    def test_seed_outside_uint64_rejected_before_any_draw(self, bad, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was made before the seed check")
        monkeypatch.setattr(np.random, "PCG64", refuse)
        with pytest.raises(ValueError, match=r"seeds must be integers in \[0, 2\*\*64\)"):
            self.draw([5, bad])

    @pytest.mark.parametrize("snr_db", [10.0, np.inf])
    def test_largest_seed_matches_default_rng(self, snr_db):
        angles, stack = self.draw([2**64 - 1], snr_db)
        rng = np.random.default_rng(2**64 - 1)
        truth = draw_source_angles(3, (-30.0, 30.0), 4.0, rng)
        assert angles[0].tobytes() == truth.tobytes()
        assert stack[0].tobytes() == synthesize(truth, GEOM8, noise_variance(snr_db), 2, rng).tobytes()


class TestRealInterleaved:
    def test_layout_example(self):
        np.testing.assert_array_equal(
            to_real_batch(np.array([[1 + 2j], [3 + 4j]])), [[1.0, 3.0, 2.0, 4.0]]
        )

    def test_all_real_input_zero_imag_half(self):
        v = to_real_batch(np.array([[5.0], [-1.0], [2.0]], dtype=complex))
        np.testing.assert_array_equal(v[0, 3:], np.zeros(3))

    @given(st.integers(1, 16), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, m, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        np.testing.assert_array_equal(from_real_batch(to_real_batch(data)), data)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            from_real_batch(np.arange(5.0)[None, :])

    def test_batch_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        batch = to_real_batch(data)
        assert batch.shape == (4, 12)
        np.testing.assert_array_equal(batch[2], np.concatenate([data[:, 2].real, data[:, 2].imag]))
        np.testing.assert_array_equal(from_real_batch(batch), data)


class TestSnapshotMatrix:
    """Snapshot matrices are plain complex (M, N) arrays."""

    def test_rejects_nonfinite(self):
        snap = np.array([[np.nan + 0j, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            noise_subspace(sample_covariance(snap), 1)
