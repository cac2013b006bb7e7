import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantdoa.music import noise_subspace, sample_covariance
from quantdoa.quantizer import (
    QuantizerSpec,
    clipping_rate,
    default_full_scale,
    quantize_complex,
    quantize_real,
)
from quantdoa.signal_model import ArrayGeometry, noise_variance, synthesize

B1V1 = QuantizerSpec(bits=1, full_scale=1.0)


class TestSpec:
    def test_step_formula(self):
        assert QuantizerSpec(1, 1.0).step == 1.0
        assert QuantizerSpec(3, 2.0).step == 0.5
        assert QuantizerSpec(8, 1.0).step == 2.0 / 256

    def test_level_count(self):
        for b in range(1, 9):
            spec = QuantizerSpec(b, 1.5)
            levels = spec.levels()
            assert levels.size == 2**b + 1
            assert levels[0] == -1.5 and levels[-1] == 1.5

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            QuantizerSpec(0, 1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(2, -1.0)
        for full_scale in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                QuantizerSpec(1, full_scale)


def quantize_value(x: float, spec: QuantizerSpec) -> float:
    """One value through quantize_real, as a Python float."""
    return float(quantize_real(np.asarray(x), spec))


class TestQuantizeScalar:
    """Per-value behaviour of the ADC, checked through quantize_real."""

    def test_hand_values_one_bit(self):
        np.testing.assert_array_equal(quantize_real([0.3, 0.6, -0.6], B1V1), [0.0, 1.0, -1.0])

    def test_levels_are_fixed_points(self):
        spec = QuantizerSpec(3, 1.7)
        np.testing.assert_array_equal(quantize_real(spec.levels(), spec), spec.levels())

    def test_half_ties_round_away_from_zero(self):
        np.testing.assert_array_equal(quantize_real([0.5, -0.5], B1V1), [1.0, -1.0])

    def test_saturates_out_of_range(self):
        np.testing.assert_array_equal(quantize_real([7.0, -123.0], B1V1), [1.0, -1.0])
        assert quantize_complex(7.0 - 123.0j, B1V1) == 1.0 - 1.0j

    def test_rejects_nonfinite(self):
        # the ADC passes NaN through; the estimator that reads it raises
        snap = quantize_complex(np.array([[np.nan + 0j, 1.0], [1.0, 1.0]]), B1V1)
        with pytest.raises(ValueError, match="non-finite"):
            noise_subspace(sample_covariance(snap), 1)

    @given(
        x=st.floats(-0.999, 0.999),
        bits=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bound_in_range(self, x, bits):
        spec = QuantizerSpec(bits, 1.0)
        assert abs(quantize_value(x, spec) - x) <= spec.step / 2

    @given(
        pair=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        bits=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, pair, bits):
        spec = QuantizerSpec(bits, 2.0)
        lo, hi = min(pair), max(pair)
        assert quantize_value(lo, spec) <= quantize_value(hi, spec)

    @given(x=st.floats(-2, 2), bits=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_idempotence(self, x, bits):
        spec = QuantizerSpec(bits, 1.5)
        once = quantize_value(x, spec)
        assert quantize_value(once, spec) == once


class TestQuantizeSnapshots:
    def _snap(self, seed=0, m=6, n=32):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, (m, n)) + 1j * rng.uniform(-1, 1, (m, n))

    def test_one_bit_alphabet(self):
        out = quantize_complex(self._snap(), B1V1)
        for part in (out.real, out.imag):
            assert set(np.unique(part)).issubset({-1.0, 0.0, 1.0})

    def test_idempotent(self):
        spec = QuantizerSpec(3, 1.0)
        once = quantize_complex(self._snap(1), spec)
        twice = quantize_complex(once, spec)
        np.testing.assert_array_equal(once, twice)

    def test_noise_zero_on_levels(self):
        spec = QuantizerSpec(2, 1.0)
        levels = spec.levels()
        data = (levels[:, None] + 1j * levels[::-1][:, None]).astype(complex)
        np.testing.assert_array_equal(quantize_complex(data, spec) - data, np.zeros_like(data))

    def test_noise_bound_and_variance(self):
        # uniform in-range inputs: q ~ uniform(-step/2, step/2), var = step^2/12
        rng = np.random.default_rng(9)
        spec = QuantizerSpec(3, 1.0)
        x = rng.uniform(-1, 1, 100_000)
        q = quantize_real(x, spec) - x
        assert np.max(np.abs(q)) <= spec.step / 2
        expected = spec.step**2 / 12
        assert abs(q.var() - expected) < 0.05 * expected


class TestFullScale:
    def test_three_sources_snr50(self):
        # 3 + 4*sqrt(1e-5/2)
        assert default_full_scale(3, 50.0) == pytest.approx(3.0089442719, abs=1e-9)

    def test_noiseless_single_source(self):
        assert default_full_scale(1, np.inf) == 1.0

    def test_worst_case_over_snr_list(self):
        assert default_full_scale(2, [10.0, 30.0, 50.0]) == default_full_scale(2, 10.0)

    def test_clipping_rate_is_small(self):
        # 1e6 synthesized components: measured clipping under 1e-3
        geom = ArrayGeometry(50)
        rng = np.random.default_rng(21)
        spec = QuantizerSpec(1, default_full_scale(3, 10.0))
        snap = synthesize(np.array([-20.0, 1.0, 25.0]), geom, noise_variance(10.0), 10_000, rng)
        assert clipping_rate(snap, spec) < 1e-3
