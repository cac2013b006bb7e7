import numpy as np
import pytest

from quantdoa.optimizer import NonFiniteGradientError, adam_step, init_state


class TestAdamStep:
    def test_first_step_magnitude_equals_lr(self):
        # constant unit gradient: bias-corrected m_hat/sqrt(v_hat) = 1
        p = np.array([0.0])
        state = init_state(p, learning_rate=1e-3)
        adam_step(p, np.array([1.0]), state)
        assert state.step_count == 1
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_hand_computed_two_steps(self):
        p = np.array([1.0])
        state = init_state(p, learning_rate=0.1)
        g1, g2 = np.array([2.0]), np.array([-1.0])
        adam_step(p, g1, state)
        # replicate the update rule independently
        m = 0.1 * 2.0
        v = 0.001 * 4.0
        expect = 1.0 - 0.1 * (m / (1 - 0.9)) / (np.sqrt(v / (1 - 0.999)) + 1e-8)
        assert p[0] == pytest.approx(expect, rel=1e-12)
        adam_step(p, g2, state)
        m = 0.9 * m + 0.1 * (-1.0)
        v = 0.999 * v + 0.001 * 1.0
        expect -= 0.1 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
        assert p[0] == pytest.approx(expect, rel=1e-12)

    def test_zero_gradient_keeps_parameters(self):
        p = np.array([3.0, -1.0])
        state = init_state(p)
        adam_step(p, np.zeros(2), state)
        np.testing.assert_array_equal(p, [3.0, -1.0])
        assert state.step_count == 1

    def test_quadratic_convergence(self):
        # 200 steps on f(w) = w1^2 + w2^2 from (1, 1): below 1% of initial
        w = np.array([1.0, 1.0])
        state = init_state(w, learning_rate=0.05)
        initial = float(np.sum(w**2))
        for _ in range(200):
            adam_step(w, 2.0 * w, state)
        assert float(np.sum(w**2)) < 0.01 * initial

    def test_nonfinite_gradient_aborts_cleanly(self):
        p = np.array([1.0])
        state = init_state(p)
        adam_step(p, np.array([0.5]), state)
        snapshot = (p.copy(), state.m.copy(), state.v.copy(), state.step_count)
        with pytest.raises(NonFiniteGradientError):
            adam_step(p, np.array([np.nan]), state)
        np.testing.assert_array_equal(p, snapshot[0])
        np.testing.assert_array_equal(state.m, snapshot[1])
        np.testing.assert_array_equal(state.v, snapshot[2])
        assert state.step_count == snapshot[3]

    def test_shape_mismatch_rejected(self):
        p = np.zeros(3)
        state = init_state(p)
        with pytest.raises(ValueError):
            adam_step(p, np.zeros(4), state)

    def test_second_moments_nonnegative(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal(10)
        state = init_state(p)
        for _ in range(20):
            adam_step(p, rng.standard_normal(10), state)
        assert np.all(state.v >= 0.0)
