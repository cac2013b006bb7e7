"""The fused train step against verbatim copies of the per-array code it replaced.

``reference_adam_step`` and ``reference_batch_norm_train`` are the
implementations that ran before the parameters moved into one flat
vector.  The fused versions must reproduce them bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantdoa import network as net
from quantdoa.optimizer import (
    BETA1,
    BETA2,
    EPS,
    NonFiniteGradientError,
    TrainState,
    adam_step,
    init_state,
)


def reference_adam_step(params, grads, state):
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient; step aborted")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p[...] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def reference_batch_norm_train(t, bn):
    if t.ndim != 2 or t.shape[0] < 2:
        raise ValueError("batch norm training needs a 2-D batch with >= 2 rows")
    mean = t.mean(axis=0)
    var = t.var(axis=0)  # biased
    inv_std = 1.0 / np.sqrt(var + net.BN_EPS)
    xhat = (t - mean) * inv_std
    out = bn.gamma * xhat + bn.beta
    bn.running_mean[...] = (1.0 - net.BN_MOMENTUM) * bn.running_mean + net.BN_MOMENTUM * mean
    bn.running_var[...] = (1.0 - net.BN_MOMENTUM) * bn.running_var + net.BN_MOMENTUM * var
    return out, (xhat, inv_std, bn.gamma)


# (widths, use_bn, batch, lr): the depth-12 recipe of criterion 8b and the desk widths
RECIPES = {
    "8b-depth-12": ([16] + [128] * 11 + [16], False, 16, 0.01),
    "desk": ([16, 128, 128, 128, 128, 128, 16], True, 64, 1e-3),
}


def train_steps(model, steps, batch, seed, step):
    """Feed ``step`` the flat gradient of ``steps`` train-mode batches."""
    rng = np.random.default_rng(seed)
    grad = np.empty_like(model.params)
    for _ in range(steps):
        x = rng.standard_normal((batch, model.width_in)).astype(np.float32)
        out, cache = net.forward(model, x, "train")
        net.backward(model, cache, 0.5 * x, out=grad)
        step(grad)


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_fused_adam_matches_per_array_reference(recipe):
    widths, use_bn, batch, lr = RECIPES[recipe]
    model = net.init_model(widths, rng=np.random.default_rng(3), use_bn=use_bn)
    ref = model.copy()
    ref_params = ref.trainable_arrays()
    ref_state = SimpleNamespace(
        m=[np.zeros_like(p) for p in ref_params],
        v=[np.zeros_like(p) for p in ref_params],
        step_count=0,
        learning_rate=lr,
    )
    state = init_state(model.params, learning_rate=lr)

    def both(grad):
        # the reference sees the same gradient, split per array
        reference_adam_step(ref_params, model.views(grad), ref_state)
        adam_step(model.params, grad, state)

    # past step 165, where float32 bias1 rounds to 1 and the fused step skips its divide
    train_steps(model, 200, batch, seed=4, step=both)
    assert state.step_count == ref_state.step_count == 200
    assert model.params.tobytes() == ref.params.tobytes()
    assert state.m.tobytes() == b"".join(m.tobytes() for m in ref_state.m)
    assert state.v.tobytes() == b"".join(v.tobytes() for v in ref_state.v)


def test_nonfinite_gradient_leaves_buffer_moments_and_counter():
    model = net.init_model(RECIPES["desk"][0], rng=np.random.default_rng(5))
    state = init_state(model.params)
    train_steps(model, 3, 32, seed=6, step=lambda g: adam_step(model.params, g, state))
    before = [a.tobytes() for a in (model.params, state.m, state.v)]
    grad = np.zeros_like(model.params)
    grad[-1] = np.inf
    with pytest.raises(NonFiniteGradientError):
        adam_step(model.params, grad, state)
    assert [a.tobytes() for a in (model.params, state.m, state.v)] == before
    assert state.step_count == 3


def test_state_without_scratch_arrays_names_the_cause():
    with pytest.raises(TypeError, match="scratch"):
        TrainState(m=np.zeros(3), v=np.zeros(3))  # built without init_state


def fresh_norm(dim, rng):
    return net.BatchNorm(
        gamma=rng.uniform(0.5, 1.5, dim).astype(np.float32),
        beta=rng.standard_normal(dim).astype(np.float32),
        running_mean=rng.standard_normal(dim).astype(np.float32),
        running_var=rng.uniform(0.5, 2.0, dim).astype(np.float32),
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(2, 300),
    cols=st.integers(1, 40),
    constant=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_norm_train_matches_reference(rows, cols, constant, seed):
    rng = np.random.default_rng(seed)
    t = (rng.standard_normal((rows, cols)) * rng.uniform(0.1, 10.0, cols) + rng.uniform(-5, 5, cols))
    t = t.astype(np.float32)
    t[:, : min(constant, cols)] = np.float32(rng.standard_normal())  # constant columns
    bn = fresh_norm(cols, np.random.default_rng(seed + 1))
    ref_bn = fresh_norm(cols, np.random.default_rng(seed + 1))
    out, (xhat, inv_std, gamma) = net.batch_norm_train(t, bn)
    ref_out, (ref_xhat, ref_inv_std, _) = reference_batch_norm_train(t, ref_bn)
    assert out.tobytes() == ref_out.tobytes()
    assert xhat.tobytes() == ref_xhat.tobytes()
    assert inv_std.tobytes() == ref_inv_std.tobytes()
    assert gamma is bn.gamma
    assert bn.running_mean.tobytes() == ref_bn.running_mean.tobytes()
    assert bn.running_var.tobytes() == ref_bn.running_var.tobytes()
