"""Finite-difference verification of every analytic gradient.

The keystone of the suite: central differences with step 1e-5 on tiny
float64 models.  Parameters whose true gradient is structurally zero
(dense biases feeding straight into batch norm are cancelled by the
mean subtraction) compare under an absolute floor instead of a relative
one, since both sides are pure roundoff there.
"""

import numpy as np
import pytest

from quantdoa import network as net

FD_STEP = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-8


def fd_check(model, x, target):
    """Worst relative FD mismatch across all trainable parameters."""

    def loss_eval():
        out, _ = net.forward(model, x, mode="train")
        return net.loss(out, target)

    _, cache = net.forward(model, x, mode="train")
    grads = net.backward(model, cache, target, np.empty_like(model.params))
    worst = 0.0
    for p, g in zip(model.trainable_arrays(), grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_STEP
            lp = loss_eval()
            p[idx] = orig - FD_STEP
            lm = loss_eval()
            p[idx] = orig
            fd = (lp - lm) / (2 * FD_STEP)
            err = abs(fd - g[idx])
            if err <= ABS_FLOOR:
                continue
            worst = max(worst, err / max(abs(fd), abs(g[idx])))
    return worst


def tiny_model(seed=7, **kwargs):
    return net.init_model(
        [4, 6, 6, 6, 4], rng=np.random.default_rng(seed), dtype=np.float64, **kwargs
    )


def tiny_batch(seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((4, 4)), rng.standard_normal((4, 4))


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"use_bn": False},
        {"use_residual": False},
        {"use_bn": False, "use_residual": False},
        {"activation": "tanh"},
        {"activation": "sigmoid"},
        {"input_bias": False},
    ],
    ids=["full", "no-bn", "no-skip", "plain", "tanh", "sigmoid", "no-input-bias"],
)
def test_gradients_match_finite_differences(kwargs):
    model = tiny_model(**kwargs)
    x, target = tiny_batch()
    assert fd_check(model, x, target) < REL_TOL


def test_two_block_model_gradients():
    model = net.init_model(
        [4, 5, 5, 5, 5, 5, 4], rng=np.random.default_rng(3), dtype=np.float64
    )
    x, target = tiny_batch(2)
    assert fd_check(model, x, target) < REL_TOL


def test_zero_error_batch_zero_output_bias_gradient():
    model = tiny_model()
    for layer in model.dense:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
    x = np.random.default_rng(0).standard_normal((4, 4))
    target = np.zeros((4, 4))  # output == target == 0
    out, cache = net.forward(model, x, "train")
    np.testing.assert_array_equal(out, target)
    grads = net.backward(model, cache, target, np.empty_like(model.params))
    np.testing.assert_array_equal(grads[-1], np.zeros(4))  # output bias


def test_dead_relu_unit_gets_zero_gradient():
    model = tiny_model(use_bn=False, use_residual=False)
    dead = 2
    model.dense[0].w[:, dead] = 0.0
    model.dense[0].b[dead] = -100.0  # pre-activation < 0 for any sane input
    x, target = tiny_batch(5)
    _, cache = net.forward(model, x, "train")
    grads = net.backward(model, cache, target, np.empty_like(model.params))
    dw0, db0 = grads[:2]
    np.testing.assert_array_equal(dw0[:, dead], np.zeros(4))
    assert db0[dead] == 0.0


def test_disabled_input_bias_gradient_is_zero():
    model = tiny_model(input_bias=False)
    x, target = tiny_batch(6)
    _, cache = net.forward(model, x, "train")
    grads = net.backward(model, cache, target, np.empty_like(model.params))
    np.testing.assert_array_equal(grads[1], np.zeros(6))  # input bias


def test_backward_consumes_its_cache():
    model = tiny_model()
    x, target = tiny_batch(3)
    _, cache = net.forward(model, x, "train")
    first = net.backward(model, cache, target, np.empty_like(model.params))
    assert cache == []  # each layer's record is popped as its gradients are formed
    _, cache = net.forward(model, x, "train")
    again = net.backward(model, cache, target, np.empty_like(model.params))
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)


def test_backward_requires_train_cache():
    model = tiny_model()
    x, target = tiny_batch()
    _, cache = net.forward(model, x, "infer")
    with pytest.raises(ValueError):
        net.backward(model, cache, target, np.empty_like(model.params))
