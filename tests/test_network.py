import hashlib
import tracemalloc

import numpy as np
import pytest

from quantdoa import network as net
from quantdoa.checkpoint import load_checkpoint, save_checkpoint

from model_arrays import all_arrays


def make_model(widths=(4, 6, 6, 6, 4), seed=0, dtype=np.float64, **kwargs):
    return net.init_model(list(widths), rng=np.random.default_rng(seed), dtype=dtype, **kwargs)


def relu(x):
    """The network's relu: a two-layer identity model computes exactly relu(x)."""
    x = np.atleast_2d(x)
    model = make_model((x.shape[1],) * 3, use_bn=False)
    for layer in model.dense:
        layer.w[...] = np.eye(x.shape[1])
        layer.b[...] = 0.0
    return net.forward(model, x, "infer")[0]


class TestRelu:
    def test_definition(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [[0.0, 0.0, 2.0]])

    def test_all_negative_to_zero(self):
        np.testing.assert_array_equal(relu(-np.ones((3, 3))), np.zeros((3, 3)))

    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal((5, 7))
        np.testing.assert_array_equal(relu(relu(x)), relu(x))


class TestBatchNorm:
    def _bn(self, dim, dtype=np.float64):
        return net.BatchNorm(
            gamma=np.ones(dim, dtype=dtype),
            beta=np.zeros(dim, dtype=dtype),
            running_mean=np.zeros(dim, dtype=dtype),
            running_var=np.ones(dim, dtype=dtype),
        )

    def test_standardizes_large_batch(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1024, 8)) * 2.0 + 3.0
        out, _ = net.batch_norm_train(x, self._bn(8))
        assert np.all(np.abs(out.mean(axis=0)) < 0.1)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 0.1)

    def test_affine_stage(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((512, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)  # already standardized
        bn = self._bn(4)
        bn.gamma[...] = 2.0
        bn.beta[...] = 3.0
        out, _ = net.batch_norm_train(x, bn)
        np.testing.assert_allclose(out, 2.0 * (x - x.mean(0)) / np.sqrt(x.var(0) + net.BN_EPS) + 3.0)
        np.testing.assert_allclose(out, 2.0 * x + 3.0, atol=1e-2)

    def test_constant_feature_maps_to_beta(self):
        bn = self._bn(3)
        bn.beta[...] = [1.0, -2.0, 0.5]
        x = np.full((16, 3), 7.0)
        out, _ = net.batch_norm_train(x, bn)
        np.testing.assert_allclose(out, np.broadcast_to(bn.beta, (16, 3)), atol=1e-12)
        assert np.all(np.isfinite(out))

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            net.batch_norm_train(np.ones((1, 3)), self._bn(3))

    def test_running_stats_ema(self):
        bn = self._bn(2)
        x = np.array([[1.0, 10.0], [3.0, 14.0]])
        net.batch_norm_train(x, bn)
        np.testing.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 12.0]))
        np.testing.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 4.0]))

    def test_infer_uses_running_stats_only(self):
        bn = self._bn(2)
        bn.running_mean[...] = [1.0, -1.0]
        bn.running_var[...] = [4.0, 0.25]
        x = np.array([[3.0, 0.0]])
        expected = (x - bn.running_mean) / np.sqrt(bn.running_var + net.BN_EPS)  # the call normalizes x in place
        out = net.batch_norm_infer(x, bn)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_infer_in_place_rounds_as_the_expression(self, dtype):
        rng = np.random.default_rng(7)
        gamma, beta, mean = rng.standard_normal((3, 6)).astype(dtype)
        bn = net.BatchNorm(gamma, beta, mean, rng.uniform(0.2, 2.0, 6).astype(dtype))
        t = rng.standard_normal((9, 6)).astype(dtype)
        inv_std = 1.0 / np.sqrt(bn.running_var + net.BN_EPS)
        expected = bn.gamma * (t - bn.running_mean) * inv_std + bn.beta
        out = net.batch_norm_infer(t, bn)
        assert out is t and out.dtype == dtype
        assert out.tobytes() == expected.tobytes()


class TestForward:
    def test_zero_model_outputs_output_bias(self):
        model = make_model()
        for layer in model.dense:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        model.dense[-1].b[...] = np.array([1.0, -2.0, 0.0, 3.0])
        out, _ = net.forward(model, np.random.default_rng(0).standard_normal((5, 4)), "train")
        np.testing.assert_allclose(out, np.broadcast_to(model.dense[-1].b, (5, 4)))

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_residual_block_passthrough(self, mode):
        # zero block weights and beta=0: block output equals relu(block input)
        model = make_model(seed=3)
        for i in (1, 2):
            model.dense[i].w[...] = 0.0
            model.dense[i].b[...] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 4))
        out, cache = net.forward(model, x, mode)
        assert model.closes_pair(2)
        # block input is already post-relu, so the skip carries it unchanged
        # and the network reduces to its first and last layers
        block_in = np.maximum(0.0, x @ model.dense[0].w + model.dense[0].b)
        np.testing.assert_allclose(out, block_in @ model.dense[3].w + model.dense[3].b, atol=1e-12)
        if mode == "train":
            block_in, block_out = cache[1].x, cache[2].out
            np.testing.assert_allclose(block_out, np.maximum(0.0, block_in), atol=1e-12)
            np.testing.assert_allclose(block_out, block_in, atol=1e-12)

    def test_full_size_shape(self):
        widths = [64] + [1024] * 9 + [64]
        model = make_model(widths, seed=0, dtype=np.float32)
        assert model.depth == 10
        out, _ = net.forward(model, np.zeros((1, 64), dtype=np.float32), "infer")
        assert out.shape == (1, 64)

    def test_forward_deterministic(self):
        model = make_model(seed=9)
        x = np.random.default_rng(4).standard_normal((6, 4))
        out1, _ = net.forward(model, x, "infer")
        out2, _ = net.forward(model, x, "infer")
        np.testing.assert_array_equal(out1, out2)

    def test_infer_mode_mutates_nothing(self):
        model = make_model(seed=11)
        before = [a.copy() for a in all_arrays(model)]
        net.forward(model, np.random.default_rng(2).standard_normal((8, 4)), "infer")
        for a, b in zip(all_arrays(model), before):
            np.testing.assert_array_equal(a, b)

    def test_train_mode_updates_running_stats(self):
        model = make_model(seed=12)
        before = [layer.bn.running_mean.copy() for layer in model.dense if layer.bn is not None]
        net.forward(model, np.random.default_rng(2).standard_normal((8, 4)), "train")
        after = [layer.bn.running_mean for layer in model.dense if layer.bn is not None]
        assert any(not np.array_equal(a, b) for a, b in zip(after, before))

    def test_width_mismatch_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            net.forward(model, np.zeros((2, 5)), "infer")

    # SHA-256 of infer-mode outputs written by the forward that kept a
    # per-layer cache in infer mode too
    INFER_DIGESTS = {
        "residual-bn": "500946936dca5256245c60e7a522f06b33bd3f07f4647af190e50d67dabee7c6",
        "plain-tanh": "258dd922b469f36703c8ed3fed74f92d9aec19b0addd8c56f6402ad9318cb90d",
    }

    @pytest.mark.parametrize("name", sorted(INFER_DIGESTS))
    def test_infer_mode_keeps_no_layer_records(self, name):
        kwargs = {} if name == "residual-bn" else {"use_residual": False, "use_bn": False, "activation": "tanh"}
        model = make_model([16] + [128] * 5 + [16], seed=4, dtype=np.float32, **kwargs)
        rng = np.random.default_rng(5)
        net.forward(model, rng.standard_normal((64, 16)).astype(np.float32), "train")
        out, cache = net.forward(model, rng.standard_normal((300, 16)).astype(np.float32), "infer")
        assert cache == []
        assert hashlib.sha256(out.tobytes()).hexdigest() == self.INFER_DIGESTS[name]

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_infer_peaks_at_three_layer_buffers(self, n):
        # a residual layer holds its skip, its input and its FC output; batch norm normalizes that output in place
        model = make_model([16] + [128] * 5 + [16], seed=4, dtype=np.float32)
        x = np.random.default_rng(5).standard_normal((n, 16)).astype(np.float32)
        net.forward(model, x, "infer")  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            net.forward(model, x, "infer")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * 128 * 4 + n * 16 * 4, f"{peak / (n * 128 * 4):.2f} layer buffers"


class TestLoss:
    def test_zero_when_equal(self):
        x = np.random.default_rng(0).standard_normal((3, 8))
        assert net.loss(x, x) == 0.0

    def test_hand_example_width_four(self):
        # unit error in all four features of one sample: 4/4 = 1
        out = np.ones((1, 4))
        target = np.zeros((1, 4))
        assert net.loss(out, target) == pytest.approx(1.0)

    def test_batch_duplication_invariant(self):
        rng = np.random.default_rng(1)
        out = rng.standard_normal((5, 6))
        tgt = rng.standard_normal((5, 6))
        doubled = net.loss(np.vstack([out, out]), np.vstack([tgt, tgt]))
        assert net.loss(out, tgt) == pytest.approx(doubled)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            net.loss(np.zeros((2, 4)), np.zeros((2, 5)))


class TestInit:
    def test_bn_identity_at_init(self):
        model = make_model()
        for bn in (layer.bn for layer in model.dense):
            if bn is None:
                continue
            np.testing.assert_array_equal(bn.gamma, np.ones_like(bn.gamma))
            np.testing.assert_array_equal(bn.beta, np.zeros_like(bn.beta))
            np.testing.assert_array_equal(bn.running_mean, np.zeros_like(bn.running_mean))
            np.testing.assert_array_equal(bn.running_var, np.ones_like(bn.running_var))

    def test_weight_variance_glorot(self):
        # var(uniform(-s, s)) = s^2/3 = 2/(in+out); check at 1e6 draws
        model = make_model([1024, 1024, 1024, 1024], seed=1, use_residual=False)
        w = model.dense[0].w
        expected = 2.0 / (1024 + 1024)
        assert abs(w.var() - expected) < 0.1 * expected

    def test_same_seed_identical(self):
        m1, m2 = make_model(seed=5), make_model(seed=5)
        for a, b in zip(all_arrays(m1), all_arrays(m2)):
            np.testing.assert_array_equal(a, b)

    def test_mismatched_skip_widths_rejected(self):
        with pytest.raises(ValueError):
            make_model([4, 6, 6, 8, 4])  # skip needs widths[1] == widths[3]

    def test_odd_hidden_count_rejected_with_residual(self):
        with pytest.raises(ValueError):
            make_model([4, 6, 6, 4])

    def test_plain_variant_allows_any_depth(self):
        model = make_model([4, 6, 6, 4], use_residual=False)
        assert model.depth == 3

    @pytest.mark.parametrize("widths", [[16, 0, 16], [0, 0, 16]], ids=["16-0-16", "0-0-16"])
    def test_zero_width_rejected(self, widths):
        with pytest.raises(ValueError, match="widths must be positive"):
            net.init_model(widths, np.random.default_rng(0))

    def test_broken_dimension_chain_rejected(self):
        dense = [net.Dense(np.zeros((4, 6)), np.zeros(6)), net.Dense(np.zeros((5, 4)), np.zeros(4))]
        with pytest.raises(ValueError, match="layer 1 takes width 5, but layer 0 outputs 6"):
            net.DenoiserModel(dense, use_residual=False)


def shares(a, b):
    return np.shares_memory(a, b)


class TestParameterBuffer:
    """Every array lives in its own model's two buffers, and in no other model's."""

    def check_views(self, model):
        assert model.params.flags.c_contiguous and model.stats.flags.c_contiguous
        trainable = model.trainable_arrays()
        assert model.params.size == sum(a.size for a in trainable)
        for a, view in zip(trainable, model.views(model.params)):
            assert shares(a, model.params) and np.array_equal(a, view)
        for bn in (layer.bn for layer in model.dense):
            if bn is not None:
                assert shares(bn.running_mean, model.stats) and shares(bn.running_var, model.stats)

    def check_separate(self, model, source):
        for buf in (model.params, model.stats):
            for other in (source.params, source.stats):
                assert not shares(buf, other)

    @pytest.mark.parametrize("use_bn", [True, False])
    def test_init_model(self, use_bn):
        model = make_model(dtype=np.float32, use_bn=use_bn)
        self.check_views(model)
        assert model.params.dtype == np.float32
        assert model.stats.size == (2 * 2 * 6 if use_bn else 0)  # two BN layers of width 6

    def test_float64_model_keeps_float64_buffers(self):
        model = make_model(dtype=np.float64)
        assert model.params.dtype == model.stats.dtype == np.float64

    def test_load_checkpoint(self, tmp_path):
        model = make_model(seed=2, dtype=np.float32)
        save_checkpoint(model, tmp_path / "m.qdnn")
        loaded = load_checkpoint(tmp_path / "m.qdnn")
        self.check_views(loaded)
        assert loaded.params.tobytes() == model.params.tobytes()
        assert loaded.stats.tobytes() == model.stats.tobytes()

    def test_copy(self):
        model = make_model(seed=3, dtype=np.float32)
        twin = model.copy()
        self.check_views(twin)
        self.check_separate(twin, model)
        assert all(a is not b for a, b in zip(twin.dense, model.dense))
        model.params[...] = 0.0  # training the source leaves the copy alone
        model.stats[...] = 0.0
        assert np.any(twin.params != 0.0) and np.any(twin.stats != 0.0)

    def test_to_half_precision(self):
        model = make_model(seed=4, dtype=np.float32)
        half = net.to_half_precision(model)
        self.check_views(half)
        self.check_separate(half, model)

    def test_construction_copies_the_given_arrays(self):
        w0, w1 = np.ones((4, 6)), np.ones((6, 4))
        model = net.DenoiserModel(
            [net.Dense(w0, np.zeros(6)), net.Dense(w1, np.zeros(4))], use_residual=False
        )
        self.check_views(model)
        assert not shares(model.params, w0) and not shares(model.params, w1)


class TestHalfPrecision:
    def test_representable_values_unchanged(self):
        model = make_model(dtype=np.float32)
        model.dense[0].w[...] = 0.5
        model.dense[0].b[...] = 1.0
        half = net.to_half_precision(model)
        assert half.precision == "fp16"
        np.testing.assert_array_equal(half.dense[0].w, np.full_like(model.dense[0].w, 0.5))
        np.testing.assert_array_equal(half.dense[0].b, np.ones_like(model.dense[0].b))

    def test_relative_perturbation_bound(self):
        # normal-range fp16 rounding stays within 2^-10 relative
        model = make_model(seed=8, dtype=np.float32)
        half = net.to_half_precision(model)
        for a, b in zip(all_arrays(model), all_arrays(half)):
            mask = np.abs(a) > 6.2e-5  # above the fp16 subnormal range
            if np.any(mask):
                rel = np.abs(b[mask] - a[mask]) / np.abs(a[mask])
                assert np.max(rel) <= 2.0**-10

    def test_overflow_saturates_with_warning(self):
        model = make_model(dtype=np.float32)
        model.dense[0].w[0, 0] = 1e6
        with pytest.warns(RuntimeWarning, match="saturated"):
            half = net.to_half_precision(model)
        assert half.dense[0].w[0, 0] == np.float32(np.float16(65504.0))

    def test_zero_model_unchanged(self):
        model = make_model(dtype=np.float32)
        for layer in model.dense:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        half = net.to_half_precision(model)
        x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        out_full, _ = net.forward(model, x, "infer")
        out_half, _ = net.forward(half, x, "infer")
        np.testing.assert_array_equal(out_full, out_half)

    def test_double_conversion_rejected(self):
        half = net.to_half_precision(make_model(dtype=np.float32))
        with pytest.raises(ValueError):
            net.to_half_precision(half)
