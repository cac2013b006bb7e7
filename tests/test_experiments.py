import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from quantdoa import experiments, network as net
from quantdoa.config import DOMAIN_TRIALS, ConfigError, apply_overrides, derived_seed, desk_default
from quantdoa.dataset import build_dataset
from quantdoa.experiments import (
    CurvePoint,
    DEFAULT_SPECTRUM_ANGLES,
    DOA_SERIES,
    ablation_points,
    ablation_suite,
    compression_report,
    denoise_snapshots,
    eval_doa,
    eval_reconstruction,
    evaluate_loss,
    initial_model,
    make_transform,
    reconstruction_loss_by_snr,
    spectrum_compare,
    timing_points,
    train,
    width_sweep_variants,
    write_curves_csv,
)
from quantdoa.music import sample_covariance, scan_grid
from quantdoa.quantizer import QuantizerSpec
from quantdoa.signal_model import (
    draw_source_angles,
    from_real_batch,
    noise_variance,
    steering_matrix,
    synthesize,
    to_real_batch,
)

from curves import read_curves_csv
from model_arrays import all_arrays
from music_reference import estimate_doa


def tiny_config(**kwargs):
    cfg = desk_default()
    cfg.data.train_count = 400
    cfg.data.test_count = 100
    cfg.network.widths = [16, 32, 32, 32, 16]
    cfg.train.epochs = 8
    cfg.music.trials = 20
    for key, value in kwargs.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = tiny_config()
    train_set = build_dataset(cfg, "train")
    test_set = build_dataset(cfg, "test")
    result = train(cfg, train_set, test_set)
    return cfg, train_set, test_set, result


class TestTrain:
    def test_deterministic_given_seed(self, tiny_setup):
        cfg, train_set, test_set, first = tiny_setup
        second = train(cfg, train_set, test_set)
        assert [(p.series, p.x, p.y) for p in first.curves] == [
            (p.series, p.x, p.y) for p in second.curves
        ]
        for a, b in zip(all_arrays(first.model), all_arrays(second.model)):
            np.testing.assert_array_equal(a, b)

    def test_loss_improves_from_init(self, tiny_setup):
        _, _, _, result = tiny_setup
        tl = [p.y for p in result.curves if p.series == "train-loss"]
        assert tl[-1] < tl[0]
        assert not result.diverged

    def test_curves_are_finite(self, tiny_setup):
        _, _, _, result = tiny_setup
        assert all(np.isfinite(p.y) for p in result.curves)

    def test_moving_average_nonincreasing(self):
        cfg = tiny_config()
        cfg.data.train_count = 800
        cfg.train.epochs = 25
        train_set = build_dataset(cfg, "train")
        result = train(cfg, train_set, build_dataset(cfg, "test"))
        tl = np.array([p.y for p in result.curves if p.series == "train-loss"])
        window = 10
        ma = np.convolve(tl, np.ones(window) / window, mode="valid")
        assert np.all(np.diff(ma) <= 1e-6)

    def test_divergence_flagged_and_model_finite(self):
        cfg = tiny_config()
        cfg.train.lr = 1e9
        cfg.train.epochs = 4
        train_set = build_dataset(cfg, "train")
        test_set = build_dataset(cfg, "test")
        result = train(cfg, train_set, test_set)
        assert result.diverged
        for arr in all_arrays(result.model):
            assert np.all(np.isfinite(arr))
        assert all(np.isfinite(p.y) for p in result.curves)

    @pytest.mark.parametrize("lr", [1e30, float("inf")])
    def test_divergence_at_the_end_of_an_epoch_rolls_back(self, lr):
        cfg = tiny_config(data__train_count=64, train__epochs=2, train__lr=lr)
        train_set = build_dataset(cfg, "train")
        test_set = build_dataset(cfg, "test")
        result = train(cfg, train_set, test_set)  # one step per epoch
        assert result.diverged
        assert np.isfinite(result.model.params).all()
        assert all(np.isfinite(p.y) for p in result.curves)
        assert np.isfinite(result.final_test_loss)

    def test_final_test_loss_is_the_last_epochs_test_loss(self, tiny_setup):
        _, _, test_set, result = tiny_setup
        last = [p for p in result.curves if p.series == "test-loss"][-1]
        assert last.x == result.curves[-1].x  # the last epoch is always evaluated
        assert result.final_test_loss == last.y == evaluate_loss(result.model, test_set)

    def test_diverged_final_test_loss_scores_the_retained_model(self):
        cfg = tiny_config()
        cfg.train.lr = 1e9
        cfg.train.epochs = 4
        train_set = build_dataset(cfg, "train")
        test_set = build_dataset(cfg, "test")
        result = train(cfg, train_set, test_set)
        assert result.diverged
        assert result.final_test_loss == evaluate_loss(result.model, test_set)

    def test_step_activations_die_before_adam_and_evaluation(self, monkeypatch):
        cfg = tiny_config(train__epochs=2)  # 400 records at batch 256: two steps an epoch
        train_set, test_set = build_dataset(cfg, "train"), build_dataset(cfg, "test")
        forward, made, alive = net.forward, [], []

        def recording_forward(model, x, mode="infer"):
            out, cache = forward(model, x, mode)
            if mode == "train":  # every array of the step but the model's own gamma views
                arrays = [out] + [a for c in cache for a in (c.x, c.out, *(c.bn or ()))]
                made.extend(weakref.ref(a) for a in arrays if not np.may_share_memory(a, model.params))
            return out, cache

        def counting(fn):
            def call(*args):
                alive.append(sum(ref() is not None for ref in made))
                return fn(*args)
            return call

        monkeypatch.setattr(net, "forward", recording_forward)
        monkeypatch.setattr(experiments, "adam_step", counting(experiments.adam_step))
        monkeypatch.setattr(experiments, "evaluate_loss", counting(experiments.evaluate_loss))
        train(cfg, train_set, test_set)
        assert alive == [0, 0, 0] * 2  # per epoch: two Adam steps, then the test evaluation


# SHA-256 of the trained arrays (running statistics included) written by
# the stage-by-stage forward/backward that the per-layer loop replaced.
TRAINED_DIGESTS = {
    "full": "03bef87544433019d5e66dbe9a5d6abe56410a8c879f671c34d89db9fc07d88c",
    "no-bn": "3ff8df1ffeed2fd08f6f886e4b95166dcf43c22bb4fb9dfe49c0cb6b566533ff",
    "no-skip": "e5ba70abba94926a0fa68aa4b485d2ba6b6095bd40e688809bd12444d70bec86",
    "plain": "db00ed966e4b3fcca89a9268d7bd01b1a204e441155856708288c7fb838eed11",
    "tanh": "35011dd5ed6e6c55247c0ccced3d9f72b72dc5f3b6f3efa4fcb41c25d7e80cf8",
    "sigmoid": "e3731670032615975949798cbc6b34f54463451d6982b609e7e762f7ef75ff18",
    "no-input-bias": "1d2d4e483a0fefe5e22aa8127af88cd95250b5b5e93ae902f299e6a838983da0",
    "deep-no-bn-batch16": "02fe0f01fc86e49f64ca754523b74dc25ba870426c39cd32f905138276c600fc",
}
DIGEST_VARIANTS = {
    "full": {},
    "no-bn": {"use_bn": False},
    "no-skip": {"use_residual": False},
    "plain": {"use_bn": False, "use_residual": False},
    "tanh": {"activation": "tanh"},
    "sigmoid": {"activation": "sigmoid"},
    "no-input-bias": {"input_bias": False},
    "deep-no-bn-batch16": {"widths": [16] + [32] * 11 + [16], "use_bn": False},
}


def digest_config(name):
    cfg = desk_default()
    cfg.data.train_count = 256
    cfg.data.test_count = 64
    cfg.network.widths = [16, 32, 32, 32, 16]
    cfg.train.epochs = 2
    cfg.train.batch_size = 16 if name == "deep-no-bn-batch16" else 32
    for key, value in DIGEST_VARIANTS[name].items():
        setattr(cfg.network, key, value)
    return cfg


@pytest.fixture(scope="module")
def digest_data():
    cfg = digest_config("full")
    return build_dataset(cfg, "train"), build_dataset(cfg, "test")


@pytest.mark.parametrize("name", sorted(TRAINED_DIGESTS))
def test_trained_parameters_match_pinned_digest(name, digest_data):
    result = train(digest_config(name), *digest_data)
    blob = b"".join(a.tobytes() for a in all_arrays(result.model))
    assert hashlib.sha256(blob).hexdigest() == TRAINED_DIGESTS[name]


class TestEvalReconstruction:
    def test_zero_model_loss_equals_target_power(self, tiny_setup):
        cfg, _, test_set, _ = tiny_setup
        model = net.init_model(cfg.network.widths, rng=np.random.default_rng(0))
        for layer in model.dense:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        by_snr = reconstruction_loss_by_snr(model, test_set)
        for snr, idx in test_set.snr_buckets().items():
            psi = test_set.targets[idx].astype(np.float64)
            expected = float(np.mean(np.sum(psi**2, axis=1) / psi.shape[1]))
            assert by_snr[snr] == pytest.approx(expected, rel=1e-12)

    def test_two_pass_agreement(self, tiny_setup):
        # independent streaming recomputation of the bucket means
        _, _, test_set, result = tiny_setup
        by_snr = reconstruction_loss_by_snr(result.model, test_set)
        out, _ = net.forward(result.model, test_set.inputs, mode="infer")
        for snr, idx in test_set.snr_buckets().items():
            total = 0.0
            for i in idx:
                diff = out[i].astype(np.float64) - test_set.targets[i].astype(np.float64)
                total += float(np.dot(diff, diff)) / diff.size
            assert abs(by_snr[snr] - total / idx.size) < 1e-12

    def test_curvepoints_sorted_by_snr(self, tiny_setup):
        _, _, test_set, result = tiny_setup
        points = eval_reconstruction(result.model, test_set)
        xs = [p.x for p in points]
        assert xs == sorted(xs)
        assert all(p.series == "recon-loss" for p in points)


class TestTransforms:
    def test_unquantized_is_identity(self):
        f = make_transform("unquantized", lambda b: QuantizerSpec(b, 1.0))
        data = np.ones((3, 2), dtype=complex)
        np.testing.assert_array_equal(f(data), data)

    def test_raw_tag_quantizes(self):
        f = make_transform("raw-1bit", lambda b: QuantizerSpec(b, 1.0))
        data = np.array([[0.3 + 0.9j]])
        np.testing.assert_array_equal(f(data), np.array([[0.0 + 1.0j]]))

    def test_recon_tag_requires_model(self):
        with pytest.raises(ValueError, match="model"):
            make_transform("recon-1bit", lambda b: QuantizerSpec(b, 1.0))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown series"):
            make_transform("midrise-2bit", lambda b: QuantizerSpec(b, 1.0))

    def test_denoise_maps_over_a_stack(self, tiny_setup):
        _, _, _, result = tiny_setup
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((3, 8, 5)) + 1j * rng.standard_normal((3, 8, 5))
        out = denoise_snapshots(result.model, stack)
        for data, one in zip(stack, out):
            assert one.tobytes() == np.ascontiguousarray(denoise_snapshots(result.model, data)).tobytes()

    def test_denoise_runs_each_snapshot_independently(self, tiny_setup):
        cfg, _, _, result = tiny_setup
        rng = np.random.default_rng(0)
        data = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        full = denoise_snapshots(result.model, data)
        single = denoise_snapshots(result.model, data[:, 2:3])
        np.testing.assert_allclose(full[:, 2], single[:, 0], atol=1e-6)


def per_trial_reference(model, cfg, tag, snr_index, snr, trials):
    """One series at one SNR the slow way: each trial synthesized and scanned alone.

    Returns the per-trial MSEs and how many observed covariances have
    rank <= K (their spectra carry exact ties and flat stretches).
    """
    geom, k = cfg.geometry(), cfg.sources.count
    grid = scan_grid(cfg.music.grid_min, cfg.music.grid_max, cfg.music.grid_step)
    steering = steering_matrix(grid, geom)
    transform = make_transform(tag, cfg.quantizer_spec, model)
    base_seed = derived_seed(cfg.seed, DOMAIN_TRIALS) ^ (snr_index << 32)
    mses, low_rank = [], 0
    for t in range(trials):
        rng = np.random.default_rng(base_seed ^ t)
        angles = draw_source_angles(k, cfg.angle_range(), cfg.eval_min_sep(), rng)
        clean = synthesize(angles, geom, noise_variance(snr), cfg.music.num_snapshots, rng)
        observed = transform(clean)
        low_rank += np.linalg.matrix_rank(sample_covariance(observed)) <= k
        result = estimate_doa(observed, k, geom, grid, truth_deg=angles, steering=steering)
        mses.append(result.mse)
    return np.array(mses), low_rank


# SHA-256 of each series' per-trial MSEs at 10 then 50 dB, 50 trials, as
# written by the per-trial engine that stacked chunk scoring replaced.
EVAL_DOA_DIGESTS = {
    "unquantized": "943e090940f1c2ee7a6825c2f1a5d61502b5e4903ecf05540e02d04ce86db0ca",
    "raw-1bit": "67f97649856164d9998347d2d8d6a66224482fb529fc9d4446929b9c5e148f11",
    "raw-2bit": "e841f8b37b551e85ccc8e4ffb8ae530c8b777b450701496c9fc7f24cd7370823",
    "raw-3bit": "b362e822f52aed2e6e4994fd1b65abb1649c2ca84a3e4559bf863ca9861187c1",
    "raw-4bit": "c04d80fc0a6fe0a5e197160446f1c869d5731df45227eb51f105ab9d955bce52",
    "recon-1bit": "dade7280c861c1c8c2407a41d4a091c1e02071869e8e25e72598d43bd7b95842",
}


class TestEvalDoa:
    def test_mses_match_pinned_digests(self, tiny_setup):
        cfg, train_set, _, result = tiny_setup
        ev = apply_overrides(cfg, [])
        ev.music.min_sep = 4.0
        ev.quantizer.full_scale = train_set.full_scale
        ev.snr_db, ev.music.trials = [10.0, 50.0], 50
        _, details = eval_doa(result.model, ev)
        for tag in DOA_SERIES:
            blob = details[(tag, 10.0)].mses.tobytes() + details[(tag, 50.0)].mses.tobytes()
            assert hashlib.sha256(blob).hexdigest() == EVAL_DOA_DIGESTS[tag], tag

    def test_matches_per_trial_reference(self, tiny_setup):
        cfg, train_set, _, result = tiny_setup
        ev = apply_overrides(cfg, [])
        ev.music.min_sep = 4.0
        ev.quantizer.full_scale = train_set.full_scale
        snrs, trials = [10.0, 50.0], 30
        ev.snr_db, ev.music.trials = snrs, trials
        _, details = eval_doa(result.model, ev)
        for snr_index, snr in enumerate(snrs):
            for tag in DOA_SERIES:
                mses, low_rank = per_trial_reference(
                    result.model, ev, tag, snr_index, snr, trials
                )
                np.testing.assert_array_equal(details[(tag, snr)].mses, mses, err_msg=tag)
                if tag == "raw-1bit":
                    assert low_rank > 0, "no raw-1bit tie case among the trials"

    def test_all_series_present_and_finite(self, tiny_setup):
        cfg, train_set, _, result = tiny_setup
        ev = apply_overrides(cfg, [])
        ev.music.min_sep = 4.0
        ev.quantizer.full_scale = train_set.full_scale
        ev.snr_db, ev.music.trials = [50.0], 10
        points, details = eval_doa(
            result.model, ev, series=("unquantized", "raw-1bit", "recon-1bit")
        )
        assert {p.series for p in points} == {"unquantized", "raw-1bit", "recon-1bit"}
        assert all(np.isfinite(p.y) for p in points)
        assert details[("unquantized", 50.0)].mses.shape == (10,)

    def test_paired_and_deterministic(self, tiny_setup):
        cfg, train_set, _, result = tiny_setup
        ev = apply_overrides(cfg, [])
        ev.quantizer.full_scale = train_set.full_scale
        ev.snr_db, ev.music.trials = [30.0], 8
        _, d1 = eval_doa(result.model, ev, series=("unquantized",))
        _, d2 = eval_doa(result.model, ev, series=("unquantized",))
        np.testing.assert_array_equal(
            d1[("unquantized", 30.0)].mses, d2[("unquantized", 30.0)].mses
        )

    def test_grid_short_of_the_source_angles_rejected_before_any_trial(self):
        # library callers skip validate(); eval_doa makes the same check
        cfg = desk_default()
        cfg.music.grid_min, cfg.music.grid_max = -10.0, 10.0
        with pytest.raises(ConfigError, match=r"\[-30.0, 30.0\] fall outside the scan range \[-10.0, 10.0\]"):
            eval_doa(None, cfg, series=("unquantized",))

    def test_an_accepted_snapshot_count_fails_only_for_want_of_memory(self):
        # validate() bounds one trial's snapshots, and run_trials's blocks then hold one trial, so what is left
        # is an allocation the machine cannot make, not an array numpy refuses to describe (ValueError)
        cfg = desk_default()
        cfg.snr_db, cfg.music.trials, cfg.music.num_snapshots = [10.0], 8, 2**56 - 1
        assert cfg.validate() == []
        with pytest.raises(MemoryError):
            eval_doa(None, cfg, series=("unquantized",))

    def test_4000_trials_peak_within_the_chunk_budget(self):
        # A 3,906-trial block of desk records puts 19,530 snapshot rows through the 128-wide denoiser, in
        # calls of at most 7,812 rows; in one call they peaked at 60.1 MiB.
        cfg = desk_default()
        cfg.snr_db, cfg.music.trials = [10.0], 2
        model = initial_model(cfg)
        eval_doa(model, cfg)  # first-call imports and caches stay out of the peak
        cfg.music.trials = 4000
        tracemalloc.start()
        try:
            eval_doa(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 35 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestSpectrumCompare:
    def test_default_angles_are_the_demo_triple(self):
        assert DEFAULT_SPECTRUM_ANGLES == (-18.9346, 8.6346, 9.9462)

    def test_series_share_grid_and_are_finite(self, tiny_setup):
        cfg, _, _, result = tiny_setup
        points, trial_seed = spectrum_compare(result.model, cfg, snr_db=50.0)
        by_series = {}
        for p in points:
            by_series.setdefault(p.series, []).append(p.x)
        grids = list(by_series.values())
        for g in grids[1:]:
            assert g == grids[0]
        assert all(np.isfinite(p.y) and p.y > 0 for p in points)
        assert trial_seed >= 0

    def test_angles_outside_range_rejected(self, tiny_setup):
        cfg, _, _, result = tiny_setup
        with pytest.raises(ValueError, match="outside"):
            spectrum_compare(result.model, cfg, angles_deg=(-50.0, 0.0, 10.0))


class TestCompression:
    def test_payload_ratio_half_and_small_change(self, tiny_setup):
        _, _, test_set, result = tiny_setup
        points, _ = compression_report(result.model, test_set)
        ratio = [p for p in points if p.series == "payload-ratio"]
        assert len(ratio) == 1 and ratio[0].y == 0.5
        rel = [p.y for p in points if p.series == "rel-change"]
        assert all(r < 0.10 for r in rel)

    def test_zero_model_unchanged_by_fp16(self, tiny_setup):
        cfg, _, test_set, _ = tiny_setup
        model = net.init_model(cfg.network.widths, rng=np.random.default_rng(0))
        for layer in model.dense:
            layer.w[...] = 0.0
            layer.b[...] = 0.0
        points, _ = compression_report(model, test_set)
        f32 = {p.x: p.y for p in points if p.series == "fp32-loss"}
        f16 = {p.x: p.y for p in points if p.series == "fp16-loss"}
        assert f32 == f16


class TestAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        cfg = tiny_config()
        cfg.data.train_count = 300
        cfg.train.epochs = 3
        train_set = build_dataset(cfg, "train")
        test_set = build_dataset(cfg, "test")
        variants = [
            ("no-bn", ["network.use_bn=false"]),
            ("width-16", ["network.widths=[16, 16, 16, 16, 16]"]),
        ]
        return ablation_suite(cfg, variants, train_set, test_set)

    def test_base_included_exactly_once(self, rows):
        assert list(rows).count("base") == 1

    def test_base_first_then_variants_in_the_order_given(self, rows):
        assert list(rows) == ["base", "no-bn", "width-16"]
        assert [p.series for p in timing_points(rows)] == list(rows)
        assert [p.series for p in ablation_points(rows)] == [
            s for name in rows for s in (name, f"{name}/diverged")
        ]

    def test_rows_carry_finite_losses_and_times(self, rows):
        for row in rows.values():
            assert np.isfinite(row.final_test_loss)
            assert row.train_seconds > 0

    def test_points_have_divergence_flags(self, rows):
        points = ablation_points(rows)
        names = {p.series for p in points}
        for name in rows:
            assert name in names
            assert f"{name}/diverged" in names
        flags = {p.series: p.y for p in points if p.series.endswith("/diverged")}
        assert set(flags.values()) <= {0.0, 1.0}

    def test_duplicate_base_rejected(self):
        cfg = tiny_config()
        ds = build_dataset(cfg, "train")
        with pytest.raises(ValueError, match="exactly once"):
            ablation_suite(cfg, [("base", []), ("base", [])], ds, ds)

    def test_width_sweep_variant_names(self):
        cfg = tiny_config()
        variants = width_sweep_variants(cfg, [16, 32, 64])
        assert [name for name, _ in variants] == ["width-16", "base", "width-64"]

    def test_timing_points_one_per_variant(self, rows):
        points = timing_points(rows)
        assert len(points) == len(rows)


class TestCsv:
    def test_write_read_round_trip(self, tmp_path):
        cfg = tiny_config()
        points = [CurvePoint("a", 1.0, 0.25, 0.001), CurvePoint("b", 2.5, 1e-7)]
        path = tmp_path / "curve.csv"
        write_curves_csv(path, points, cfg, extra_header={"note": "hello"})
        loaded, header = read_curves_csv(path)
        assert header["config_hash"] == cfg.config_hash()
        assert header["seed"] == str(cfg.seed)
        assert header["note"] == "hello"
        assert [(p.series, p.x, p.y, p.spread) for p in loaded] == [
            ("a", 1.0, 0.25, 0.001),
            ("b", 2.5, 1e-7, 0.0),
        ]

    def test_byte_identical_rewrites(self, tmp_path):
        cfg = tiny_config()
        points = [CurvePoint("s", float(i), 1.0 / (i + 3)) for i in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curves_csv(p1, points, cfg)
        write_curves_csv(p2, points, cfg)
        assert p1.read_bytes() == p2.read_bytes()
