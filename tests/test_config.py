import re

import pytest
import yaml

from quantdoa.config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    desk_default,
    load_config,
)
from quantdoa.music import MAX_GRID_POINTS


class TestDefaults:
    def test_desk_default_is_valid(self):
        assert desk_default().validate() == []

    def test_hash_stable_and_sensitive(self):
        a, b = desk_default(), desk_default()
        assert a.config_hash() == b.config_hash()
        b.train.lr = 2e-3
        assert a.config_hash() != b.config_hash()

    def test_round_trip_through_dict(self):
        cfg = desk_default()
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_yaml_round_trip(self, tmp_path):
        cfg = desk_default()
        cfg.music.trials = 77
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=False))
        assert load_config(path).to_dict() == cfg.to_dict()


class TestValidation:
    def test_widths_must_start_at_two_m(self):
        cfg = desk_default()
        cfg.network.widths = [8, 128, 128, 128, 128, 128, 16]
        errs = cfg.validate()
        assert any("2*num_sensors" in e for e in errs)

    def test_widths_must_end_at_two_m(self):
        cfg = desk_default()
        cfg.network.widths = [16, 128, 128, 128, 128, 128, 32]
        assert any("2*num_sensors" in e for e in cfg.validate())

    def test_residual_needs_even_hidden_count(self):
        cfg = desk_default()
        cfg.network.widths = [16, 128, 128, 128, 128, 16]
        assert any("residual" in e for e in cfg.validate())
        cfg.network.use_residual = False
        assert cfg.validate() == []

    def test_unequal_hidden_widths_rejected(self):
        cfg = desk_default()
        cfg.network.widths = [16, 128, 64, 128, 64, 128, 16]
        assert any("equal" in e for e in cfg.validate())

    def test_empty_snr_list(self):
        cfg = desk_default()
        cfg.snr_db = []
        assert any("snr_db" in e for e in cfg.validate())

    def test_too_many_sources_for_music(self):
        cfg = desk_default()
        cfg.sources.count = 8
        assert any("smaller than array.num_sensors" in e for e in cfg.validate())

    def test_grid_must_lie_inside_the_front_half_space(self):
        cfg = desk_default()
        cfg.music.grid_min, cfg.music.grid_max = -90.0, 90.0
        assert any("music grid" in e for e in cfg.validate())

    @pytest.mark.parametrize("step, short", [(30.0, False), (30.5, True), (100.0, True), (5e-324, False)])
    def test_grid_needs_a_point_per_source(self, step, short):
        cfg = desk_default()
        cfg.music.grid_step = step  # -30..30 by 30 holds exactly sources.count = 3 points
        errs = [e for e in cfg.validate() if "fewer than sources.count" in e]
        assert errs == (["music grid has fewer than sources.count = 3 points"] if short else [])

    @pytest.mark.parametrize("step, fits", [
        (0.01, True),
        (0.001, True),
        (60 / (MAX_GRID_POINTS - 1), True),  # -30..30 holds exactly MAX_GRID_POINTS points
        (60 / MAX_GRID_POINTS, False),
        (1e-9, False),
        (5e-324, False),
    ])
    def test_grid_point_count_is_capped(self, step, fits):
        cfg = desk_default()
        cfg.music.grid_step = step
        errs = [e for e in cfg.validate() if "more than" in e]
        assert errs == ([] if fits else [f"music grid has more than {MAX_GRID_POINTS} points: raise music.grid_step"])

    def test_inverted_grid_is_reported_once(self):
        cfg = desk_default()
        cfg.music.grid_min, cfg.music.grid_max = 10.0, -10.0
        assert [e for e in cfg.validate() if "grid" in e] == ["music.grid_max must exceed music.grid_min"]

    def test_infeasible_separation(self):
        cfg = desk_default()
        cfg.sources.min_sep = 40.0
        assert any("min_sep" in e for e in cfg.validate())

    def test_infeasible_music_separation(self):
        cfg = desk_default()
        cfg.music.min_sep = 40.0
        assert any("at music.min_sep" in e for e in cfg.validate())

    @pytest.mark.parametrize("field", ["sources", "music"])
    def test_nan_min_sep_rejected(self, field):
        cfg = desk_default()
        getattr(cfg, field).min_sep = float("nan")
        assert any(f"{field}.min_sep must be >= 0" in e for e in cfg.validate())

    @pytest.mark.parametrize("spacing", [float("inf"), float("nan"), 0.0])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        cfg = desk_default()
        cfg.array.spacing = spacing
        assert "array.spacing must be finite and > 0" in cfg.validate()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65])
    def test_seed_outside_64_bits(self, seed):
        cfg = desk_default()
        cfg.seed = seed
        assert any("seed must fit" in e for e in cfg.validate())

    def test_seed_range_ends_are_valid(self):
        for seed in (0, 2**64 - 1):
            cfg = desk_default()
            cfg.seed = seed
            assert cfg.validate() == []

    @pytest.mark.parametrize("lr", [float("inf"), float("nan"), 0.0, -1e-3])
    def test_lr_must_be_finite_and_positive(self, lr):
        cfg = desk_default()
        cfg.train.lr = lr
        assert "train.lr must be finite and > 0" in cfg.validate()

    @pytest.mark.parametrize("bits", [0, 256, 300, 1100])
    def test_bits_outside_the_header_byte_rejected(self, bits):
        cfg = desk_default()
        cfg.quantizer.bits = bits
        assert any("quantizer.bits must be from 1 to 255" in e for e in cfg.validate())

    @pytest.mark.parametrize("section, leaf, inside, outside, message", [
        ("array", "spacing", 1e306, 1e307, "array.spacing overflows the steering phase"),
        (None, "snr_db", [-737.0], [-738.0], "snr_db values must exceed -737.5 dB"),
        ("sources", "min_sep", 25.0, 26.0, "sources.min_sep is met too rarely for 10000 angle draws"),
        ("music", "min_sep", 25.0, 26.0, "music.min_sep is met too rarely for 10000 angle draws"),
        ("quantizer", "full_scale", 8e307, 1e308, "quantizer step 2*full_scale/2**bits must be finite and > 0"),
        # 5 and 4 units of 2**-1074: the raw-4bit step 2V/16 rounds to 2**-1074 and to 0
        ("quantizer", "full_scale", 2.5e-323, 2e-323, "quantizer step 2*full_scale/2**bits must be finite and > 0"),
        ("quantizer", "full_scale", 2.5e-323, -5e-324, "quantizer.full_scale must be finite and > 0 when set"),
    ])
    def test_value_just_inside_a_limit_is_accepted(self, section, leaf, inside, outside, message):
        cfg = desk_default()
        node = cfg if section is None else getattr(cfg, section)
        setattr(node, leaf, inside)
        assert cfg.validate() == []
        setattr(node, leaf, outside)
        errs = cfg.validate()
        assert len(errs) == 1 and message in errs[0]

    def test_quantizer_step_must_not_underflow(self):
        cfg = desk_default()
        cfg.quantizer.full_scale = 2.5e-323  # the step 2V/2**bits is 5e-324 at four bits
        assert cfg.validate() == []
        cfg.quantizer.bits = 8
        step = "quantizer step 2*full_scale/2**bits must be finite and > 0"
        assert cfg.validate() == [f"{step} for bits in [1, 2, 3, 4, 8]"]

    def test_one_source_takes_any_separation(self):
        cfg = desk_default()
        cfg.sources.count, cfg.sources.min_sep = 1, 1e300
        assert cfg.validate() == []


class TestOverrides:
    def test_scalar_override(self):
        cfg = apply_overrides(desk_default(), ["train.lr=0.0005", "music.trials=13"])
        assert cfg.train.lr == 0.0005
        assert cfg.music.trials == 13

    def test_list_override(self):
        cfg = apply_overrides(desk_default(), ["network.widths=[16, 64, 64, 16]"])
        assert cfg.network.widths == [16, 64, 64, 16]

    def test_null_override(self):
        cfg = apply_overrides(desk_default(), ["music.min_sep=2.5"])
        assert cfg.music.min_sep == 2.5
        cfg = apply_overrides(cfg, ["music.min_sep=null"])
        assert cfg.music.min_sep is None

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="unknown config path"):
            apply_overrides(desk_default(), ["train.momentum=0.9"])

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config path"):
            apply_overrides(desk_default(), ["optimizer.lr=1"])

    def test_bad_form_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(desk_default(), ["train.lr"])

    @pytest.mark.parametrize("override, message", [
        ("train.epochs=many", "train.epochs must be an integer"),
        ("network.use_bn=1", "network.use_bn must be true or false"),
        ("network.activation=1", "network.activation must be a string"),
        ("network.widths=[16, 32.5, 16]", "network.widths must be a list of integers"),
        ("network.widths=[16, true, 16]", "network.widths must be a list of integers"),
        ("train=5", "expected a mapping at train"),
        ("train.lr=[1", "cannot parse override value"),
        ("seed=2024-13-45", "cannot parse override value"),  # YAML's date constructor raises ValueError
    ], ids=["int", "bool", "str", "int-list-float", "int-list-bool", "section", "unparsable", "impossible-date"])
    def test_type_mismatch_rejected(self, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            apply_overrides(desk_default(), [override])

    def test_original_untouched(self):
        cfg = desk_default()
        apply_overrides(cfg, ["train.lr=0.5"])
        assert cfg.train.lr == 1e-3

    def test_exponent_strings_are_numbers(self):
        cfg = apply_overrides(desk_default(), [
            "train.lr=1e-4", "music.min_sep=2E0", "snr_db=[-2E+3, 1e1, 3.5e1]",
        ])
        assert cfg.train.lr == 1e-4
        assert cfg.music.min_sep == 2.0
        assert cfg.snr_db == [-2000.0, 10.0, 35.0]

    def test_exponent_string_hashes_as_its_number(self):
        spelled = apply_overrides(desk_default(), ["train.lr=1e-4"])
        plain = apply_overrides(desk_default(), ["train.lr=0.0001"])
        assert spelled.config_hash() == plain.config_hash()

    @pytest.mark.parametrize(
        "raw", ["nan", "inf", "-inf", "Infinity", "1e-4x", "e5", "1e", "'1.5'", "'1e-4 '"]
    )
    @pytest.mark.parametrize("key", ["train.lr", "music.min_sep", "snr_db"])
    def test_other_strings_rejected(self, key, raw):
        value = f"[{raw}]" if key == "snr_db" else raw
        with pytest.raises(ConfigError, match="must be"):
            apply_overrides(desk_default(), [f"{key}={value}"])

    def test_yaml_nan_and_inf_keep_their_meaning(self):
        cfg = apply_overrides(desk_default(), ["snr_db=[.inf, -.inf]", "music.min_sep=.nan"])
        assert cfg.snr_db == [float("inf"), float("-inf")]
        assert cfg.music.min_sep != cfg.music.min_sep

    def test_config_file_exponent_and_hash(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("train:\n  lr: 1e-4\nsnr_db: [1e1, 5E+1]\n")
        cfg = load_config(path)
        assert (cfg.train.lr, cfg.snr_db) == (1e-4, [10.0, 50.0])
        plain = desk_default()
        plain.train.lr, plain.snr_db = 0.0001, [10.0, 50.0]
        assert cfg.config_hash() == plain.config_hash()


class TestStrictParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ScenarioConfig.from_dict({"sedd": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="network"):
            ScenarioConfig.from_dict({"network": {"width": [16, 16]}})

    def test_derived_quantizer_spec(self):
        cfg = desk_default()
        spec = cfg.quantizer_spec()
        assert spec.bits == 1
        assert spec.full_scale == pytest.approx(3.894427191, abs=1e-8)
        cfg.quantizer.full_scale = 2.5
        assert cfg.quantizer_spec(bits=3).full_scale == 2.5

    def test_eval_min_sep_fallback(self):
        cfg = desk_default()
        assert cfg.eval_min_sep() == cfg.sources.min_sep
        cfg.music.min_sep = 4.0
        assert cfg.eval_min_sep() == 4.0
