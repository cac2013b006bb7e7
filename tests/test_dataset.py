import dataclasses
import hashlib
import math
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from quantdoa import dataset
from quantdoa.config import apply_overrides, desk_default
from quantdoa.dataset import (
    DatasetFormatError,
    build_dataset,
    generate_record,
    load_dataset,
    save_dataset,
)
from quantdoa.quantizer import quantize_complex
from quantdoa.signal_model import draw_source_angles, from_real_batch, noise_variance, synthesize

from accessors import quantizer_spec

DATA = Path(__file__).parent / "data"
FIELDS = ("inputs", "targets", "snr_db", "angles_deg", "record_seeds")


def scenario(seed, bits=1, k=3, snr_db=None, train=600, test=100):
    cfg = desk_default()
    cfg.seed = seed
    cfg.quantizer.bits = bits
    cfg.sources.count = k
    if snr_db is not None:
        cfg.snr_db = snr_db
    cfg.data.train_count = train
    cfg.data.test_count = test
    return cfg


PINNED = {
    "seed1-1bit": scenario(1),
    "seed2-1bit": scenario(2),
    "seed3-1bit": scenario(3),
    "seed1-2bit": scenario(1, bits=2),
    "seed2-k1": scenario(2, k=1),
    "seed3-inf-2bit": scenario(3, bits=2, snr_db=[10.0, math.inf, 30.0]),
}
# SHA-256 of the saved splits as the one-record-at-a-time generator wrote
# them; block generation and packed I/O must reproduce every byte.
PINNED_DIGESTS = {
    ("seed1-1bit", "train"): "36c77c6ec05019620037640364bf6b701b9e88b1e0d4c2f4ac0685d1c5772b9d",
    ("seed1-1bit", "test"): "90805a152880ff713d832ae553b72c3de069770af44e6e09e9b9f112d270a720",
    ("seed2-1bit", "train"): "7c59741d88c6b5afce08c32fdf300dc74e4ee9f61e2498dcc00636fb77d32947",
    ("seed2-1bit", "test"): "daa41de1853ec0977fbcba3b0e2df785560767e7e05a712380919ebdde6b781e",
    ("seed3-1bit", "train"): "90709d5752a912f70eb8e4487e99f5c657a45b7a6068b40acf6865233e5701ca",
    ("seed3-1bit", "test"): "b352cc9ba8e9d5dcc14ca1121f5fae3a8ee0cc5fb2262a47fa9cde19ee347dd7",
    ("seed1-2bit", "train"): "94ec05409423c2f14fe25f8ab9ed0a18487cdb72317cf4a914bbdbf1aaf8d710",
    ("seed1-2bit", "test"): "96d7ce38616cf7294413ecbcee477faff807b6025e079d43427fe566bd8d7c8b",
    ("seed2-k1", "train"): "faf8bf9a0a90b5b5b989937eb981b319f60a44e9da829e02ab280bb93ede322f",
    ("seed2-k1", "test"): "620dce071b7257319eb287902c163cf95a121c6086c791043a3a2b6b2c3a5e56",
    ("seed3-inf-2bit", "train"): "977f5bf7977fce071bf965e8d9c9153805c003a1e1d39fa827a374878dc560fe",
    ("seed3-inf-2bit", "test"): "4d42346d4e1846c5f99d79701781130a3a4c47587ef221e80a640d39bd7d7b47",
}


def per_record_reference(seed, cfg, snr_db):
    """The one-record-at-a-time generator that block generation replaced."""
    rng = np.random.default_rng(seed)
    angles = draw_source_angles(cfg.sources.count, cfg.angle_range(), cfg.sources.min_sep, rng)
    column = synthesize(angles, cfg.geometry(), noise_variance(snr_db), 1, rng)[:, 0]
    quantized = quantize_complex(column, cfg.quantizer_spec())
    return (
        np.concatenate([quantized.real, quantized.imag]).astype(np.float32),
        np.concatenate([column.real, column.imag]).astype(np.float32),
        angles,
    )


def saved_digest(ds, path):
    save_dataset(ds, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reseal(path, offset, fmt, value):
    """Overwrite one header field and recompute the CRC, so only the field is wrong."""
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def small_config():
    cfg = desk_default()
    cfg.data.train_count = 50
    cfg.data.test_count = 20
    return cfg


@pytest.fixture(scope="module")
def small_train(small_config):
    return build_dataset(small_config, "train")


class TestBuild:
    def test_even_snr_split(self, small_config):
        cfg = apply_overrides(small_config, [])
        cfg.data.train_count = 10
        ds = build_dataset(cfg, "train")
        values, counts = np.unique(ds.snr_db, return_counts=True)
        assert values.tolist() == sorted(cfg.snr_db)
        assert counts.tolist() == [2, 2, 2, 2, 2]

    def test_target_is_input_minus_quantization_noise(self, small_train):
        spec = quantizer_spec(small_train)
        for i in range(0, small_train.count, 7):
            clean = from_real_batch(small_train.targets[i : i + 1])[:, 0]
            q = quantize_complex(clean, spec) - clean
            observed = from_real_batch(small_train.inputs[i : i + 1])[:, 0]
            np.testing.assert_allclose(observed, clean + q, atol=1e-7)

    def test_record_reproducible_from_seed(self, small_config, small_train):
        i = 13
        inp, tgt, ang = generate_record(
            int(small_train.record_seeds[i]),
            geom=small_config.geometry(),
            num_sources=small_config.sources.count,
            angle_range=small_config.angle_range(),
            min_sep=small_config.sources.min_sep,
            snr_db=float(small_train.snr_db[i]),
            qspec=quantizer_spec(small_train),
        )
        np.testing.assert_array_equal(inp, small_train.inputs[i])
        np.testing.assert_array_equal(tgt, small_train.targets[i])
        np.testing.assert_array_equal(ang, small_train.angles_deg[i])

    def test_angles_respect_separation(self, small_train):
        gaps = np.diff(np.sort(small_train.angles_deg, axis=1), axis=1)
        assert np.all(gaps >= 1.0)

    def test_splits_differ(self, small_config):
        train = build_dataset(small_config, "train")
        test = build_dataset(small_config, "test")
        assert not np.array_equal(train.inputs[:20], test.inputs[:20])

    def test_unknown_split_rejected(self, small_config):
        with pytest.raises(ValueError):
            build_dataset(small_config, "validation")

    def test_full_scale_recorded(self, small_config, small_train):
        assert small_train.full_scale == small_config.resolved_full_scale()
        assert small_train.bits == 1


class TestFileFormat:
    def test_round_trip(self, small_train, tmp_path):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.inputs, small_train.inputs)
        np.testing.assert_array_equal(loaded.targets, small_train.targets)
        np.testing.assert_array_equal(loaded.snr_db, small_train.snr_db)
        np.testing.assert_array_equal(loaded.angles_deg, small_train.angles_deg)
        np.testing.assert_array_equal(loaded.record_seeds, small_train.record_seeds)
        assert loaded.snr_list == small_train.snr_list
        assert loaded.bits == small_train.bits
        assert loaded.full_scale == small_train.full_scale

    def test_byte_identical_rebuild(self, small_config, tmp_path):
        p1, p2 = tmp_path / "a.qdst", tmp_path / "b.qdst"
        save_dataset(build_dataset(small_config, "train"), p1)
        save_dataset(build_dataset(small_config, "train"), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_bytes(self, small_config, tmp_path):
        cfg2 = apply_overrides(small_config, [])
        cfg2.seed += 1
        p1, p2 = tmp_path / "a.qdst", tmp_path / "b.qdst"
        save_dataset(build_dataset(small_config, "train"), p1)
        save_dataset(build_dataset(cfg2, "train"), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_corruption_detected(self, small_train, tmp_path):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load_dataset(path)

    def test_truncation_detected(self, small_train, tmp_path):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_bad_magic_detected(self, small_train, tmp_path):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        reseal(path, 0, "4s", b"NOPE")
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_snr_buckets(self, small_train):
        buckets = small_train.snr_buckets()
        assert sum(idx.size for idx in buckets.values()) == small_train.count
        for snr, idx in buckets.items():
            assert np.all(small_train.snr_db[idx] == snr)

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [
            (14, "<Q", 2**40),      # record count: 64 TiB of records
            (14, "<Q", 2**64 - 1),
            (14, "<Q", 51),         # one record more than the body holds
            (14, "<Q", 49),         # one record less: trailing bytes
            (6, "<I", 2**29),       # M: 8 GiB records
            (6, "<I", 2**31),       # M: a record shape numpy cannot hold
            (10, "<I", 2**32 - 1),  # K
        ],
    )
    def test_hostile_header_rejected_before_allocation(self, small_train, tmp_path, offset, fmt, value):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        reseal(path, offset, fmt, value)
        with pytest.raises(DatasetFormatError, match="header promises|record shape"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "field, fmt, value",
        [
            ("full_scale", "<d", math.inf),
            ("full_scale", "<d", math.nan),
            ("full_scale", "<d", 0.0),
            ("full_scale", "<d", -1.0),
            ("bits", "<B", 0),
        ],
    )
    def test_impossible_quantizer_header_rejected(self, small_train, tmp_path, field, fmt, value):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        bits_at = 26 + 8 * len(small_train.snr_list)  # after the fixed header and the SNR list
        reseal(path, bits_at + (field == "full_scale"), fmt, value)
        with pytest.raises(DatasetFormatError, match=f"bad quantizer header: {field}"):
            load_dataset(path)

    @pytest.mark.parametrize("m, k", [(0, 0), (1, 3), (8, 0), (4, 4)])
    def test_impossible_record_shape_rejected(self, small_train, tmp_path, m, k):
        # header and body agree, so only the 1 <= K < M rule can reject the file
        n = small_train.count
        rows = np.zeros((n, 2 * m), dtype=np.float32)
        bad = dataclasses.replace(small_train, inputs=rows, targets=rows, angles_deg=np.zeros((n, k)))
        path = tmp_path / "ds.qdst"
        save_dataset(bad, path)
        with pytest.raises(DatasetFormatError, match=f"bad record shape M={m}, K={k}"):
            load_dataset(path)

    def test_loaded_columns_are_contiguous_native_arrays(self, small_train, tmp_path):
        path = tmp_path / "ds.qdst"
        save_dataset(small_train, path)
        loaded = load_dataset(path)
        for name in FIELDS:
            a, b = getattr(loaded, name), getattr(small_train, name)
            assert a.flags["C_CONTIGUOUS"] and a.flags["WRITEABLE"]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_v1_file_from_the_per_record_writer_loads(self, tmp_path):
        # written by the one-record-at-a-time generator and struct writer
        path = DATA / "v1_seed7_train.qdst"
        cfg = scenario(7, bits=2, snr_db=[10.0, math.inf, 30.0], train=10, test=4)
        loaded, built = load_dataset(path), build_dataset(cfg, "train")
        for name in FIELDS:
            a, b = getattr(loaded, name), getattr(built, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (loaded.snr_list, loaded.bits, loaded.full_scale) == (built.snr_list, built.bits, built.full_scale)
        assert saved_digest(loaded, tmp_path / "again.qdst") == hashlib.sha256(path.read_bytes()).hexdigest()


class TestBlockEquivalence:
    @pytest.mark.parametrize("name, split", sorted(PINNED_DIGESTS))
    def test_saved_split_matches_pinned_digest(self, name, split, tmp_path):
        ds = build_dataset(PINNED[name], split)
        assert saved_digest(ds, tmp_path / "ds.qdst") == PINNED_DIGESTS[name, split]

    @pytest.mark.parametrize("name", ["seed3-inf-2bit", "seed2-k1"])
    def test_rows_match_generate_record_bytewise(self, name):
        cfg = PINNED[name]
        ds = build_dataset(cfg, "train")
        # np.array_equal cannot tell -0.0 from +0.0; bytes can
        assert np.signbit(ds.inputs[ds.inputs == 0.0]).any()
        for i in range(ds.count):
            seed, snr = int(ds.record_seeds[i]), float(ds.snr_db[i])
            record = generate_record(
                seed,
                geom=cfg.geometry(),
                num_sources=cfg.sources.count,
                angle_range=cfg.angle_range(),
                min_sep=cfg.sources.min_sep,
                snr_db=snr,
                qspec=quantizer_spec(ds),
            )
            row = (ds.inputs[i], ds.targets[i], ds.angles_deg[i])
            for got, ref, want in zip(record, per_record_reference(seed, cfg, snr), row):
                assert got.tobytes() == ref.tobytes() == want.tobytes()

    @pytest.fixture(scope="class")
    def desk_rule_train(self):
        return build_dataset(scenario(4, train=1100), "train")

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_size_does_not_change_arrays_at_the_desk_angle_rule(self, block, desk_rule_train, monkeypatch):
        # 1,100 records: three default blocks, about a tenth of whose rows replay their angle draw
        monkeypatch.setattr(dataset, "BLOCK_RECORDS", block)
        ds = build_dataset(scenario(4, train=1100), "train")
        for name in FIELDS:
            assert getattr(ds, name).tobytes() == getattr(desk_rule_train, name).tobytes(), name

    @pytest.mark.parametrize("block", [1, 7, 601])
    def test_block_size_does_not_change_bytes(self, block, monkeypatch, tmp_path):
        monkeypatch.setattr(dataset, "BLOCK_RECORDS", block)
        ds = build_dataset(PINNED["seed3-inf-2bit"], "train")
        assert saved_digest(ds, tmp_path / "ds.qdst") == PINNED_DIGESTS["seed3-inf-2bit", "train"]
