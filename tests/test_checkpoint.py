import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from quantdoa import network as net
from quantdoa.checkpoint import (
    CheckpointError,
    load_checkpoint,
    parameter_payload_bytes,
    save_checkpoint,
)
from quantdoa.dataset import DatasetFormatError, load_dataset

from accessors import use_bn
from model_arrays import all_arrays


DATA = Path(__file__).parent / "data"


def make_model(widths=(16, 32, 32, 32, 32, 32, 16), seed=0, **kwargs):
    return net.init_model(
        list(widths), rng=np.random.default_rng(seed), dtype=np.float32, **kwargs
    )


def header_bytes(model):
    # magic + (version, precision, activation, bias) + layer count
    # + per-layer (kind, in, out, has_bn) + trailing crc
    return 4 + 5 + 4 + model.depth * 10 + 4


class TestRoundTrip:
    def test_fp32_bitwise_exact(self, tmp_path):
        model = make_model(seed=3)
        path = tmp_path / "model.qdnn"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.precision == "fp32"
        assert loaded.activation == model.activation
        assert loaded.input_bias == model.input_bias
        assert loaded.use_residual == model.use_residual
        for a, b in zip(all_arrays(model), all_arrays(loaded)):
            np.testing.assert_array_equal(a, b)

    def test_variant_flags_survive(self, tmp_path):
        model = make_model(seed=1, use_bn=False, use_residual=False, activation="tanh", input_bias=False)
        path = tmp_path / "m.qdnn"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert not use_bn(loaded)
        assert not loaded.use_residual
        assert loaded.activation == "tanh"
        assert not loaded.input_bias

    @pytest.mark.parametrize("activation, code", [("relu", 0), ("tanh", 1), ("sigmoid", 2)])
    def test_activation_code_pinned_in_byte_7(self, activation, code, tmp_path):
        # byte 7 follows the magic, the u16 version and the precision byte
        path = tmp_path / "m.qdnn"
        save_checkpoint(make_model(activation=activation), path)
        assert path.read_bytes()[7] == code
        assert load_checkpoint(path).activation == activation

    def test_unknown_activation_code_rejected(self, tmp_path):
        path = tmp_path / "m.qdnn"
        save_checkpoint(make_model(), path)
        blob = bytearray(path.read_bytes())
        blob[7] = 3
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unknown activation code 3"):
            load_checkpoint(path)

    def test_loaded_model_same_forward(self, tmp_path):
        model = make_model(seed=5)
        save_checkpoint(model, tmp_path / "m.qdnn")
        loaded = load_checkpoint(tmp_path / "m.qdnn")
        x = np.random.default_rng(0).standard_normal((4, 16)).astype(np.float32)
        out1, _ = net.forward(model, x, "infer")
        out2, _ = net.forward(loaded, x, "infer")
        np.testing.assert_array_equal(out1, out2)


class TestFileSize:
    def test_size_formula(self, tmp_path):
        model = make_model(seed=2)
        path = tmp_path / "m.qdnn"
        save_checkpoint(model, path)
        expected = header_bytes(model) + 4 * model.parameter_count()
        assert path.stat().st_size == expected

    def test_fp16_payload_exactly_half(self, tmp_path):
        model = make_model(seed=4)
        half = net.to_half_precision(model)
        assert parameter_payload_bytes(half) * 2 == parameter_payload_bytes(model)
        p32, p16 = tmp_path / "m32.qdnn", tmp_path / "m16.qdnn"
        save_checkpoint(model, p32)
        save_checkpoint(half, p16)
        saved = p32.stat().st_size - p16.stat().st_size
        assert saved == parameter_payload_bytes(model) // 2

    def test_fp16_round_trip(self, tmp_path):
        half = net.to_half_precision(make_model(seed=6))
        save_checkpoint(half, tmp_path / "m.qdnn")
        loaded = load_checkpoint(tmp_path / "m.qdnn")
        assert loaded.precision == "fp16"
        for a, b in zip(all_arrays(half), all_arrays(loaded)):
            np.testing.assert_array_equal(a, b)


class TestCorruption:
    def test_truncated_file(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.qdnn"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.qdnn"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        # fix the crc so the magic check itself is exercised
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_flipped_byte_fails_crc(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.qdnn"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[50] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.qdnn"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def write_table(path, layers):
    """A relu, input-bias, fp32 checkpoint with a valid CRC and zero arrays.

    ``layers`` lists (kind, in_dim, out_dim, has_bn) as stored in the file.
    """
    chunks = [b"QDNN", struct.pack("<HBBB", 1, 0, 0, 1), struct.pack("<I", len(layers))]
    for kind, in_dim, out_dim, has_bn in layers:
        chunks.append(struct.pack("<BIIB", kind, in_dim, out_dim, has_bn))
        chunks.append(bytes(4 * (in_dim * out_dim + out_dim * (5 if has_bn else 1))))
    body = b"".join(chunks)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class TestInconsistentLayerTable:
    def test_odd_residual_hidden_count(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 6, 0), (1, 6, 6, 0), (2, 6, 6, 0), (1, 6, 6, 0), (3, 6, 4, 0)])
        with pytest.raises(CheckpointError, match="even hidden-layer count"):
            load_checkpoint(path)

    def test_skip_width_mismatch(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 6, 0), (1, 6, 6, 0), (2, 6, 8, 0), (3, 8, 4, 0)])
        with pytest.raises(CheckpointError, match="skip connection"):
            load_checkpoint(path)

    def test_batch_norm_on_the_input_layer(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 6, 1), (1, 6, 6, 1), (2, 6, 6, 1), (3, 6, 4, 0)])
        with pytest.raises(CheckpointError, match="batch norm"):
            load_checkpoint(path)

    def test_broken_dimension_chain(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 6, 0), (1, 6, 6, 0), (2, 5, 6, 0), (3, 6, 4, 0)])
        with pytest.raises(CheckpointError, match="layer 2 takes width 5, but layer 1 outputs 6"):
            load_checkpoint(path)

    def test_single_layer(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 4, 0)])
        with pytest.raises(CheckpointError, match="at least an input and an output layer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("layers", [
        [(0, 0, 6, 0), (3, 6, 4, 0)],
        [(0, 4, 6, 0), (3, 6, 0, 0)],
    ], ids=["zero-in-dim", "zero-out-dim"])
    def test_zero_width_layer(self, tmp_path, layers):
        path = tmp_path / "m.qdnn"
        write_table(path, layers)
        with pytest.raises(CheckpointError, match="inconsistent layer table: .*widths must be positive"):
            load_checkpoint(path)

    def test_kinds_out_of_layer_order(self, tmp_path):
        path = tmp_path / "m.qdnn"
        write_table(path, [(0, 4, 6, 0), (2, 6, 6, 0), (1, 6, 6, 0), (3, 6, 4, 0)])
        with pytest.raises(CheckpointError, match="layer kinds"):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "name, load, error",
    [
        ("v1_residual_bn.qdnn", load_checkpoint, CheckpointError),
        ("v1_seed7_train.qdst", load_dataset, DatasetFormatError),
    ],
)
def test_unsupported_version_rejected(name, load, error, tmp_path):
    blob = bytearray((DATA / name).read_bytes())
    blob[4:6] = struct.pack("<H", 2)  # the u16 version after the magic
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
    path = tmp_path / name
    path.write_bytes(bytes(blob))
    with pytest.raises(error, match="unsupported .* version 2"):
        load(path)


class TestCommittedV1Files:
    @pytest.mark.parametrize(
        "name, residual, bn, activation, input_bias",
        [
            ("v1_residual_bn.qdnn", True, True, "relu", True),
            ("v1_plain_tanh_no_input_bias.qdnn", False, False, "tanh", False),
        ],
    )
    def test_loads_and_resaves_byte_for_byte(self, name, residual, bn, activation, input_bias, tmp_path):
        path = DATA / name
        model = load_checkpoint(path)
        assert (model.use_residual, use_bn(model)) == (residual, bn)
        assert (model.activation, model.input_bias) == (activation, input_bias)
        save_checkpoint(model, tmp_path / "again.qdnn")
        assert (tmp_path / "again.qdnn").read_bytes() == path.read_bytes()
