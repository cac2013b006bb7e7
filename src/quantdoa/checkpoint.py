"""Binary model checkpoints.

Little-endian layout:

    magic "QDNN" | version u16 | precision u8 (0 fp32, 1 fp16)
    | activation u8 | input_bias u8 | layer_count u32
    | per layer: kind u8, in_dim u32, out_dim u32, has_bn u8,
                 W row-major, b, then (if BN) gamma, beta,
                 running_mean, running_var
    | crc32 u32 over everything before it

Arrays are stored at the payload precision; loading upcasts to float32.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .network import ACTIVATIONS, BatchNorm, Dense, DenoiserModel

MAGIC = b"QDNN"
FORMAT_VERSION = 1

_RESIDUAL_INNER = 1


class CheckpointError(Exception):
    """Corrupt or incompatible checkpoint file."""


def kind_codes(model: DenoiserModel) -> list[int]:
    """Layer kinds in the file: 0 input, 1/2 residual inner/outer, 3 output, 4 plain hidden."""
    inner = _RESIDUAL_INNER if model.use_residual else 4
    return [0, *(2 if model.closes_pair(i) else inner for i in range(1, model.depth - 1)), 3]


def _payload_dtype(precision: str) -> np.dtype:
    return np.dtype("<f2") if precision == "fp16" else np.dtype("<f4")


def parameter_payload_bytes(model: DenoiserModel) -> int:
    """Bytes the parameter arrays occupy in a checkpoint of this model."""
    itemsize = _payload_dtype(model.precision).itemsize
    return model.parameter_count() * itemsize


def write_framed(path: str | Path, magic: bytes, version: int, chunks: list[bytes]) -> None:
    """Write magic, u16 version, the chunks, then a crc32 of everything before it."""
    body = b"".join([magic, struct.pack("<H", version), *chunks])
    Path(path).write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


class FramedReader:
    """Reads a ``write_framed`` file front to back; a short read raises ``error``.

    The length, CRC, magic and version are checked on construction.
    """

    def __init__(self, path: str | Path, magic: bytes, version: int, error: type[Exception], what: str):
        self.error, self.what = error, what
        blob = memoryview(Path(path).read_bytes())
        if len(blob) < len(magic) + 4:
            raise error(f"truncated {what} file")
        self.buf, (crc_stored,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(self.buf) & 0xFFFFFFFF != crc_stored:
            raise error("checksum mismatch; file is corrupt")
        self.pos = 0
        if self.take(len(magic)) != magic:
            raise error(f"bad magic; not a {what} file")
        (found,) = self.unpack("<H")
        if found != version:
            raise error(f"unsupported {what} version {found}")

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def take(self, n: int) -> memoryview:
        if n > self.remaining:
            raise self.error(f"truncated {self.what} file")
        self.pos += n
        return self.buf[self.pos - n : self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int, dtype: np.dtype) -> np.ndarray:
        return np.frombuffer(self.take(count * dtype.itemsize), dtype=dtype).astype(np.float32)


def save_checkpoint(model: DenoiserModel, path: str | Path) -> None:
    dtype = _payload_dtype(model.precision)
    chunks = [
        struct.pack("<BBB", 1 if model.precision == "fp16" else 0,
                    list(ACTIVATIONS).index(model.activation), 1 if model.input_bias else 0),
        struct.pack("<I", model.depth),
    ]
    for code, layer in zip(kind_codes(model), model.dense):
        chunks.append(
            struct.pack("<BIIB", code, layer.in_dim, layer.out_dim, 1 if layer.bn is not None else 0)
        )
        chunks.append(np.ascontiguousarray(layer.w).astype(dtype).tobytes())
        chunks.append(layer.b.astype(dtype).tobytes())
        if layer.bn is not None:
            for arr in (layer.bn.gamma, layer.bn.beta, layer.bn.running_mean, layer.bn.running_var):
                chunks.append(arr.astype(dtype).tobytes())
    write_framed(path, MAGIC, FORMAT_VERSION, chunks)


def load_checkpoint(path: str | Path) -> DenoiserModel:
    r = FramedReader(path, MAGIC, FORMAT_VERSION, CheckpointError, "checkpoint")
    precision_flag, act_code, bias_flag = r.unpack("<BBB")
    if precision_flag not in (0, 1):
        raise CheckpointError(f"unknown precision flag {precision_flag}")
    if act_code >= len(ACTIVATIONS):
        raise CheckpointError(f"unknown activation code {act_code}")
    precision = "fp16" if precision_flag == 1 else "fp32"
    dtype = _payload_dtype(precision)
    (layer_count,) = r.unpack("<I")  # DenoiserModel rejects fewer than two layers

    dense: list[Dense] = []
    codes: list[int] = []
    for _ in range(layer_count):
        kind_code, in_dim, out_dim, has_bn = r.unpack("<BIIB")
        codes.append(kind_code)
        w = r.array(in_dim * out_dim, dtype).reshape(in_dim, out_dim)
        b = r.array(out_dim, dtype)
        # gamma, beta, running_mean, running_var, in file order
        dense.append(Dense(w, b, BatchNorm(*(r.array(out_dim, dtype) for _ in range(4))) if has_bn else None))
    if r.remaining:
        raise CheckpointError("trailing bytes after the last layer")
    try:
        model = DenoiserModel(
            dense=dense,
            activation=list(ACTIVATIONS)[act_code],
            input_bias=bool(bias_flag),
            use_residual=_RESIDUAL_INNER in codes,
            precision=precision,
        )
    except ValueError as exc:
        raise CheckpointError(f"inconsistent layer table: {exc}") from exc
    if codes != kind_codes(model):
        raise CheckpointError(f"layer kinds {codes} do not match the layer order")
    return model
