"""Training/test record generation and the on-disk dataset format.

A record is one snapshot: the quantized observation as the network
input, the clean signal as the target, both in real-stacked layout,
plus enough metadata (SNR, true angles, per-record seed) to regenerate
the record in isolation.  SNR values round-robin across the configured
list so every SNR gets an equal share.

File layout (little-endian):

    magic "QDST" | version u16 | M u32 | K u32 | record_count u64
    | snr_list_len u32 | snr values f64...
    | quantizer bits u8 | full_scale f64
    | records: input f32 x 2M, target f32 x 2M, snr f64,
               angles f64 x K, record_seed u64
    | crc32 u32 over everything before it
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import FramedReader, write_framed
from .config import DOMAIN_TEST_DATA, DOMAIN_TRAIN_DATA, ScenarioConfig, derived_seeds
from .quantizer import QuantizerSpec, quantize_complex
from .signal_model import ArrayGeometry, noise_variance, synthesize_seeded, to_real_batch

MAGIC = b"QDST"
FORMAT_VERSION = 1
# Records generated per vectorized block; a fixed size keeps peak memory
# flat in the record count.  Results do not depend on it.
BLOCK_RECORDS = 512


class DatasetFormatError(Exception):
    """Corrupt or incompatible dataset file."""


@dataclass
class Dataset:
    """In-memory column store of records plus generation metadata."""

    inputs: np.ndarray        # (n, 2M) float32, quantized observations
    targets: np.ndarray       # (n, 2M) float32, clean signals
    snr_db: np.ndarray        # (n,) float64
    angles_deg: np.ndarray    # (n, K) float64
    record_seeds: np.ndarray  # (n,) uint64
    snr_list: list[float]
    bits: int
    full_scale: float

    @property
    def count(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def num_sensors(self) -> int:
        return int(self.inputs.shape[1] // 2)

    @property
    def num_sources(self) -> int:
        return int(self.angles_deg.shape[1])

    def snr_buckets(self) -> dict[float, np.ndarray]:
        """Record indices grouped by SNR, in first-seen order."""
        buckets: dict[float, np.ndarray] = {}
        for snr in dict.fromkeys(self.snr_db.tolist()):
            buckets[snr] = np.flatnonzero(self.snr_db == snr)
        return buckets


def generate_record(
    record_seed: int,
    *,
    geom: ArrayGeometry,
    num_sources: int,
    angle_range: tuple[float, float],
    min_sep: float,
    snr_db: float,
    qspec: QuantizerSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (input, target, angles) triple, fully determined by its seed."""
    block = generate_records([record_seed], [snr_db], geom, num_sources, angle_range, min_sep, qspec)
    return tuple(rows[0] for rows in block)


def generate_records(
    record_seeds: list[int], snr_db: list[float], geom: ArrayGeometry, num_sources: int,
    angle_range: tuple[float, float], min_sep: float, qspec: QuantizerSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of inputs, targets and angles for a block of records.

    Each record is one snapshot from ``synthesize_seeded``: only its
    seeded draws run per record.
    """
    by_snr = {snr: noise_variance(snr) for snr in set(snr_db)}  # one per SNR, not per record
    variances = [by_snr[snr] for snr in snr_db]
    angles, clean = synthesize_seeded(record_seeds, variances, geom, num_sources, angle_range, min_sep, 1)
    clean = clean[..., 0].T
    return (
        to_real_batch(quantize_complex(clean, qspec)).astype(np.float32),
        to_real_batch(clean).astype(np.float32),
        angles,
    )


def split_seeds(config: ScenarioConfig, split: str) -> np.ndarray:
    """The record seeds of the ``split`` set, one per record in file order."""
    if split == "train":
        count, domain = config.data.train_count, DOMAIN_TRAIN_DATA
    elif split == "test":
        count, domain = config.data.test_count, DOMAIN_TEST_DATA
    else:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    return derived_seeds(config.seed, domain, count)


def build_dataset(config: ScenarioConfig, split: str) -> Dataset:
    seeds = split_seeds(config, split)
    count = seeds.size
    geom, qspec = config.geometry(), config.quantizer_spec()
    snr_list = [float(v) for v in config.snr_db]
    inputs = np.empty((count, 2 * geom.num_sensors), dtype=np.float32)
    targets = np.empty_like(inputs)
    angles = np.empty((count, config.sources.count))
    snrs = np.asarray(snr_list)[np.arange(count) % len(snr_list)]
    for lo in range(0, count, BLOCK_RECORDS):
        block = slice(lo, min(lo + BLOCK_RECORDS, count))
        inputs[block], targets[block], angles[block] = generate_records(
            seeds[block].tolist(), snrs[block].tolist(), geom, config.sources.count,
            config.angle_range(), config.sources.min_sep, qspec,
        )
    return Dataset(
        inputs=inputs,
        targets=targets,
        snr_db=snrs,
        angles_deg=angles,
        record_seeds=seeds,
        snr_list=snr_list,
        bits=qspec.bits,
        full_scale=qspec.full_scale,
    )


def record_dtype(num_sensors: int, num_sources: int) -> np.dtype:
    """One packed little-endian record, fields in file order."""
    return np.dtype([
        ("input", "<f4", (2 * num_sensors,)),
        ("target", "<f4", (2 * num_sensors,)),
        ("snr", "<f8"),
        ("angles", "<f8", (num_sources,)),
        ("seed", "<u8"),
    ])


def save_dataset(ds: Dataset, path: str | Path) -> None:
    records = np.empty(ds.count, dtype=record_dtype(ds.num_sensors, ds.num_sources))
    records["input"], records["target"], records["snr"] = ds.inputs, ds.targets, ds.snr_db
    records["angles"], records["seed"] = ds.angles_deg, ds.record_seeds
    write_framed(path, MAGIC, FORMAT_VERSION, [
        struct.pack("<IIQ", ds.num_sensors, ds.num_sources, ds.count),
        struct.pack("<I", len(ds.snr_list)),
        np.asarray(ds.snr_list, dtype="<f8").tobytes(),
        struct.pack("<Bd", ds.bits, ds.full_scale),
        records.tobytes(),
    ])


def load_dataset(path: str | Path) -> Dataset:
    r = FramedReader(path, MAGIC, FORMAT_VERSION, DatasetFormatError, "dataset")
    m, k, count = r.unpack("<IIQ")
    if not 1 <= k < m:  # what a valid config lets the writer produce
        raise DatasetFormatError(f"bad record shape M={m}, K={k}: need 1 <= K < M")
    (snr_len,) = r.unpack("<I")
    snr_list = np.frombuffer(r.take(8 * snr_len), dtype="<f8").tolist()
    bits, full_scale = r.unpack("<Bd")
    # Check the header against the body before any record is allocated:
    # a CRC does not authenticate the record count.
    try:
        QuantizerSpec(bits=bits, full_scale=full_scale)
    except ValueError as exc:
        raise DatasetFormatError(f"bad quantizer header: {exc}") from None
    try:
        record = record_dtype(m, k)
    except ValueError as exc:
        raise DatasetFormatError(f"bad record shape M={m}, K={k}: {exc}") from None
    if count * record.itemsize != r.remaining:
        raise DatasetFormatError(
            f"header promises {count} records of {record.itemsize} bytes; "
            f"the body holds {r.remaining} bytes")
    records = np.frombuffer(r.take(r.remaining), dtype=record)
    return Dataset(
        inputs=records["input"].astype(np.float32),
        targets=records["target"].astype(np.float32),
        snr_db=records["snr"].astype(np.float64),
        angles_deg=records["angles"].astype(np.float64),
        record_seeds=records["seed"].astype(np.uint64),
        snr_list=snr_list,
        bits=int(bits),
        full_scale=float(full_scale),
    )
