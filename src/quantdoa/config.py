"""Experiment configuration: a strict, hashable key tree.

Configs load from YAML, reject unknown keys, accept dotted-path
overrides ("train.lr=0.0005"), and hash to a short digest that every
output file embeds so results stay traceable to their exact settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .music import MAX_GRID_POINTS, grid_points
from .network import ACTIVATIONS
from .quantizer import RAW_SERIES_BITS, QuantizerSpec, default_full_scale
from .signal_model import MAX_ANGLE_TRIES, ArrayGeometry

# Stream offsets for deriving independent sub-seeds from the master seed.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
DOMAIN_TRAIN_DATA = 1
DOMAIN_TEST_DATA = 2
DOMAIN_INIT = 3
DOMAIN_SHUFFLE = 4
DOMAIN_TRIALS = 5
DOMAIN_SPECTRUM = 6

# YAML 1.1 resolves an exponent without a dot or an exponent sign, such as
# 1e-4, to a string; float settings take these as numbers.
_EXPONENT = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+")

# Lowest SNR, about -737.5 dB, whose per-component noise deviation sigma = 10**(-snr/20)/sqrt(2)
# keeps 64*sigma below float32's maximum, so the float32 records of signal plus noise stay finite.
MIN_SNR_DB = -20 * math.log10(float(np.finfo(np.float32).max) / 64 * math.sqrt(2))


def derived_seed(master: int, domain: int) -> int:
    return (master + domain * _GOLDEN) & _MASK


def derived_seeds(master: int, domain: int, count: int, stream: int = 0) -> np.ndarray:
    """uint64 seeds ``derived_seed ^ (stream << 32) ^ i``, i < count: records or one SNR's trials."""
    return np.uint64(derived_seed(master, domain) ^ (stream << 32)) ^ np.arange(count, dtype=np.uint64)


class ConfigError(ValueError):
    """Invalid configuration contents or override path."""


_SHOWN_CHARS = 60


def cut(text: str) -> str:
    """``text`` for an error message; past ``_SHOWN_CHARS`` characters, its start and its length."""
    return text if len(text) <= _SHOWN_CHARS else f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _shown(value) -> str:
    """``cut(repr(value))``; an int that ``repr`` refuses (over 4,300 digits by default) shows its bit length."""
    try:
        return cut(repr(value))
    except ValueError:
        return f"an integer of {value.bit_length():,} bits"


def _leaf(default, ok, says: str, *edges):
    """A field whose set value must pass ``ok`` (it flips at ``edges``), else validate() says "<path> <says>"."""
    return field(default=default, metadata={"ok": ok, "says": says, "edges": edges})


def _min(default, low: int, why: str = ""):
    return _leaf(default, lambda v: v >= low, f"must be >= {low}{why}", low)


def _positive(default, when: str = ""):
    return _leaf(default, lambda v: 0 < v < math.inf, f"must be finite and > 0{when}", 0.0, math.inf)


@dataclass
class ArraySection:
    num_sensors: int = _min(8, 2)
    spacing: float = _positive(0.5)


@dataclass
class SourcesSection:
    count: int = _min(3, 1)
    angle_min: float = -30.0
    angle_max: float = 30.0
    min_sep: float = _min(1.0, 0)


@dataclass
class QuantizerSection:
    bits: int = _leaf(1, lambda v: 1 <= v <= 255, "must be from 1 to 255 (one byte of the .qdst header)", 1, 255)
    full_scale: float | None = _positive(None, " when set")  # None derives V from sources and SNR


@dataclass
class DataSection:
    train_count: int = 5000
    test_count: int = 1000


@dataclass
class NetworkSection:
    widths: list[int] = field(default_factory=lambda: [16, 128, 128, 128, 128, 128, 16])
    use_bn: bool = True
    use_residual: bool = True
    activation: str = _leaf("relu", ACTIVATIONS.__contains__, f"must be one of {', '.join(ACTIVATIONS)}", *ACTIVATIONS)
    input_bias: bool = True


@dataclass
class TrainSection:
    batch_size: int = _min(256, 2, " (batch norm needs it)")
    lr: float = _positive(1e-3)
    epochs: int = _min(50, 1)


@dataclass
class MusicSection:
    grid_min: float = -30.0
    grid_max: float = 30.0
    grid_step: float = _leaf(0.01, lambda v: v > 0, "must be > 0", 0.0)
    num_snapshots: int = _min(5, 1)
    trials: int = _min(200, 1)
    min_sep: float | None = _min(None, 0, " when set")  # None falls back to sources.min_sep


@dataclass
class ScenarioConfig:
    seed: int = _leaf(20240801, lambda v: 0 <= v <= _MASK, "must fit in an unsigned 64-bit integer", 0, _MASK)
    snr_db: list[float] = field(default_factory=lambda: [10.0, 20.0, 30.0, 40.0, 50.0])
    array: ArraySection = field(default_factory=ArraySection)
    sources: SourcesSection = field(default_factory=SourcesSection)
    quantizer: QuantizerSection = field(default_factory=QuantizerSection)
    data: DataSection = field(default_factory=DataSection)
    network: NetworkSection = field(default_factory=NetworkSection)
    train: TrainSection = field(default_factory=TrainSection)
    music: MusicSection = field(default_factory=MusicSection)

    # -- structure ---------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, tree: dict) -> "ScenarioConfig":
        return _build_dataclass(cls, tree, path="")

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- derived objects ----------------------------------------------------

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.array.num_sensors, self.array.spacing)

    def resolved_full_scale(self) -> float:
        if self.quantizer.full_scale is not None:
            return float(self.quantizer.full_scale)
        return default_full_scale(self.sources.count, self.snr_db)

    def quantizer_spec(self, bits: int | None = None) -> QuantizerSpec:
        return QuantizerSpec(self.quantizer.bits if bits is None else bits, self.resolved_full_scale())

    def angle_range(self) -> tuple[float, float]:
        return (self.sources.angle_min, self.sources.angle_max)

    def eval_min_sep(self) -> float:
        if self.music.min_sep is not None:
            return float(self.music.min_sep)
        return float(self.sources.min_sep)

    def uncovered_sources(self) -> str:
        """Why the music grid cannot score every source angle ``generate`` draws, or "" when it can."""
        (lo, hi), (low, high) = self.angle_range(), (self.music.grid_min, self.music.grid_max)
        if low <= lo and hi <= high:
            return ""
        return f"source angles [{lo}, {hi}] fall outside the scan range [{low}, {high}]"

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations, as human-readable messages: broken leaf limits, then cross-field rules."""
        errs = _leaf_errors(self)
        a, s, q, d, n, m = self.array, self.sources, self.quantizer, self.data, self.network, self.music
        if not _leaf_errors(a) and a.num_sensors - 1 > float(np.finfo(float).max) / (2 * math.pi * a.spacing):
            errs.append("array.spacing overflows the steering phase 2*pi*spacing*(num_sensors - 1)")
        if s.angle_max <= s.angle_min:
            errs.append("sources.angle_max must exceed sources.angle_min")
        if not (-90 < s.angle_min and s.angle_max < 90):
            errs.append("source angle range must lie inside (-90, 90) degrees")
        span, count = s.angle_max - s.angle_min, _number(s.count)  # a float: inf past float range
        for name, sep in (("sources", s.min_sep), ("music", m.min_sep)):
            if sep is None or not sep >= 0:
                continue
            if span < (count - 1) * sep:
                errs.append(f"angle range cannot hold sources.count angles at {name}.min_sep")
            # a try keeps the separation with chance P; MAX_ANGLE_TRIES * P >= 40 fails a record below e^-40
            elif span > 0 and MAX_ANGLE_TRIES * (1 - (count - 1) * sep / span) ** count < 40:
                errs.append(f"{name}.min_sep is met too rarely for {MAX_ANGLE_TRIES} angle draws")
        if not self.snr_db:
            errs.append("snr_db list must be non-empty")
        elif any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            errs.append("snr_db values must not be NaN or -inf")
        elif min(self.snr_db) <= MIN_SNR_DB:
            errs.append(f"snr_db values must exceed {MIN_SNR_DB:.1f} dB: float32 records overflow below it")
        widths, v = sorted({q.bits, *RAW_SERIES_BITS}), q.full_scale
        if v is not None and not _leaf_errors(q) and not all(0 < 2 * v / 2.0**b < math.inf for b in widths):
            errs.append(f"quantizer step 2*full_scale/2**bits must be finite and > 0 for bits in {widths}")
        if d.train_count < 1 or d.test_count < 1:
            errs.append("data.train_count and data.test_count must be >= 1")
        elif d.train_count < 2:
            errs.append("data.train_count must be >= 2 (a training batch needs two records)")
        two_m, w = 2 * a.num_sensors, n.widths
        if len(w) < 3:
            errs.append("network.widths must list at least [in, hidden, out]")
        else:
            for end, width in (("start", w[0]), ("end", w[-1])):
                if width != two_m:
                    errs.append(f"network.widths must {end} at 2*num_sensors = {_shown(two_m)}, got {_shown(width)}")
            if any(x < 1 for x in w):
                errs.append("network.widths entries must be positive")
            if len(set(w[1:-1])) > 1:
                errs.append("network.widths hidden entries must all be equal")
            if n.use_residual and (len(w) - 3) % 2 != 0:
                errs.append("residual pairing needs an even hidden-layer count (len(network.widths) must be odd)")
        if m.grid_max <= m.grid_min:
            errs.append("music.grid_max must exceed music.grid_min")
        if not (-90 < m.grid_min and m.grid_max < 90):
            errs.append("music grid must lie inside (-90, 90) degrees")
        elif m.grid_step > 0 and m.grid_max > m.grid_min:
            points = grid_points(m.grid_min, m.grid_max, m.grid_step)
            if points < count:
                errs.append(f"music grid has fewer than sources.count = {_shown(s.count)} points")
            elif points > MAX_GRID_POINTS:
                errs.append(f"music grid has more than {MAX_GRID_POINTS} points: raise music.grid_step")
        if s.count >= a.num_sensors:
            errs.append("sources.count must be smaller than array.num_sensors for MUSIC")
        if why := self.uncovered_sources():
            errs.append(why)
        return errs


def desk_default() -> ScenarioConfig:
    """Laptop-scale defaults; the full-size configuration is one config file away."""
    return ScenarioConfig()


# -- dict <-> dataclass plumbing ------------------------------------------------


def _build_dataclass(cls, tree: dict, path: str):
    if not isinstance(tree, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    hints = typing.get_type_hints(cls)
    unknown = set(tree) - set(hints)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {_shown(sorted(unknown))} under {path or 'top level'}"
        )
    kwargs = {}
    for name, typ in hints.items():
        if name not in tree:
            continue
        value = tree[name]
        sub = f"{path}.{name}" if path else name
        if dataclasses.is_dataclass(typ):
            kwargs[name] = _build_dataclass(typ, value, sub)
        else:
            kwargs[name] = _coerce_leaf(value, typ, sub)
    return cls(**kwargs)


def _leaf_errors(node, path: str = "") -> list[str]:
    """The message "<path> <says>" of each set value under ``node`` that breaks its ``_leaf`` rule."""
    errs = []
    for f in dataclasses.fields(node):
        value, sub = getattr(node, f.name), path + f.name
        if dataclasses.is_dataclass(value):
            errs += _leaf_errors(value, sub + ".")
        elif value is not None and "ok" in f.metadata and not f.metadata["ok"](value):
            errs.append(f"{sub} {f.metadata['says']}")
    return errs


def _coerce_leaf(value, typ, path: str):
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {_shown(value)}")
        return value
    if typ == float | None and value is None:
        return None
    if typ in (float, float | None):
        number = _number(value)
        if number is None:
            kind = "a number" if typ is float else "a number or null"
            raise ConfigError(f"{path} must be {kind}, got {_shown(value)}")
        return number
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {_shown(value)}")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {_shown(value)}")
        return value
    if typ == list[int]:
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path} must be a list of integers, got {_shown(value)}")
        return list(value)
    if typ == list[float]:
        numbers = [_number(v) for v in value] if isinstance(value, list) else [None]
        if None in numbers:
            raise ConfigError(f"{path} must be a list of numbers, got {_shown(value)}")
        return numbers
    raise ConfigError(f"unsupported config field type {typ} at {path}")


def _number(value) -> float | None:
    """A float setting's value: a YAML number or an exponent string, else None."""
    if isinstance(value, str) and _EXPONENT.fullmatch(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:  # an int beyond float range reads as +-inf, as 1.0e+400 does
        return math.inf if value > 0 else -math.inf


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        tree = yaml.safe_load(Path(path).read_text())
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: an int of over 4,300 digits, a bad date
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return ScenarioConfig.from_dict({} if tree is None else tree)


def apply_overrides(config: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply "dotted.path=value" assignments; values parse as YAML."""
    tree = config.to_dict()
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {_shown(item)} is not of the form key=value")
        key, raw = item.split("=", 1)
        parts = key.strip().split(".")
        node = tree
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                raise ConfigError(f"unknown config path {_shown(key)}")
            node = node[p]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown config path {_shown(key)}")
        try:
            node[leaf] = yaml.safe_load(raw)
        except (ValueError, yaml.YAMLError) as exc:
            raise ConfigError(f"cannot parse override value {_shown(raw)}: {exc}") from exc
    return ScenarioConfig.from_dict(tree)
