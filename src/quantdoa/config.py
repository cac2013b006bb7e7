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

import yaml

from .network import ACTIVATIONS
from .quantizer import QuantizerSpec, default_full_scale
from .signal_model import ArrayGeometry

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


def derived_seed(master: int, domain: int) -> int:
    return (master + domain * _GOLDEN) & _MASK


class ConfigError(ValueError):
    """Invalid configuration contents or override path."""


@dataclass
class ArraySection:
    num_sensors: int = 8
    spacing: float = 0.5


@dataclass
class SourcesSection:
    count: int = 3
    angle_min: float = -30.0
    angle_max: float = 30.0
    min_sep: float = 1.0


@dataclass
class QuantizerSection:
    bits: int = 1
    full_scale: float | None = None  # None derives V from sources and SNR


@dataclass
class DataSection:
    train_count: int = 5000
    test_count: int = 1000


@dataclass
class NetworkSection:
    widths: list[int] = field(default_factory=lambda: [16, 128, 128, 128, 128, 128, 16])
    use_bn: bool = True
    use_residual: bool = True
    activation: str = "relu"
    input_bias: bool = True


@dataclass
class TrainSection:
    batch_size: int = 256
    lr: float = 1e-3
    epochs: int = 50
    eval_interval: int = 1


@dataclass
class MusicSection:
    grid_min: float = -30.0
    grid_max: float = 30.0
    grid_step: float = 0.01
    num_snapshots: int = 5
    trials: int = 200
    min_sep: float | None = None  # None falls back to sources.min_sep


@dataclass
class ScenarioConfig:
    seed: int = 20240801
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

    def copy(self) -> "ScenarioConfig":
        return ScenarioConfig.from_dict(self.to_dict())

    # -- derived objects ----------------------------------------------------

    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.array.num_sensors, self.array.spacing)

    def resolved_full_scale(self) -> float:
        if self.quantizer.full_scale is not None:
            return float(self.quantizer.full_scale)
        return default_full_scale(self.sources.count, self.snr_db)

    def quantizer_spec(self, bits: int | None = None) -> QuantizerSpec:
        return QuantizerSpec(
            bits=self.quantizer.bits if bits is None else bits,
            full_scale=self.resolved_full_scale(),
        )

    def angle_range(self) -> tuple[float, float]:
        return (self.sources.angle_min, self.sources.angle_max)

    def eval_min_sep(self) -> float:
        if self.music.min_sep is not None:
            return float(self.music.min_sep)
        return float(self.sources.min_sep)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """All invariant violations, as human-readable messages."""
        errs: list[str] = []
        if not 0 <= self.seed <= _MASK:
            errs.append("seed must fit in an unsigned 64-bit integer")
        a, s, q, d, n, t, m = (
            self.array, self.sources, self.quantizer, self.data,
            self.network, self.train, self.music,
        )
        if a.num_sensors < 2:
            errs.append("array.num_sensors must be >= 2")
        if not 0 < a.spacing < math.inf:
            errs.append("array.spacing must be finite and > 0")
        if s.count < 1:
            errs.append("sources.count must be >= 1")
        if s.angle_max <= s.angle_min:
            errs.append("sources.angle_max must exceed sources.angle_min")
        if not (-90 < s.angle_min and s.angle_max < 90):
            errs.append("source angle range must lie inside (-90, 90) degrees")
        if not s.min_sep >= 0:
            errs.append("sources.min_sep must be >= 0")
        elif s.angle_max - s.angle_min < (s.count - 1) * s.min_sep:
            errs.append("angle range cannot hold sources.count angles at sources.min_sep")
        if not self.snr_db:
            errs.append("snr_db list must be non-empty")
        elif any(math.isnan(v) or v == -math.inf for v in self.snr_db):
            errs.append("snr_db values must not be NaN or -inf")
        if not 1 <= q.bits <= 255:
            errs.append("quantizer.bits must be from 1 to 255 (one byte of the .qdst header)")
        if q.full_scale is not None and not 0 < q.full_scale < math.inf:
            errs.append("quantizer.full_scale must be finite and > 0 when set")
        if d.train_count < 1 or d.test_count < 1:
            errs.append("data.train_count and data.test_count must be >= 1")
        two_m = 2 * a.num_sensors
        w = n.widths
        if len(w) < 3:
            errs.append("network.widths must list at least [in, hidden, out]")
        else:
            if w[0] != two_m:
                errs.append(
                    f"network.widths must start at 2*num_sensors = {two_m}, got {w[0]}"
                )
            if w[-1] != two_m:
                errs.append(
                    f"network.widths must end at 2*num_sensors = {two_m}, got {w[-1]}"
                )
            if any(x < 1 for x in w):
                errs.append("network.widths entries must be positive")
            hidden = w[1:-1]
            if len(set(hidden)) > 1:
                errs.append("network.widths hidden entries must all be equal")
            if n.use_residual and (len(w) - 3) % 2 != 0:
                errs.append(
                    "residual pairing needs an even hidden-layer count "
                    "(len(network.widths) must be odd)"
                )
        if n.activation not in ACTIVATIONS:
            errs.append(f"network.activation must be one of {', '.join(ACTIVATIONS)}")
        if t.batch_size < 2:
            errs.append("train.batch_size must be >= 2 (batch norm needs it)")
        if not 0 < t.lr < math.inf:
            errs.append("train.lr must be finite and > 0")
        if t.epochs < 1:
            errs.append("train.epochs must be >= 1")
        if t.eval_interval < 1:
            errs.append("train.eval_interval must be >= 1")
        if not m.grid_step > 0:
            errs.append("music.grid_step must be > 0")
        if m.grid_max <= m.grid_min:
            errs.append("music.grid_max must exceed music.grid_min")
        if not (-90 < m.grid_min and m.grid_max < 90):
            errs.append("music grid must lie inside (-90, 90) degrees")
        if m.num_snapshots < 1:
            errs.append("music.num_snapshots must be >= 1")
        if m.trials < 1:
            errs.append("music.trials must be >= 1")
        if m.min_sep is not None and not m.min_sep >= 0:
            errs.append("music.min_sep must be >= 0 when set")
        elif m.min_sep is not None and s.angle_max - s.angle_min < (s.count - 1) * m.min_sep:
            errs.append("angle range cannot hold sources.count angles at music.min_sep")
        if s.count >= a.num_sensors:
            errs.append("sources.count must be smaller than array.num_sensors for MUSIC")
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
            f"unknown config key(s) {sorted(unknown)} under {path or 'top level'}"
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


def _coerce_leaf(value, typ, path: str):
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return value
    if typ == float | None and value is None:
        return None
    if typ in (float, float | None):
        number = _number(value)
        if number is None:
            kind = "a number" if typ is float else "a number or null"
            raise ConfigError(f"{path} must be {kind}, got {value!r}")
        return number
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {value!r}")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        return value
    if typ == list[int]:
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{path} must be a list of integers, got {value!r}")
        return list(value)
    if typ == list[float]:
        numbers = [_number(v) for v in value] if isinstance(value, list) else [None]
        if None in numbers:
            raise ConfigError(f"{path} must be a list of numbers, got {value!r}")
        return numbers
    raise ConfigError(f"unsupported config field type {typ} at {path}")


def _number(value) -> float | None:
    """A float setting's value: a YAML number or an exponent string, else None."""
    if isinstance(value, str) and _EXPONENT.fullmatch(value):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        tree = yaml.safe_load(Path(path).read_text())
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return ScenarioConfig.from_dict({} if tree is None else tree)


def apply_overrides(config: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply "dotted.path=value" assignments; values parse as YAML."""
    tree = config.to_dict()
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        parts = key.strip().split(".")
        node = tree
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                raise ConfigError(f"unknown config path {key!r}")
            node = node[p]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown config path {key!r}")
        try:
            node[leaf] = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse override value {raw!r}: {exc}") from exc
    return ScenarioConfig.from_dict(tree)
