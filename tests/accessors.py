"""Values derived from quantdoa objects that only tests read."""

from __future__ import annotations

import numpy as np

from quantdoa.dataset import Dataset
from quantdoa.network import DenoiserModel
from quantdoa.quantizer import QuantizerSpec


def quantizer_levels(spec: QuantizerSpec) -> np.ndarray:
    """All representable outputs k*step, k = -2^(B-1) .. 2^(B-1)."""
    half = 2 ** (spec.bits - 1)
    return np.arange(-half, half + 1, dtype=float) * spec.step


def quantizer_spec(ds: Dataset) -> QuantizerSpec:
    return QuantizerSpec(bits=ds.bits, full_scale=ds.full_scale)


def use_bn(model: DenoiserModel) -> bool:
    return any(layer.bn is not None for layer in model.dense)
