"""Every stored array of a ``quantdoa.network.DenoiserModel``, for tests that compare models."""

from __future__ import annotations

import numpy as np

from quantdoa.network import DenoiserModel


def all_arrays(model: DenoiserModel) -> list[np.ndarray]:
    """Every stored array, running statistics included."""
    arrays: list[np.ndarray] = []
    for layer in model.dense:
        arrays.extend([layer.w, layer.b])
        if (bn := layer.bn) is not None:
            arrays.extend([bn.gamma, bn.beta, bn.running_mean, bn.running_var])
    return arrays
