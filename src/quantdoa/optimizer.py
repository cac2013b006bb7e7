"""Adam with bias correction over a flat list of parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """Raised when a step sees NaN or Inf gradients; parameters untouched."""


@dataclass
class TrainState:
    """First/second moment estimates plus the step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 1e-3


def init_state(params: list[np.ndarray], learning_rate: float = 1e-3) -> TrainState:
    return TrainState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: TrainState) -> None:
    """One in-place Adam update across all parameters.

    Rejects non-finite gradients before touching anything, so an aborted
    step leaves parameters, moments, and the counter unchanged.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching lengths")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient; step aborted")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m[...] = BETA1 * m + (1.0 - BETA1) * g
        v[...] = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p[...] = p - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
