"""Adam with bias correction over a list of parameter arrays (in training, one flat vector)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NonFiniteGradientError(ValueError):
    """Raised when a step sees NaN or Inf gradients; parameters untouched."""


@dataclass
class TrainState:
    """First/second moment estimates, the step counter and two work arrays per parameter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 1e-3
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list, repr=False)


def init_state(params: list[np.ndarray], learning_rate: float = 1e-3) -> TrainState:
    return TrainState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
        scratch=[(np.empty_like(p), np.empty_like(p)) for p in params],
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: TrainState) -> None:
    """One in-place Adam update across all parameters.

    Rejects non-finite gradients before touching anything, so an aborted
    step leaves parameters, moments, and the counter unchanged.  The
    ``out=`` calls round each element exactly as
    ``p - lr * (m / bias1) / (sqrt(v / bias2) + EPS)`` does.
    """
    if not len(params) == len(grads) == len(state.m) == len(state.v):
        raise ValueError("params, grads, and state must have matching lengths")
    if len(state.scratch) != len(params):
        raise ValueError("state has no scratch arrays for these parameters; build it with init_state")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("non-finite gradient; step aborted")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    for p, g, m, v, (s, u) in zip(params, grads, state.m, state.v, state.scratch):
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=s)
        np.add(m, s, out=m)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - BETA2, out=s)
        np.multiply(v, BETA2, out=v)
        np.add(v, s, out=v)
        # m / 1 is exact, and skipping it saves the most where m has decayed to subnormals
        m_hat = m if p.dtype.type(bias1) == 1.0 else np.divide(m, bias1, out=u)
        np.multiply(m_hat, state.learning_rate, out=u)
        np.divide(v, bias2, out=s)
        np.sqrt(s, out=s)
        np.add(s, EPS, out=s)
        np.divide(u, s, out=u)
        np.subtract(p, u, out=p)
