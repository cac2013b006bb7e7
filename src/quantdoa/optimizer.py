"""Adam with bias correction over one flat parameter vector."""

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
    """First/second moment estimates, a work vector and the step counter."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)
    step_count: int = 0
    learning_rate: float = 1e-3


def init_state(params: np.ndarray, learning_rate: float = 1e-3) -> TrainState:
    return TrainState(
        m=np.zeros_like(params),
        v=np.zeros_like(params),
        scratch=np.empty_like(params),
        learning_rate=learning_rate,
    )


def adam_step(params: np.ndarray, grad: np.ndarray, state: TrainState) -> None:
    """One in-place Adam update of ``params``; ``grad`` is work space and holds no gradient on return.

    Rejects non-finite gradients before touching anything, so an aborted
    step leaves ``grad``, parameters, moments, and the counter unchanged.
    The ``out=`` calls round each element exactly as
    ``p - lr * (m / bias1) / (sqrt(v / bias2) + EPS)`` does.
    """
    if params.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    if not np.isfinite(grad).all():
        raise NonFiniteGradientError("non-finite gradient; step aborted")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1 ** t
    bias2 = 1.0 - BETA2 ** t
    m, v, s = state.m, state.v, state.scratch
    np.multiply(grad, grad, out=s)
    np.multiply(s, 1.0 - BETA2, out=s)
    np.multiply(v, BETA2, out=v)
    np.add(v, s, out=v)
    # the v update read grad first, so the m update's read may overwrite it
    np.multiply(m, BETA1, out=m)
    np.multiply(grad, 1.0 - BETA1, out=grad)
    np.add(m, grad, out=m)
    # m / 1 is exact, and skipping it saves the most where m has decayed to subnormals
    m_hat = m if params.dtype.type(bias1) == 1.0 else np.divide(m, bias1, out=grad)
    np.multiply(m_hat, state.learning_rate, out=grad)
    np.divide(v, bias2, out=s)
    np.sqrt(s, out=s)
    np.add(s, EPS, out=s)
    np.divide(grad, s, out=grad)
    np.subtract(params, grad, out=params)
