"""AdamW with decoupled weight decay.

Update rule (per parameter, step count t shared across the store):

    m <- b1*m + (1-b1)*g          m_hat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2        v_hat = v / (1 - b2^t)
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + wd * theta)

The decay term multiplies the raw parameter, not the gradient, so it is
decoupled from the adaptive scaling. b1, b2 and eps are the constants
BETA1, BETA2 and EPS. `lr` maps a parameter name to its rate, which is
how the two-group schedule (backbone vs the rest) is expressed. m and v
take each parameter's dtype and every scalar is a Python float, so a
float32 model updates in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ShapeError
from .tensor import Gradients, ParamStore, check_keys_match

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def init_optim_state(params: ParamStore) -> OptimState:
    return OptimState(m={name: np.zeros_like(t.data) for name, t in params.items()},
                      v={name: np.zeros_like(t.data) for name, t in params.items()})


def adamw_step(
    params: ParamStore,
    grads: Gradients,
    state: OptimState,
    lr: Callable[[str], float],
    weight_decay: float = 0.0,
) -> None:
    """One in-place update; iterates parameters in sorted-name order. Bad
    keys or shapes raise before any parameter or moment changes."""
    check_keys_match(params, grads, "adamw_step gradients")
    check_keys_match(params, state.m, "adamw_step moments")
    for name, tensor in params.items():
        if grads[name].shape != tensor.data.shape:
            raise ShapeError(f"gradient shape {grads[name].shape} != param shape "
                             f"{tensor.data.shape} for {name!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, tensor in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data = tensor.data - float(lr(name)) * (
            m_hat / (np.sqrt(v_hat) + EPS) + weight_decay * tensor.data)
