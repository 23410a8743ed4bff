"""Central finite-difference gradient verification for the tests.

The step size follows h = base_h * max(1, |theta|) per scalar, and the
relative error is |analytic - numeric| / max(|analytic|, |numeric|).
Entries whose analytic gradient is below `skip_below` are excluded (the
relative error of a near-zero derivative is dominated by cancellation
noise in the difference quotient, not by the implementation).
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def numeric_gradient(
    loss_fn: Callable[[], float],
    tensor_data: np.ndarray,
    base_h: float = 1e-5,
) -> np.ndarray:
    """Central differences of loss_fn w.r.t. every entry of tensor_data.

    tensor_data is perturbed in place and restored exactly afterwards.
    """
    grad = np.zeros_like(tensor_data)
    flat = tensor_data.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        h = base_h * max(1.0, abs(orig))
        flat[i] = orig + h
        f_plus = loss_fn()
        flat[i] = orig - h
        f_minus = loss_fn()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(
    analytic: np.ndarray,
    numeric: np.ndarray,
    skip_below: float = 1e-8,
) -> float:
    """Worst relative disagreement over entries with |analytic| >= skip_below."""
    a = analytic.ravel()
    n = numeric.ravel()
    keep = np.abs(a) >= skip_below
    if not np.any(keep):
        return 0.0
    denom = np.maximum(np.abs(a[keep]), np.abs(n[keep]))
    return float(np.max(np.abs(a[keep] - n[keep]) / denom))

