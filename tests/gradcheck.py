"""Numerical gradient checking: central differences and a relative error."""

from __future__ import annotations

from typing import Callable

import numpy as np


def numerical_gradient(
    fn: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference numerical gradient of a scalar function at ``x``."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error, robust to zeros."""
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((num / den).max())
