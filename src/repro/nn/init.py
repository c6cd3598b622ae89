"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the repository is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """He/Kaiming uniform initialization, appropriate for ReLU layers."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def normal_init(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    std: float = 0.01,
) -> np.ndarray:
    """Small-variance Gaussian initialization (used for embedding tables)."""
    return rng.normal(0.0, std, size=shape)


def zeros_init(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros initialization (biases)."""
    return np.zeros(shape)
