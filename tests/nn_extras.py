"""Parts of the numpy nn substrate that no part of the system runs.

``LayerNorm``, ``mse_loss``, the ``SGD`` optimizer, the learning-rate
schedulers, ``tree_map`` and ``tile_params`` left ``repro.nn``: nothing in
``src/``, the benchmarks, the examples or perfbench calls them.  Only their
own tests import them from here; removing them means removing those tests
with them.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

import numpy as np

from repro.nn.module import Grads, Module, Params
from repro.nn.optim import Optimizer


class LayerNorm(Module):
    """Layer normalization over the last axis with learned gain and bias."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.dim = dim
        self.eps = eps

    def init_params(self, rng: np.random.Generator) -> Params:
        return {"gamma": np.ones(self.dim), "beta": np.zeros(self.dim)}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mu) * inv_std
        gamma, beta = params["gamma"], params["beta"]
        if gamma.ndim > 1:  # stacked (T, dim) against x (T, batch, dim)
            gamma = gamma[..., None, :]
            beta = beta[..., None, :]
        y = gamma * x_hat + beta
        return y, (x_hat, inv_std)

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        x_hat, inv_std = cache
        grads: Grads = {
            "gamma": (dy * x_hat).sum(axis=-2),
            "beta": dy.sum(axis=-2),
        }
        gamma = params["gamma"]
        dxhat = dy * (gamma[..., None, :] if gamma.ndim > 1 else gamma)
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return dx, grads


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error ``mean((pred - target)^2)``."""
    diff = pred - target
    n = pred.size
    return float((diff * diff).sum() / n), 2.0 * diff / n


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(
        self,
        params: Params,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}

    def step(self, grads: Grads) -> None:
        for name, grad in grads.items():
            grad = self._decayed(name, grad)
            if self.momentum:
                vel = self._velocity.get(name)
                if vel is None:
                    vel = np.zeros_like(grad)
                vel = self.momentum * vel + grad
                self._velocity[name] = vel
                grad = vel
            self.params[name] -= self.lr * grad


class Scheduler:
    """Base class; subclasses compute the rate for a given epoch index."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def rate(self, epoch: int) -> float:
        raise NotImplementedError

    def step(self) -> float:
        """Advance one epoch; returns the new learning rate."""
        self.epoch += 1
        new_lr = self.rate(self.epoch)
        if new_lr <= 0:
            raise ValueError("scheduler produced a non-positive learning rate")
        self.optimizer.lr = new_lr
        return new_lr


class StepDecay(Scheduler):
    """Multiply the rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 < gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        self.step_size = step_size
        self.gamma = gamma

    def rate(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)


class CosineDecay(Scheduler):
    """Cosine annealing from the base rate down to ``min_lr``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int, min_lr: float = 1e-5):
        super().__init__(optimizer)
        if total_epochs <= 0:
            raise ValueError("total_epochs must be positive")
        if min_lr <= 0:
            raise ValueError("min_lr must be positive")
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def rate(self, epoch: int) -> float:
        progress = min(epoch / self.total_epochs, 1.0)
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cos


class WarmupLinear(Scheduler):
    """Linear warmup to the base rate, then linear decay to ``min_lr``."""

    def __init__(
        self,
        optimizer: Optimizer,
        warmup_epochs: int,
        total_epochs: int,
        min_lr: float = 1e-5,
    ):
        super().__init__(optimizer)
        if warmup_epochs < 0 or total_epochs <= warmup_epochs:
            raise ValueError("need 0 <= warmup_epochs < total_epochs")
        self.warmup_epochs = warmup_epochs
        self.total_epochs = total_epochs
        self.min_lr = min_lr

    def rate(self, epoch: int) -> float:
        if self.warmup_epochs and epoch <= self.warmup_epochs:
            return self.base_lr * epoch / self.warmup_epochs
        span = self.total_epochs - self.warmup_epochs
        progress = min((epoch - self.warmup_epochs) / span, 1.0)
        return self.base_lr + (self.min_lr - self.base_lr) * progress


def tree_map(fn: Callable[..., np.ndarray], tree: Params, *rest: Params) -> Params:
    """Apply ``fn`` to every array of ``tree`` (zipped with ``rest`` by key).

    All dicts must share exactly the keys of ``tree``; the result maps each
    key to ``fn(tree[k], rest_0[k], ...)``.
    """
    for other in rest:
        if set(other) != set(tree):
            raise ValueError("tree_map requires dicts with identical keys")
    return {name: fn(value, *(r[name] for r in rest)) for name, value in tree.items()}


def tile_params(
    params: Params, n: int, keys: Iterable[str] | None = None
) -> Params:
    """Tile selected parameters into ``n`` writable stacked copies.

    Keys outside ``keys`` (default: all) stay unstacked and are shared by
    reference — the mixed stacked/shared dict a partial inner loop wants.
    """
    chosen = set(params) if keys is None else set(keys)
    return {
        name: (np.repeat(value[None], n, axis=0) if name in chosen else value)
        for name, value in params.items()
    }
