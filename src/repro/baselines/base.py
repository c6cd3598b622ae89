"""Shared helpers for the baseline implementations."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.tasks import TaskSet
from repro.nn.module import Grads, Params
from repro.nn.optim import Adam, clip_grad_norm
from repro.utils.batching import iter_batches
from repro.utils.rng import ensure_rng


def warm_triples(
    warm_tasks: TaskSet, include_query: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten warm meta-tasks into supervised (user, item, label) triples.

    By default only the *support* portions are used: the query positives are
    the warm-start evaluation targets, so supervised baselines must never
    train on them.  (``include_query=True`` exists for diagnostics only.)
    """
    users: list[np.ndarray] = []
    items: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for task in warm_tasks:
        if include_query:
            task_items = np.concatenate([task.support_items, task.query_items])
            task_labels = np.concatenate([task.support_labels, task.query_labels])
        else:
            task_items = task.support_items
            task_labels = task.support_labels
        users.append(np.full(task_items.size, task.user_row, dtype=int))
        items.append(task_items)
        labels.append(task_labels)
    if not users:
        empty = np.array([], dtype=int)
        return empty, empty, np.array([], dtype=float)
    return (
        np.concatenate(users),
        np.concatenate(items),
        np.concatenate(labels).astype(float),
    )


def domain_triples(
    ratings: np.ndarray,
    n_neg_per_pos: int,
    rng: np.random.Generator,
    max_users: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample (user, item, label) triples from a full rating matrix.

    Used by cross-domain baselines to draw source-domain training data.
    """
    n_users, n_items = ratings.shape
    rows = np.arange(n_users)
    if max_users is not None and n_users > max_users:
        rows = rng.choice(rows, size=max_users, replace=False)
    users: list[int] = []
    items: list[int] = []
    labels: list[float] = []
    for row in rows:
        pos = np.flatnonzero(ratings[row] > 0)
        if pos.size == 0:
            continue
        neg_pool = np.flatnonzero(ratings[row] == 0)
        n_neg = min(n_neg_per_pos * pos.size, neg_pool.size)
        neg = rng.choice(neg_pool, size=n_neg, replace=False) if n_neg else []
        for i in pos:
            users.append(row)
            items.append(int(i))
            labels.append(1.0)
        for i in neg:
            users.append(row)
            items.append(int(i))
            labels.append(0.0)
    return np.asarray(users), np.asarray(items), np.asarray(labels)


LossGradFn = Callable[[np.ndarray], tuple[float, Grads]]


def train_supervised(
    params: Params,
    loss_grad_fn: LossGradFn,
    n_samples: int,
    epochs: int,
    batch_size: int = 64,
    lr: float = 1e-3,
    grad_clip: float = 5.0,
    rng: int | np.random.Generator | None = 0,
) -> list[float]:
    """Generic mini-batch Adam loop.

    ``loss_grad_fn(batch_indices)`` returns the batch loss and gradients for
    ``params``.  Returns the per-epoch mean loss trace.
    """
    if n_samples <= 0:
        raise ValueError("no training samples")
    gen = ensure_rng(rng)
    optimizer = Adam(params, lr=lr)
    history: list[float] = []
    for _ in range(epochs):
        total = 0.0
        n_batches = 0
        for batch in iter_batches(n_samples, batch_size, rng=gen):
            loss, grads = loss_grad_fn(batch)
            clip_grad_norm(grads, grad_clip)
            optimizer.step(grads)
            total += float(loss)
            n_batches += 1
        history.append(total / max(n_batches, 1))
    return history


def repeat_user_content(
    content: np.ndarray, user_row: int, n: int
) -> np.ndarray:
    """Broadcast one user's content row against ``n`` candidate items."""
    return np.repeat(content[user_row][None, :], n, axis=0)
