"""Reference implementations the equivalence suites and benchmarks check against.

``src/`` computes meta-learning one way: packed, task-batched and
vectorized (:mod:`repro.meta.maml`).  This module holds the plain forms of
the same math, written once, for the tests that pin the fast paths to them
and for the benchmarks that time the fast paths against them:

- **Per-view scalar MAML** — the inner loop of Eq. (1), the FOMAML outer
  step, the Reptile refresh and a full ``fit``, each adapting one corpus
  view at a time.  Views are read through
  :meth:`~repro.meta.corpus.TaskCorpus.view_arrays` and the user row is fed
  as a single ``(1, C)`` row, so in float32 the inner loop reproduces
  :meth:`MAML.adapt_corpus <repro.meta.maml.MAML.adapt_corpus>` bit for bit
  (chunks there never pad).
- **The dense padded meta-batch** — tasks materialized as per-row content
  arrays and zero-padded into ``(T, S, C)`` blocks: the data path
  meta-training used before the packed corpus, kept so the packed meta
  step and chunked adaptation can be checked against it and
  ``benchmarks/bench_meta_corpus.py`` can time the seed pipeline.
- **The sequential Dual-CVAE loop** — the k augmentation models trained one
  after another instead of fused.

The functions drive a live :class:`~repro.meta.maml.MAML` instance (its
parameters, config and optimizer), so a reference run and a fast run seeded
alike start from identical state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.cvae.augment import AugmentedRatings, DiversePreferenceAugmenter
from repro.meta.corpus import TaskCorpus
from repro.meta.maml import MAML, uniform_width_chunks
from repro.nn.module import Grads, Params
from repro.nn.optim import add_grads, clip_grad_norm, mean_task_grads
from repro.nn.stacking import pad_axis, unstack_params


# ----------------------------------------------------------------------
# Per-view scalar MAML
# ----------------------------------------------------------------------
def view_content(corpus: TaskCorpus, view: int):
    """``(user (1, C), support items, support labels, query items, query
    labels)`` content rows of one corpus view."""
    row, s_items, s_labels, q_items, q_labels = corpus.view_arrays(int(view))
    content = corpus.content
    return (
        content.user[row][None, :],
        content.item[s_items],
        s_labels,
        content.item[q_items],
        q_labels,
    )


def adapt(
    maml: MAML,
    user: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    steps: int | None = None,
) -> Params:
    """Eq. (1): ``steps`` gradient steps on one support set from the meta
    parameters.  Only the adaptable keys move; with MeLU's decision-only
    restriction the frozen embedding is computed once, not once per step."""
    fast = dict(maml.params)
    if labels.size == 0:  # no support rows: every inner gradient is zero
        return fast
    lr = maml.config.inner_lr
    n_steps = maml.config.inner_steps if steps is None else steps
    if maml._decision_only:
        joint = maml.model.embed_joint(fast, user, items)
        for _ in range(n_steps):
            _, grads = maml.model.decision_loss_and_grads(fast, joint, labels)
            for name, grad in grads.items():
                fast[name] = fast[name] - lr * grad
        return fast
    adaptable = maml._adaptable_keys
    for _ in range(n_steps):
        _, grads = maml.model.loss_and_grads(fast, user, items, labels)
        for name, grad in grads.items():
            if name in adaptable:
                fast[name] = fast[name] - lr * grad
    return fast


def adapt_view(maml: MAML, corpus: TaskCorpus, view: int, steps: int | None = None) -> Params:
    """:func:`adapt` on one corpus view's support set."""
    user, s_items, s_labels, _, _ = view_content(corpus, view)
    return adapt(maml, user, s_items, s_labels, steps=steps)


def fomaml_step(maml: MAML, corpus: TaskCorpus, view_ids: Sequence[int]) -> float:
    """One first-order MAML outer step, one view at a time.

    Each view is adapted alone, its query gradient at the adapted weights is
    averaged into the meta-gradient, which is clipped and handed to the
    instance's Adam.  Returns the mean query loss.
    """
    meta_grads: Grads = {}
    losses = []
    for view in view_ids:
        user, s_items, s_labels, q_items, q_labels = view_content(corpus, view)
        fast = adapt(maml, user, s_items, s_labels)
        loss, grads = maml.model.loss_and_grads(fast, user, q_items, q_labels)
        losses.append(loss)
        add_grads(meta_grads, grads, scale=1.0 / len(view_ids))
    clip_grad_norm(meta_grads, maml.config.grad_clip)
    maml._optimizer.step(meta_grads)
    return float(np.mean(losses))


def reptile_step(
    maml: MAML,
    corpus: TaskCorpus,
    view_ids: Sequence[int],
    meta_lr: float = 0.1,
    steps: int | None = None,
) -> float:
    """Reptile: move the adaptable meta parameters ``meta_lr`` of the way
    toward the mean of the per-view adapted weights.  Returns the RMS of
    the applied delta."""
    keys = sorted(maml._adaptable_keys & set(maml.params))
    total = {key: np.zeros(maml.params[key].shape) for key in keys}
    for view in view_ids:
        fast = adapt_view(maml, corpus, view, steps=steps)
        for key in keys:
            total[key] += fast[key] - maml.params[key]
    sq_sum, n_elems = 0.0, 0
    for key in keys:
        delta = (meta_lr / len(view_ids)) * total[key]
        maml.params[key] = (maml.params[key] + delta).astype(maml.params[key].dtype)
        sq_sum += float(np.sum(delta * delta))
        n_elems += delta.size
    return float(np.sqrt(sq_sum / max(n_elems, 1)))


def fit(maml: MAML, corpus: TaskCorpus, epochs: int, shuffle: bool = True) -> list[float]:
    """Meta-train through :func:`fomaml_step` on ``MAML.fit``'s schedule."""
    history = []
    for _ in range(epochs):
        batches = corpus.epoch_batches(
            maml.config.meta_batch_size, rng=maml._rng, shuffle=shuffle
        )
        history.append(float(np.mean([fomaml_step(maml, corpus, ids) for ids in batches])))
    return history


# ----------------------------------------------------------------------
# The dense padded meta-batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskBatchItem:
    """One task as dense per-row arrays: the user row copied onto every
    item row of its support and query sets."""

    support_user: np.ndarray
    support_item: np.ndarray
    support_labels: np.ndarray
    query_user: np.ndarray
    query_item: np.ndarray
    query_labels: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))


def materialize(
    user_content: np.ndarray,
    item_content: np.ndarray,
    user_row: int,
    support_items: np.ndarray,
    support_labels: np.ndarray,
    query_items: np.ndarray,
    query_labels: np.ndarray,
) -> TaskBatchItem:
    """Dense arrays for one task (the fields of
    :meth:`~repro.meta.corpus.TaskCorpus.view_arrays`); labels take the
    content dtype."""
    user = user_content[user_row][None, :]
    return TaskBatchItem(
        support_user=np.repeat(user, support_items.size, axis=0),
        support_item=item_content[support_items],
        support_labels=np.asarray(support_labels, dtype=user_content.dtype),
        query_user=np.repeat(user, query_items.size, axis=0),
        query_item=item_content[query_items],
        query_labels=np.asarray(query_labels, dtype=user_content.dtype),
    )


def _pad_rows(arrays: Sequence[np.ndarray], width: int) -> np.ndarray:
    return np.stack([pad_axis(np.asarray(a), 0, width) for a in arrays])


@dataclass(frozen=True)
class TaskBatch:
    """A meta-batch zero-padded to its widest task; the ``*_mask`` arrays
    (1 = real row) keep padding out of every loss and gradient."""

    support_user: np.ndarray  # (T, S, C)
    support_item: np.ndarray  # (T, S, C)
    support_labels: np.ndarray  # (T, S)
    support_mask: np.ndarray  # (T, S)
    query_user: np.ndarray  # (T, Q, C)
    query_item: np.ndarray  # (T, Q, C)
    query_labels: np.ndarray  # (T, Q)
    query_mask: np.ndarray  # (T, Q)

    def __len__(self) -> int:
        return self.support_labels.shape[0]

    @classmethod
    def from_items(cls, items: Sequence[TaskBatchItem]) -> "TaskBatch":
        if not items:
            raise ValueError("empty task batch")
        s_width = max(max(i.support_labels.size for i in items), 1)
        q_width = max(max(i.query_labels.size for i in items), 1)
        support_labels = _pad_rows([i.support_labels for i in items], s_width)
        query_labels = _pad_rows([i.query_labels for i in items], q_width)
        s_mask = np.zeros_like(support_labels)
        q_mask = np.zeros_like(query_labels)
        for t, item in enumerate(items):
            s_mask[t, : item.support_labels.size] = 1.0
            q_mask[t, : item.query_labels.size] = 1.0
        return cls(
            support_user=_pad_rows([i.support_user for i in items], s_width),
            support_item=_pad_rows([i.support_item for i in items], s_width),
            support_labels=support_labels,
            support_mask=s_mask,
            query_user=_pad_rows([i.query_user for i in items], q_width),
            query_item=_pad_rows([i.query_item for i in items], q_width),
            query_labels=query_labels,
            query_mask=q_mask,
        )


def dense_meta_step(maml: MAML, items: Sequence[TaskBatchItem]) -> float:
    """One FOMAML outer step over a dense padded meta-batch."""
    batch = TaskBatch.from_items(items)
    fast = maml._adapt_stacked(
        batch.support_user,
        batch.support_item,
        batch.support_labels,
        batch.support_mask,
        len(batch),
    )
    losses, grads = maml.model.loss_and_grads(
        fast, batch.query_user, batch.query_item, batch.query_labels, mask=batch.query_mask
    )
    meta_grads = mean_task_grads(grads)
    clip_grad_norm(meta_grads, maml.config.grad_clip)
    maml._optimizer.step(meta_grads)
    return float(np.mean(losses))


def dense_fit(maml: MAML, items: Sequence[TaskBatchItem], epochs: int) -> list[float]:
    """Meta-train on shuffled dense meta-batches (the pre-corpus schedule)."""
    history = []
    order = np.arange(len(items))
    bs = maml.config.meta_batch_size
    for _ in range(epochs):
        maml._rng.shuffle(order)
        losses = [
            dense_meta_step(maml, [items[i] for i in order[start : start + bs]])
            for start in range(0, len(order), bs)
        ]
        history.append(float(np.mean(losses)))
    return history


def dense_adapt_many(
    maml: MAML, items: Sequence[TaskBatchItem], steps: int, max_chunk: int = 64
) -> list[Params]:
    """Adapt dense tasks, one stacked inner loop per same-support-width chunk."""
    widths = np.array([item.support_labels.size for item in items])
    results: list[Params | None] = [None] * len(items)
    for chunk in uniform_width_chunks(widths, np.argsort(widths, kind="stable"), max_chunk):
        batch = TaskBatch.from_items([items[i] for i in chunk])
        fast = maml._adapt_stacked(
            batch.support_user,
            batch.support_item,
            batch.support_labels,
            batch.support_mask,
            len(batch),
            steps=steps,
        )
        parts = unstack_params(
            fast, len(batch), stacked_keys=maml._adaptable_keys & set(fast), copy=True
        )
        for i, part in zip(chunk, parts):
            results[i] = part
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# The sequential Dual-CVAE loop
# ----------------------------------------------------------------------
def fit_generate_sequential(augmenter: DiversePreferenceAugmenter) -> AugmentedRatings:
    """Train the augmenter's k Dual-CVAEs one after another, then generate."""
    augmenter.trainers = augmenter._build_trainers()
    for trainer in augmenter.trainers:
        trainer.train()
    return augmenter.generate()
