"""Model-agnostic meta-learning (Finn et al., 2017) over preference tasks.

The inner loop locally adapts parameters on a task's support set (Eq. 1);
the outer loop updates the meta-initialization from the query-set loss.  We
use the first-order approximation (FOMAML): the query gradient evaluated at
the adapted parameters is applied to the meta-parameters directly.  An
optional MeLU-style restriction adapts only the decision (MLP) layers in the
inner loop while embeddings stay global.

The hot path is *task-batched*: a meta-batch of tasks is padded into one
:class:`TaskBatch` and adapted in a single vectorized inner loop over
stacked fast weights (``[T, ...]`` parameter arrays, see
:mod:`repro.nn.stacking`), so both meta-training (:meth:`MAML.meta_step`)
and meta-testing many cold-start users at once (:meth:`MAML.adapt_many`)
cost one numpy pass per inner step instead of one per task.  The scalar
per-task path (:meth:`MAML.adapt` with ``config.vectorize=False``) is kept
as the reference implementation the equivalence tests check against.

The *data* path is packed on top of that: handed a
:class:`~repro.meta.corpus.TaskCorpus`, :meth:`MAML.fit` iterates bucketed
epoch batches of view ids and each meta-step fancy-indexes the packed
index/label pools into reused scratch buffers, gathering content rows only
inside the step (:meth:`MAML.meta_step_corpus`) — no dense ``(T, S, C)``
content outlives a step and the per-batch Python padding loops of
:meth:`TaskBatch.from_items` disappear from training entirely.
``MAMLConfig.packed=False`` keeps the materialized :class:`TaskBatchItem`
reference data path (same schedules, same float32 content) that the
equivalence suite pins the packed path against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.meta.corpus import (
    BatchScratch,
    PackedContent,
    TaskCorpus,
    TaskCorpusBuilder,
    pack_content,
)
from repro.meta.model import PreferenceModel
from repro.nn.module import Grads, Params
from repro.nn.optim import Adam, add_grads, clip_grad_norm, mean_task_grads
from repro.nn.stacking import pad_axis, tile_params, unstack_params
from repro.obs import metrics as obs_metrics
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MAMLConfig:
    """MAML hyper-parameters.

    ``inner_lr`` is α of Eq. (1); ``local_only_decision`` restricts the
    inner-loop update to the MLP decision layers (MeLU's scheme);
    ``vectorize=False`` falls back to the scalar one-task-at-a-time loops
    (the reference implementation — slower, numerically equivalent);
    ``packed=False`` falls back to the materialized :class:`TaskBatchItem`
    data path when training from a :class:`~repro.meta.corpus.TaskCorpus`
    (same schedules, dense content copies — the reference the packed
    fancy-indexing path is pinned against).
    """

    inner_lr: float = 0.05
    inner_steps: int = 2
    outer_lr: float = 1e-3
    meta_batch_size: int = 16
    grad_clip: float = 5.0
    local_only_decision: bool = False
    vectorize: bool = True
    packed: bool = True

    def __post_init__(self) -> None:
        if self.inner_lr <= 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps <= 0 or self.meta_batch_size <= 0:
            raise ValueError("inner_steps and meta_batch_size must be positive")


@dataclass(frozen=True)
class TaskBatchItem:
    """Materialized arrays for one task: contents and labels, support+query."""

    support_user: np.ndarray
    support_item: np.ndarray
    support_labels: np.ndarray
    query_user: np.ndarray
    query_item: np.ndarray
    query_labels: np.ndarray


def _pad_rows(arrays: Sequence[np.ndarray], width: int) -> np.ndarray:
    """Stack variable-length arrays into ``(T, width, ...)`` with zero padding.

    Dtype-preserving (a float32 corpus stays float32 through padding); each
    row is zero-padded with :func:`~repro.nn.stacking.pad_axis`.
    """
    return np.stack([pad_axis(np.asarray(a), 0, width) for a in arrays])


def uniform_width_chunks(
    widths: np.ndarray, order: np.ndarray, max_chunk: int
) -> list[np.ndarray]:
    """Split a width-sorted index ``order`` into same-width runs ≤ ``max_chunk``.

    Stacking tasks of one support width is bit-identical to adapting each
    alone — the per-task GEMM rows are unchanged by the extra task axis —
    but *padding* a mixed-width chunk perturbs the low-order bits of every
    shorter task's updates.  Cutting chunks at width boundaries therefore
    makes adapted fast weights a pure function of ``(params, task)``,
    independent of which other tasks happen to share the flush; the sharded
    serving layer's bit-equivalence guarantee rests on this.
    """
    chunks: list[np.ndarray] = []
    start = 0
    for i in range(1, order.size + 1):
        if (
            i == order.size
            or widths[order[i]] != widths[order[start]]
            or i - start >= max_chunk
        ):
            chunks.append(order[start:i])
            start = i
    return chunks


@dataclass(frozen=True)
class TaskBatch:
    """A whole meta-batch of tasks as padded ``[T, ...]`` arrays.

    Ragged support/query sets are zero-padded to the largest task in the
    batch; the ``*_mask`` arrays (1 = real row, 0 = padding) keep padded
    rows out of every loss and gradient.  Built once per meta-batch with
    :meth:`from_items`, consumed by the vectorized MAML paths.
    """

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
        s_mask = np.zeros((len(items), s_width), dtype=support_labels.dtype)
        q_mask = np.zeros((len(items), q_width), dtype=query_labels.dtype)
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


class MAML:
    """First-order MAML driving a :class:`PreferenceModel`."""

    def __init__(
        self,
        model: PreferenceModel,
        config: MAMLConfig | None = None,
        seed: int | np.random.Generator | None = 0,
    ):
        self.model = model
        self.config = config or MAMLConfig()
        self._rng = ensure_rng(seed)
        self.params: Params = model.init_params(self._rng)
        self._optimizer = Adam(self.params, lr=self.config.outer_lr)
        self._scratch = BatchScratch()
        # Training spans report through the process-global registry:
        # trainers are built deep inside methods, so per-instance wiring
        # would never reach the CLI/bench edges that read the metrics.
        self._metrics = obs_metrics()
        self._adaptable: set[str] | None = None
        if self.config.local_only_decision:
            self._adaptable = set(model.decision_params(self.params))
        # With frozen embeddings, the inner loop only needs the MLP head:
        # the support embedding is computed once per adaptation and reused
        # across every inner step (a large win — the embedding GEMMs over
        # high-dimensional content dominate the full backward pass).
        self._decision_only = (
            self._adaptable is not None
            and hasattr(model, "embed_joint")
            and hasattr(model, "decision_loss_and_grads")
            and all(name.startswith("mlp.") for name in self._adaptable)
        )

    @property
    def _adaptable_keys(self) -> set[str]:
        """Parameter names the inner loop may update."""
        if self._adaptable is not None:
            return set(self._adaptable)
        return set(self.params)

    # ------------------------------------------------------------------
    def adapt(
        self,
        item: TaskBatchItem,
        params: Params | None = None,
        steps: int | None = None,
    ) -> Params:
        """Inner loop: returns task-adapted fast weights (meta params untouched).

        This is the single scalar implementation of Eq. (1) — meta-training
        adaptation and meta-testing fine-tuning (:meth:`finetune`) both run
        through it; ``steps`` overrides ``config.inner_steps``.
        """
        fast = dict(params if params is not None else self.params)
        n_steps = self.config.inner_steps if steps is None else steps
        if self._decision_only:
            joint = self.model.embed_joint(fast, item.support_user, item.support_item)
            for _ in range(n_steps):
                _, grads = self.model.decision_loss_and_grads(
                    fast, joint, item.support_labels
                )
                for name, grad in grads.items():
                    fast[name] = fast[name] - self.config.inner_lr * grad
            return fast
        for _ in range(n_steps):
            _, grads = self.model.loss_and_grads(
                fast, item.support_user, item.support_item, item.support_labels
            )
            for name, grad in grads.items():
                if self._adaptable is not None and name not in self._adaptable:
                    continue
                fast[name] = fast[name] - self.config.inner_lr * grad
        return fast

    def adapt_batch(
        self,
        batch: TaskBatch,
        params: Params | None = None,
        steps: int | None = None,
    ) -> Params:
        """Vectorized inner loop over a whole padded meta-batch of tasks.

        Returns one *stacked* fast-weight dict: every adaptable parameter
        carries a leading ``[T, ...]`` task axis while non-adaptable
        parameters (MeLU's global embeddings) stay unstacked and shared by
        reference.  Each of the ``steps`` inner updates is a single numpy
        pass over all ``T`` tasks; padding rows are masked out of every
        gradient, so the result matches running :meth:`adapt` per task.
        """
        return self._adapt_stacked(
            batch.support_user,
            batch.support_item,
            batch.support_labels,
            batch.support_mask,
            len(batch),
            params=params,
            steps=steps,
        )

    def _adapt_stacked(
        self,
        support_user: np.ndarray,
        support_item: np.ndarray,
        support_labels: np.ndarray,
        support_mask: np.ndarray,
        n_tasks: int,
        params: Params | None = None,
        steps: int | None = None,
    ) -> Params:
        """The vectorized inner loop over prepared ``[T, ...]`` arrays.

        Shared by the materialized (:class:`TaskBatch`) and packed-corpus
        data paths; ``support_user`` may be the broadcast-user form
        ``(T, 1, C)`` (see :class:`~repro.meta.model.PreferenceModel`).
        """
        base = params if params is not None else self.params
        adaptable = self._adaptable_keys & set(base)
        fast = tile_params(base, n_tasks, keys=adaptable)
        n_steps = self.config.inner_steps if steps is None else steps
        if self._decision_only:
            # Frozen embeddings: embed every task's support set once (the
            # embedding weights are shared and never change inside the inner
            # loop), then iterate only the stacked MLP head.
            joint = self.model.embed_joint(fast, support_user, support_item)
            for _ in range(n_steps):
                _, grads = self.model.decision_loss_and_grads(
                    fast, joint, support_labels, mask=support_mask
                )
                for name in adaptable:
                    grad = grads[name]
                    grad *= self.config.inner_lr
                    fast[name] -= grad
            return fast
        for _ in range(n_steps):
            _, grads = self.model.loss_and_grads(
                fast,
                support_user,
                support_item,
                support_labels,
                mask=support_mask,
            )
            for name in adaptable:
                grad = grads[name]
                grad *= self.config.inner_lr
                fast[name] -= grad
        return fast

    def adapt_many(
        self,
        items: Sequence[TaskBatchItem],
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> list[Params]:
        """Adapt many independent tasks, vectorized in chunks of ``max_chunk``.

        The batched counterpart of calling :meth:`adapt` (or
        :meth:`finetune`) in a loop — this is the serving-side primitive
        that fine-tunes a whole flush of cold-start users at once.  Returns
        one ordinary fast-weight dict per task (views into the stacked
        storage; shared non-adapted weights stay shared).  ``max_chunk``
        bounds the stacked ``(T, S, C)`` scratch memory; tasks are grouped
        into same-support-width chunks (see :func:`uniform_width_chunks`) so
        every chunk stacks padding-free and each task's fast weights are
        bit-identical to a solo :meth:`adapt` — independent of which other
        tasks share the flush.
        """
        if max_chunk <= 0:
            raise ValueError("max_chunk must be positive")
        if not self.config.vectorize:
            return [self.adapt(item, steps=steps) for item in items]
        widths = np.array([item.support_labels.size for item in items])
        order = np.argsort(widths, kind="stable")
        results: list[Params | None] = [None] * len(items)
        for indices in uniform_width_chunks(widths, order, max_chunk):
            if len(indices) == 1:
                results[indices[0]] = self.adapt(items[indices[0]], steps=steps)
                continue
            chunk = [items[i] for i in indices]
            fast = self.adapt_batch(TaskBatch.from_items(chunk), steps=steps)
            # copy=True: the per-task dicts may be cached long past this
            # chunk (serving LRU) and must not pin the stacked block alive.
            parts = unstack_params(
                fast,
                len(chunk),
                stacked_keys=self._adaptable_keys & set(fast),
                copy=True,
            )
            for i, part in zip(indices, parts):
                results[i] = part
        return results  # type: ignore[return-value]

    def meta_step(self, batch: Sequence[TaskBatchItem]) -> float:
        """One outer-loop update over a batch of tasks; returns mean query loss.

        The whole meta-batch is adapted in one vectorized inner loop and its
        FOMAML query gradients are taken in one backward pass (per-task
        gradients averaged over the task axis).  ``config.vectorize=False``
        selects the equivalent scalar reference loop.
        """
        if not batch:
            raise ValueError("empty task batch")
        if not self.config.vectorize:
            return self._meta_step_loop(batch)
        task_batch = TaskBatch.from_items(batch)
        fast = self.adapt_batch(task_batch)
        losses, grads = self.model.loss_and_grads(
            fast,
            task_batch.query_user,
            task_batch.query_item,
            task_batch.query_labels,
            mask=task_batch.query_mask,
        )
        meta_grads = mean_task_grads(grads)
        clip_grad_norm(meta_grads, self.config.grad_clip)
        self._optimizer.step(meta_grads)
        return float(np.mean(losses))

    def meta_step_corpus(self, corpus: TaskCorpus, view_ids: np.ndarray) -> float:
        """One outer-loop update straight from the packed corpus.

        The batch is assembled by fancy-indexing the corpus pools into
        reused scratch buffers (no per-task Python work), content rows are
        gathered once per side, and the user row rides the batch as a
        ``(T, 1, C)`` broadcast input — the only dense ``(T, S, C)`` array
        is the item-content gather, which lives in scratch and dies with
        the step.
        """
        content = corpus.content
        if content is None:
            raise ValueError("corpus has no content attached")
        with self._metrics.span("meta.step", size=len(view_ids)):
            with self._metrics.span("meta.gather"):
                batch = corpus.gather_batch(view_ids, scratch=self._scratch)
            cu, fast = self._adapt_gathered(content, batch)
            ci_q = self._scratch.get(
                "ci_query",
                batch.query_items.shape + (content.dim,),
                content.item.dtype,
            )
            with self._metrics.span("meta.gather"):
                np.take(content.item, batch.query_items, axis=0, out=ci_q)
            losses, grads = self.model.loss_and_grads(
                fast, cu, ci_q, batch.query_labels, mask=batch.query_mask
            )
            meta_grads = mean_task_grads(grads)
            clip_grad_norm(meta_grads, self.config.grad_clip)
            self._optimizer.step(meta_grads)
        return float(np.mean(losses))

    def _adapt_gathered(self, content, batch, steps: int | None = None):
        """Support-side content gather + vectorized inner loop for a packed
        batch; returns ``(cu, fast)`` (the ``(T, 1, C)`` user rows are
        reused by the caller's query pass)."""
        with self._metrics.span("meta.gather"):
            cu = content.user[batch.user_rows][:, None, :]
            ci = self._scratch.get(
                "ci_support",
                batch.support_items.shape + (content.dim,),
                content.item.dtype,
            )
            np.take(content.item, batch.support_items, axis=0, out=ci)
        fast = self._adapt_stacked(
            cu, ci, batch.support_labels, batch.support_mask, len(batch), steps=steps
        )
        return cu, fast

    def _meta_step_loop(self, batch: Sequence[TaskBatchItem]) -> float:
        """Scalar reference implementation of :meth:`meta_step`."""
        meta_grads: Grads = {}
        total_loss = 0.0
        for item in batch:
            fast = self.adapt(item)
            loss, grads = self.model.loss_and_grads(
                fast, item.query_user, item.query_item, item.query_labels
            )
            total_loss += loss
            add_grads(meta_grads, grads, scale=1.0 / len(batch))
        clip_grad_norm(meta_grads, self.config.grad_clip)
        self._optimizer.step(meta_grads)
        return total_loss / len(batch)

    def fit(
        self,
        tasks: TaskCorpus | Sequence[TaskBatchItem],
        epochs: int,
        shuffle: bool = True,
    ) -> list[float]:
        """Meta-train for ``epochs`` passes over ``tasks``; returns loss trace.

        ``tasks`` is either a packed :class:`~repro.meta.corpus.TaskCorpus`
        (the fast path: bucketed epoch batching, index-based meta-steps) or
        a dense :class:`TaskBatchItem` sequence.  With a corpus,
        ``config.packed=False`` materializes each batch through the same
        schedule instead — only the data path changes, so the two traces
        agree to float rounding.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if isinstance(tasks, TaskCorpus):
            return self._fit_corpus(tasks, epochs, shuffle)
        history: list[float] = []
        order = np.arange(len(tasks))
        for _ in range(epochs):
            with self._metrics.span("meta.epoch", size=len(tasks)):
                if shuffle:
                    self._rng.shuffle(order)
                epoch_loss = 0.0
                n_batches = 0
                bs = self.config.meta_batch_size
                for start in range(0, len(order), bs):
                    batch = [tasks[i] for i in order[start : start + bs]]
                    with self._metrics.span("meta.step", size=len(batch)):
                        epoch_loss += self.meta_step(batch)
                    n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        return history

    def _fit_corpus(
        self, corpus: TaskCorpus, epochs: int, shuffle: bool
    ) -> list[float]:
        history: list[float] = []
        bs = self.config.meta_batch_size
        # The packed data path rides the vectorized inner loop; either
        # reference flag (packed=False data path, vectorize=False scalar
        # math — meta_step dispatches the latter) materializes instead.
        use_packed = self.config.packed and self.config.vectorize
        for _ in range(epochs):
            with self._metrics.span("meta.epoch", size=corpus.n_views):
                epoch_loss = 0.0
                n_batches = 0
                for view_ids in corpus.epoch_batches(
                    bs, rng=self._rng, shuffle=shuffle
                ):
                    if use_packed:
                        epoch_loss += self.meta_step_corpus(corpus, view_ids)
                    else:
                        epoch_loss += self.meta_step(corpus.materialize(view_ids))
                    n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        return history

    def adapt_corpus(
        self,
        corpus: TaskCorpus,
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> list[Params]:
        """Adapt every view of ``corpus`` independently; packed counterpart
        of :meth:`adapt_many`.

        Views are grouped into same-support-width chunks of at most
        ``max_chunk`` (see :func:`uniform_width_chunks`); each chunk is one
        fancy-indexed gather plus one vectorized inner loop, with no
        padding, so every view's fast weights are bit-identical to adapting
        it alone.  Returns one owning fast-weight dict per view (shared
        non-adapted weights stay shared).
        """
        if max_chunk <= 0:
            raise ValueError("max_chunk must be positive")
        if not (self.config.vectorize and self.config.packed):
            return self.adapt_many(
                corpus.materialize(), steps=steps, max_chunk=max_chunk
            )
        content = corpus.content
        if content is None:
            raise ValueError("corpus has no content attached")
        widths = corpus.view_support_lens()
        order = np.argsort(widths, kind="stable")
        results: list[Params | None] = [None] * corpus.n_views
        for chunk in uniform_width_chunks(widths, order, max_chunk):
            batch = corpus.gather_batch(
                chunk, scratch=self._scratch, support_only=True
            )
            _, fast = self._adapt_gathered(content, batch, steps=steps)
            # copy=True: the per-view dicts may be cached long past this
            # chunk (serving LRU) and must not pin the stacked block alive.
            parts = unstack_params(
                fast,
                len(batch),
                stacked_keys=self._adaptable_keys & set(fast),
                copy=True,
            )
            for i, part in zip(chunk, parts):
                results[int(i)] = part
        return results  # type: ignore[return-value]

    def refresh_from(
        self,
        corpus: TaskCorpus,
        view_ids: np.ndarray | None = None,
        meta_lr: float = 0.1,
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> float:
        """Reptile-style meta-refresh from (a tail of) a task corpus.

        Adapts each selected view from the current initialization and nudges
        the meta-parameters toward the mean adapted solution: ``θ ← θ +
        ε·mean_i(φ_i − θ)`` over the adaptable keys only (Reptile's outer
        step, first-order like the FOMAML trainer).  This is the streaming
        counterpart of :meth:`fit` — O(tail) instead of O(corpus), no
        optimizer state touched — meant to absorb freshly observed tasks
        between full retrains.  Updated arrays are assigned *into* the
        existing ``self.params`` dict (never a new dict), so the optimizer
        and any aliased references see the refresh; memmap-backed artifact
        params are replaced by in-memory arrays, not written through.

        Returns the RMS of the applied parameter delta (0.0 when no views).
        """
        if not 0.0 < meta_lr <= 1.0:
            raise ValueError("meta_lr must be in (0, 1]")
        ids = (
            np.arange(corpus.n_views)
            if view_ids is None
            else np.asarray(view_ids, dtype=np.int64)
        )
        if ids.size == 0:
            return 0.0
        adaptable = sorted(self._adaptable_keys & set(self.params))
        totals = {
            key: np.zeros(self.params[key].shape, dtype=np.float64)
            for key in adaptable
        }
        if self.config.vectorize and self.config.packed and corpus.content is not None:
            widths = corpus.view_support_lens(ids)
            order = np.argsort(widths, kind="stable")
            for chunk in uniform_width_chunks(widths, order, max_chunk):
                batch = corpus.gather_batch(
                    ids[chunk], scratch=self._scratch, support_only=True
                )
                _, fast = self._adapt_gathered(corpus.content, batch, steps=steps)
                for key in adaptable:
                    totals[key] += (fast[key] - self.params[key][None]).sum(axis=0)
        else:
            for fast in self.adapt_many(
                corpus.materialize(ids), steps=steps, max_chunk=max_chunk
            ):
                for key in adaptable:
                    totals[key] += fast[key] - self.params[key]
        scale = meta_lr / ids.size
        sq_sum = 0.0
        n_elems = 0
        for key in adaptable:
            delta = scale * totals[key]
            self.params[key] = np.asarray(
                self.params[key] + delta, dtype=self.params[key].dtype
            )
            sq_sum += float(np.sum(delta * delta))
            n_elems += delta.size
        return float(np.sqrt(sq_sum / max(n_elems, 1)))

    # ------------------------------------------------------------------
    def finetune(self, item: TaskBatchItem, steps: int | None = None) -> Params:
        """Meta-testing adaptation: :meth:`adapt` with a step override."""
        return self.adapt(item, steps=steps)

    def predict(
        self,
        user_content: np.ndarray,
        item_content: np.ndarray,
        params: Params | None = None,
    ) -> np.ndarray:
        """Score aligned (user, item) content rows with meta or fast weights."""
        return self.model.predict(
            params if params is not None else self.params, user_content, item_content
        )


def adapt_task_states(
    maml: MAML,
    user_content: np.ndarray,
    item_content: np.ndarray,
    tasks: Sequence,
    steps: int,
) -> list[Params | None]:
    """Fast weights for a batch of support tasks, adapted in one pass.

    The shared ``adapt_users`` backend of MAML-based recommenders: unique
    tasks (by object identity — evaluation aligns many instances to one
    task object) are packed into a transient :class:`TaskCorpus` and
    fine-tuned together through :meth:`MAML.adapt_corpus` (or materialized
    through :meth:`MAML.adapt_many` when ``config.packed=False``);
    positions whose task is ``None``/empty (or when ``steps == 0``) stay
    ``None``, meaning "serve from the meta-initialization".  Instances
    sharing a task share the *same* returned dict, which downstream
    scoring coalesces by identity.
    """
    states: list[Params | None] = [None] * len(tasks)
    slot_of: dict[int, int] = {}
    unique: list = []
    owners: list[list[int]] = []
    for i, task in enumerate(tasks):
        if task is None or task.n_support == 0 or steps == 0:
            continue
        slot = slot_of.get(id(task))
        if slot is None:
            slot = len(unique)
            slot_of[id(task)] = slot
            unique.append(task)
            owners.append([])
        owners[slot].append(i)
    if not unique:
        return states
    if maml.config.packed and maml.config.vectorize:
        builder = TaskCorpusBuilder(pack_content(user_content, item_content))
        for task in unique:
            builder.add_task(task)
        fasts = maml.adapt_corpus(builder.build(), steps=steps)
    else:
        items = [
            materialize_task(
                user_content,
                item_content,
                task.user_row,
                task.support_items,
                task.support_labels,
                task.query_items,
                task.query_labels,
            )
            for task in unique
        ]
        fasts = maml.adapt_many(items, steps=steps)
    for slot, fast in enumerate(fasts):
        for i in owners[slot]:
            states[i] = fast
    return states


def stream_refresh(
    maml: MAML,
    content: PackedContent,
    tasks: Sequence,
    corpus: TaskCorpus | None = None,
    meta_lr: float = 0.1,
    steps: int | None = None,
) -> tuple[TaskCorpus, dict]:
    """Append observed tasks to a streaming corpus and reptile-refresh.

    The shared ``meta_refresh`` backend of MAML-based recommenders: live
    support tasks (``None``/support-empty entries are skipped) are appended
    to ``corpus`` — created via :meth:`TaskCorpus.empty` on first use, so
    repeated refreshes accumulate an event-log corpus — and only the newly
    appended tail feeds :meth:`MAML.refresh_from`.  Returns the (possibly
    new) corpus plus ``{"n_tasks", "delta_rms"}``.
    """
    if corpus is None:
        corpus = TaskCorpus.empty(content)
    live = [t for t in tasks if t is not None and t.n_support > 0]
    if not live:
        return corpus, {"n_tasks": 0, "delta_rms": 0.0}
    start = corpus.n_views
    corpus.extend(live)
    delta = maml.refresh_from(
        corpus,
        view_ids=np.arange(start, corpus.n_views),
        meta_lr=meta_lr,
        steps=steps,
    )
    return corpus, {"n_tasks": len(live), "delta_rms": delta}


def subsample_support(
    task,
    rng: np.random.Generator,
    max_positives: int = 3,
    neg_per_pos: int = 2,
):
    """Few-shot view of a task: a handful of support positives/negatives.

    Cold-start meta-testing adapts on 1–4 ratings, while warm training tasks
    carry much larger support sets.  Adding subsampled views to the
    meta-training stream aligns the two regimes so the learned
    initialization is good at *few-shot* adaptation.  Returns a new
    :class:`repro.data.tasks.PreferenceTask` with the same query set.
    """
    from dataclasses import replace

    pos_mask = task.support_labels > 0.5
    positives = task.support_items[pos_mask]
    negatives = task.support_items[~pos_mask]
    if positives.size == 0:
        return task
    n_pos = min(max_positives, positives.size)
    keep_pos = rng.choice(positives, size=n_pos, replace=False)
    n_neg = min(neg_per_pos * n_pos, negatives.size)
    keep_neg = (
        rng.choice(negatives, size=n_neg, replace=False)
        if n_neg > 0
        else np.array([], dtype=int)
    )
    items = np.concatenate([keep_pos, keep_neg]).astype(int)
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    return replace(task, support_items=items, support_labels=labels)


def materialize_task(
    user_content: np.ndarray,
    item_content: np.ndarray,
    user_row: int,
    support_items: np.ndarray,
    support_labels: np.ndarray,
    query_items: np.ndarray,
    query_labels: np.ndarray,
) -> TaskBatchItem:
    """Turn index-based task data into dense arrays for the model.

    The user's content row is a read-only broadcast *view* across the item
    rows (never per-row copies); labels follow the content dtype so a
    float32 stack stays float32.
    """
    cu = user_content[user_row]
    dtype = user_content.dtype if user_content.dtype.kind == "f" else np.float64
    return TaskBatchItem(
        support_user=np.broadcast_to(cu, (support_items.size, cu.shape[0])),
        support_item=item_content[support_items],
        support_labels=np.asarray(support_labels, dtype=dtype),
        query_user=np.broadcast_to(cu, (query_items.size, cu.shape[0])),
        query_item=item_content[query_items],
        query_labels=np.asarray(query_labels, dtype=dtype),
    )
