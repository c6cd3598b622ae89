"""Model-agnostic meta-learning (Finn et al., 2017) over preference tasks.

The inner loop locally adapts parameters on a task's support set (Eq. 1);
the outer loop updates the meta-initialization from the query-set loss.  We
use the first-order approximation (FOMAML): the query gradient evaluated at
the adapted parameters is applied to the meta-parameters directly.  An
optional MeLU-style restriction adapts only the decision (MLP) layers in the
inner loop while embeddings stay global.

Every entry point reads a packed :class:`~repro.meta.corpus.TaskCorpus`
and is *task-batched*: a batch of views is fancy-indexed out of the corpus
pools into reused scratch buffers and adapted in one vectorized inner loop.
The meta-parameters live in one flat buffer at the model's
:attr:`~repro.meta.model.PreferenceModel.layout`, and the ``T`` tasks' fast
weights in one ``(T, P)`` block of its adaptable span (every parameter, or
MeLU's decision layers — one contiguous tail), see
:class:`~repro.nn.stacking.FlatParams`: tiling is one broadcast copy, each
inner step one backward pass into a ``(T, P)`` gradient buffer plus one
in-place ``block -= lr * grad``, and an adapted view is one row.  Item
content is gathered only inside the step
and each view's user row rides as a ``(T, 1, C)`` broadcast input, so no
dense ``(T, S, C)`` content outlives a step.  Meta-training
(:meth:`MAML.fit`, one :meth:`MAML.meta_step_corpus` per bucketed epoch
batch), serving-time adaptation of many cold-start users
(:meth:`MAML.adapt_corpus`) and the streaming Reptile refresh
(:meth:`MAML.refresh_from`) all cost one numpy pass per inner step instead
of one per task.  The per-view reference math they are checked against
lives in the test suite (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.meta.corpus import (
    BatchScratch,
    PackedContent,
    TaskCorpus,
    TaskCorpusBuilder,
)
from repro.meta.model import PreferenceModel
from repro.nn.module import Params
from repro.nn.optim import Adam, clip_grad_norm, mean_task_grads, require_finite
from repro.nn.stacking import FlatParams
from repro.obs import metrics as obs_metrics
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class MAMLConfig:
    """MAML hyper-parameters.

    ``inner_lr`` is α of Eq. (1); ``local_only_decision`` restricts the
    inner-loop update to the MLP decision layers (MeLU's scheme).
    """

    inner_lr: float = 0.05
    inner_steps: int = 2
    outer_lr: float = 1e-3
    meta_batch_size: int = 16
    grad_clip: float = 5.0
    local_only_decision: bool = False

    def __post_init__(self) -> None:
        require_finite("inner_lr", self.inner_lr)
        require_finite("outer_lr", self.outer_lr)
        require_finite("grad_clip", self.grad_clip)
        if self.inner_steps <= 0 or self.meta_batch_size <= 0:
            raise ValueError("inner_steps and meta_batch_size must be positive")


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
        self.params = model.init_params(self._rng)
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
        self._decision_only = self._adaptable is not None
        #: the fast weights' span of the layout: all of it, or the tail of
        #: decision layers.
        self._fast_layout = model.layout.sub(self._adaptable_keys)

    @property
    def params(self) -> FlatParams:
        """The meta-parameters, one :class:`FlatParams` at the model layout."""
        return self._params

    @params.setter
    def params(self, params: Params) -> None:
        if not isinstance(params, FlatParams):
            params = FlatParams.adopt(self.model.layout, params)
        self._params = params

    @property
    def _adaptable_keys(self) -> set[str]:
        """Parameter names the inner loop may update."""
        if self._adaptable is not None:
            return set(self._adaptable)
        return set(self.params)

    # ------------------------------------------------------------------
    def _adapt_stacked(
        self,
        support_user: np.ndarray,
        support_item: np.ndarray,
        support_labels: np.ndarray,
        support_mask: np.ndarray,
        n_tasks: int,
        steps: int | None = None,
    ) -> FlatParams:
        """The vectorized inner loop (Eq. 1) over prepared ``[T, ...]`` arrays.

        Returns the stacked fast weights: a :class:`FlatParams` over a
        fresh ``(T, P)`` block of the adaptable span, so every adaptable
        parameter carries a leading ``[T, ...]`` task axis, while
        non-adaptable parameters (MeLU's global embeddings) stay unstacked
        and shared by reference.  Each of the ``steps`` inner updates is a
        single numpy pass over all ``T`` tasks; the ``support_mask`` keeps
        padded rows out of every gradient.  ``support_user`` may be the
        broadcast-user form ``(T, 1, C)`` (see
        :class:`~repro.meta.model.PreferenceModel`).
        """
        layout = self._fast_layout
        theta = self.params
        block = np.empty((n_tasks, layout.size), dtype=theta.flat.dtype)
        block[...] = theta.flat[layout.start : layout.start + layout.size]
        fast = FlatParams(layout, block, shared=theta)
        grads = FlatParams(layout, np.empty_like(block))
        grad = grads.flat
        n_steps = self.config.inner_steps if steps is None else steps
        # Frozen embeddings: embed every task's support set once (the
        # embedding weights are shared and never change inside the inner
        # loop), then iterate only the stacked MLP head.
        joint = (
            self.model.embed_joint(fast, support_user, support_item)
            if self._decision_only
            else None
        )
        for _ in range(n_steps):
            if joint is not None:
                self.model.decision_loss_and_grads(
                    fast, joint, support_labels, mask=support_mask, out=grads
                )
            else:
                self.model.loss_and_grads(
                    fast,
                    support_user,
                    support_item,
                    support_labels,
                    mask=support_mask,
                    out=grads,
                )
            grad *= self.config.inner_lr
            block -= grad
        return fast

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

    def _adapt_chunks(
        self,
        corpus: TaskCorpus,
        view_ids: np.ndarray,
        steps: int | None,
        max_chunk: int,
    ) -> Iterator[tuple[np.ndarray, Params]]:
        """Adapt ``view_ids`` in same-support-width chunks of ≤ ``max_chunk``.

        Yields ``(positions, fast)``: ``positions`` index into ``view_ids``
        and ``fast`` is the chunk's stacked fast weights.  Each chunk is one
        fancy-indexed gather plus one vectorized inner loop with no padding
        (see :func:`uniform_width_chunks`), so every view's fast weights are
        bit-identical to adapting it alone.
        """
        if max_chunk <= 0:
            raise ValueError("max_chunk must be positive")
        content = corpus.content
        if content is None:
            raise ValueError("corpus has no content attached")
        widths = corpus.view_support_lens(view_ids)
        order = np.argsort(widths, kind="stable")
        for positions in uniform_width_chunks(widths, order, max_chunk):
            batch = corpus.gather_batch(
                view_ids[positions], scratch=self._scratch, support_only=True
            )
            _, fast = self._adapt_gathered(content, batch, steps=steps)
            yield positions, fast

    # ------------------------------------------------------------------
    def meta_step_corpus(self, corpus: TaskCorpus, view_ids: np.ndarray) -> float:
        """One outer-loop update over ``view_ids``; returns mean query loss.

        The batch is assembled by fancy-indexing the corpus pools into
        reused scratch buffers (no per-task Python work), content rows are
        gathered once per side, and the user row rides the batch as a
        ``(T, 1, C)`` broadcast input — the only dense ``(T, S, C)`` array
        is the item-content gather, which lives in scratch and dies with
        the step.  The whole batch is adapted in one vectorized inner loop
        and its FOMAML query gradients are taken in one backward pass
        (per-task gradients averaged over the task axis).
        """
        if len(view_ids) == 0:
            raise ValueError("empty task batch")
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

    def fit(self, corpus: TaskCorpus, epochs: int, shuffle: bool = True) -> list[float]:
        """Meta-train for ``epochs`` passes over ``corpus``; returns loss trace.

        Each epoch draws bucketed batches of view ids from
        :meth:`~repro.meta.corpus.TaskCorpus.epoch_batches` (one shuffle per
        epoch from this instance's rng) and takes one
        :meth:`meta_step_corpus` per batch.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        history: list[float] = []
        bs = self.config.meta_batch_size
        for _ in range(epochs):
            with self._metrics.span("meta.epoch", size=corpus.n_views):
                epoch_loss = 0.0
                n_batches = 0
                for view_ids in corpus.epoch_batches(
                    bs, rng=self._rng, shuffle=shuffle
                ):
                    epoch_loss += self.meta_step_corpus(corpus, view_ids)
                    n_batches += 1
            history.append(epoch_loss / max(n_batches, 1))
        return history

    def adapt_corpus(
        self,
        corpus: TaskCorpus,
        steps: int | None = None,
        max_chunk: int = 64,
    ) -> list[Params]:
        """Adapt every view of ``corpus`` independently (Eq. 1).

        The serving-side primitive that fine-tunes a whole flush of
        cold-start users at once; ``steps`` overrides
        ``config.inner_steps``.  Views are adapted in same-support-width
        chunks of at most ``max_chunk`` (bounding the stacked scratch
        memory), so every view's fast weights are bit-identical to adapting
        it alone — independent of which other views share the flush.
        Returns one :class:`FlatParams` per view over its own copy of the
        view's row of the chunk block (shared non-adapted weights stay
        shared).
        """
        view_ids = np.arange(corpus.n_views)
        results: list[Params | None] = [None] * corpus.n_views
        for positions, fast in self._adapt_chunks(corpus, view_ids, steps, max_chunk):
            # One owned row per view: the states may be cached long past
            # this chunk (serving LRU) and must not pin its block alive.
            for i, row in zip(positions, fast.flat):
                results[int(i)] = FlatParams(fast.layout, row.copy(), shared=self.params)
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
        between full retrains.  The update is written in place into the
        meta-parameters' flat buffer, so the optimizer and any aliased
        references see it; entries still mapped from an artifact are
        swapped for their in-memory views, never written through (see
        :meth:`FlatParams.mark_written`).  A non-finite update raises
        ``ValueError`` and leaves the parameters untouched.

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
        theta = self.params
        layout = self._fast_layout
        span = theta.flat[layout.start : layout.start + layout.size]
        total = np.zeros(layout.size, dtype=np.float64)
        for _, fast in self._adapt_chunks(corpus, ids, steps, max_chunk):
            total += (fast.flat - span).sum(axis=0)
        delta = (meta_lr / ids.size) * total
        if not np.isfinite(delta).all():
            raise ValueError(
                "meta-refresh produced a non-finite update; parameters unchanged"
            )
        span += delta
        theta.mark_written(layout.names)
        deltas = layout.views(delta)
        sq_sum = 0.0
        for name in sorted(deltas):
            sq_sum += float(np.sum(deltas[name] * deltas[name]))
        return float(np.sqrt(sq_sum / max(layout.size, 1)))


def adapt_task_states(
    maml: MAML,
    content: PackedContent,
    tasks: Sequence,
    steps: int,
) -> list[Params | None]:
    """Fast weights for a batch of support tasks, adapted in one pass.

    The shared ``adapt_users`` backend of MAML-based recommenders: unique
    tasks (by object identity — evaluation aligns many instances to one
    task object) are packed into a transient :class:`TaskCorpus` over
    ``content`` and fine-tuned together through :meth:`MAML.adapt_corpus`.
    Positions whose task is ``None``/empty (or when ``steps == 0``) stay
    ``None``, meaning "serve from the meta-initialization".  Positions
    sharing one task object share the *same* returned dict: the task is
    adapted once.
    """
    states: list[Params | None] = [None] * len(tasks)
    builder = TaskCorpusBuilder(content)
    slot_of: dict[int, int] = {}
    owners: list[list[int]] = []
    for i, task in enumerate(tasks):
        if task is None or task.n_support == 0 or steps == 0:
            continue
        slot = slot_of.get(id(task))
        if slot is None:
            slot = slot_of[id(task)] = builder.add_task(task)
            owners.append([])
        owners[slot].append(i)
    if not owners:
        return states
    for slot, fast in enumerate(maml.adapt_corpus(builder.build(), steps=steps)):
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
