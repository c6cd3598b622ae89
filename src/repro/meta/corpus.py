"""Packed task corpus: the index-based data path of meta-training.

The meta-training set of MetaDPA is hugely redundant when materialized: the
k augmented views of Eqs. (9)-(10) repeat their parent task's support/query
*content* byte for byte and differ only in labels, and every task tiles one
user-content row across all of its item rows.  :class:`TaskCorpus` stores
the whole corpus **once**, as contiguous int32 item-index pools in
offset-indexed ragged layout plus one float32 label row per view:

.. code-block:: text

    base tasks (B)                      views (V >= B)
    ------------------------------      -------------------------------
    user_rows        int32 (B,)         view_base            int32 (V,)
    support_items    int32 (sum S_b,)   support_labels     float32 (sum S_v,)
    support_offsets  int64 (B+1,)       support_label_offsets int64 (V+1,)
    query_items      int32 (sum Q_b,)   query_labels       float32 (sum Q_v,)
    query_offsets    int64 (B+1,)       query_label_offsets   int64 (V+1,)

A *view* is (base task, label rows): the original task is its own first
view, and augmented views share the parent's index arrays by construction —
adding one costs two label rows, never an index copy.  Content lives in one
float32 :class:`PackedContent` pair shared by the whole corpus (and by the
serving paths), so no ``(T, S, C)`` dense content exists outside a
meta-step: batches are built by fancy-indexing the pools into reused
scratch buffers and content rows are gathered inside the model forward.

Epoch iteration (:meth:`TaskCorpus.epoch_batches`) shuffles the views, then
stable-sorts them into geometric ``(support, query)`` width buckets so each
meta-batch pads to near-uniform width (waste bounded by the bucket ratio,
< 2x) while staying randomized within a bucket.  :class:`TaskCorpus` is the
only data path of :mod:`repro.meta.maml`; the per-view reference the
equivalence suite pins it against reads views through
:meth:`TaskCorpus.view_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.data.tasks import PreferenceTask

_INDEX_DTYPE = np.int32
_OFFSET_DTYPE = np.int64
_LABEL_DTYPE = np.float32


@dataclass(frozen=True)
class PackedContent:
    """Cast-once float32 content matrices shared by corpus and serving."""

    user: np.ndarray  # (n_users, C) float32, C-contiguous
    item: np.ndarray  # (n_items, C) float32, C-contiguous

    @property
    def dim(self) -> int:
        return self.user.shape[1]

    def extend(
        self,
        user: np.ndarray | None = None,
        item: np.ndarray | None = None,
    ) -> "PackedContent":
        """Return a new :class:`PackedContent` with extra content rows.

        ``PackedContent`` is frozen (corpora and services alias its arrays),
        so growth is copy-on-extend: existing rows keep their indices, new
        rows take the next ones.  Passing ``None`` for a side keeps it
        shared by reference.
        """

        def grow(base: np.ndarray, extra: np.ndarray | None) -> np.ndarray:
            if extra is None:
                return base
            rows = np.ascontiguousarray(
                np.atleast_2d(np.asarray(extra)), dtype=base.dtype
            )
            if rows.shape[1] != base.shape[1]:
                raise ValueError(
                    f"content dim mismatch: {rows.shape[1]} != {base.shape[1]}"
                )
            return np.concatenate([base, rows], axis=0)

        return PackedContent(user=grow(self.user, user), item=grow(self.item, item))


def pack_content(
    user_content: np.ndarray,
    item_content: np.ndarray,
    dtype: np.dtype | type = np.float32,
) -> PackedContent:
    """Build a :class:`PackedContent`, reusing arrays already in shape.

    Arrays that are already C-contiguous in the target dtype are shared by
    reference, so repeated calls on the same serving content cost nothing.
    """
    dt = np.dtype(dtype)

    def coerce(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if a.dtype == dt and a.flags.c_contiguous:
            return a
        return np.ascontiguousarray(a, dtype=dt)

    return PackedContent(user=coerce(user_content), item=coerce(item_content))


class PackedContentMixin:
    """Recommender mixin: cast-once float32 serving content, built lazily.

    Expects the host class to expose ``self.serving`` (the
    :class:`~repro.core.interface.Recommender` contract) and to reset
    ``self._content = None`` whenever the serving context changes (fit).
    """

    _content: PackedContent | None = None

    def _packed_content(self) -> PackedContent:
        if self._content is None:
            serving = self.serving  # type: ignore[attr-defined]
            self._content = pack_content(
                serving.user_content, serving.item_content
            )
        return self._content


class BatchScratch:
    """Reusable flat buffers backing per-batch arrays.

    One scratch instance serves one consumer at a time (a MAML instance):
    each logical name maps to a single geometrically-grown 1-D buffer whose
    prefix is reshaped to the requested shape, so bucketed batches of
    varying width never re-allocate once the largest bucket has been seen.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dt or buf.size < n:
            buf = np.empty(max(n, 1), dtype=dt)
            self._buffers[name] = buf
        return buf[:n].reshape(shape)


@dataclass(frozen=True)
class IndexedTaskBatch:
    """One meta-batch as padded index/label arrays (no content rows).

    ``support_items``/``query_items`` hold item indices (padded positions
    repeat a valid index and are masked out of every loss), ``user_rows``
    one content row per task — the model gathers/broadcasts actual content
    rows at forward time.
    """

    user_rows: np.ndarray  # (T,) int32
    support_items: np.ndarray  # (T, S) int32
    support_labels: np.ndarray  # (T, S) float32
    support_mask: np.ndarray  # (T, S) float32
    query_items: np.ndarray | None = None  # (T, Q) int32
    query_labels: np.ndarray | None = None  # (T, Q) float32
    query_mask: np.ndarray | None = None  # (T, Q) float32

    def __len__(self) -> int:
        return self.user_rows.shape[0]


def _widths_to_buckets(widths: np.ndarray) -> np.ndarray:
    """Geometric width classes (bit length), bounding padding waste < 2x."""
    return np.frexp(np.maximum(widths, 0))[1]


class _GrowableArray:
    """Amortized-O(1) appendable pool: a capacity buffer plus a live prefix.

    The initial array is adopted zero-copy (the live prefix aliases it until
    the first growth), so a corpus that is never appended to keeps exactly
    the builder's packed arrays.  Growth doubles capacity; prefix views
    handed out *before* a growth keep aliasing the old buffer, so consumers
    must re-read pools through the corpus properties after an append.
    """

    __slots__ = ("_buf", "_size")

    def __init__(self, initial: np.ndarray, dtype: np.dtype | type):
        arr = np.asarray(initial, dtype=dtype)
        self._buf = arr
        self._size = arr.shape[0]

    @property
    def view(self) -> np.ndarray:
        return self._buf[: self._size]

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._buf.dtype)
        n = values.shape[0]
        needed = self._size + n
        if needed > self._buf.shape[0]:
            capacity = max(needed, 2 * self._buf.shape[0], 8)
            grown = np.empty(
                (capacity, *self._buf.shape[1:]), dtype=self._buf.dtype
            )
            grown[: self._size] = self._buf[: self._size]
            self._buf = grown
        self._buf[self._size : needed] = values
        self._size = needed

    def append_scalar(self, value: int) -> None:
        self.append(np.asarray([value]))


class TaskCorpus:
    """All meta-training tasks packed once; built by :class:`TaskCorpusBuilder`."""

    def __init__(
        self,
        content: PackedContent | None,
        user_rows: np.ndarray,
        support_items: np.ndarray,
        support_offsets: np.ndarray,
        query_items: np.ndarray,
        query_offsets: np.ndarray,
        view_base: np.ndarray,
        support_labels: np.ndarray,
        support_label_offsets: np.ndarray,
        query_labels: np.ndarray,
        query_label_offsets: np.ndarray,
    ):
        self.content = content
        self._user_rows = _GrowableArray(user_rows, _INDEX_DTYPE)
        self._support_items = _GrowableArray(support_items, _INDEX_DTYPE)
        self._support_offsets = _GrowableArray(support_offsets, _OFFSET_DTYPE)
        self._query_items = _GrowableArray(query_items, _INDEX_DTYPE)
        self._query_offsets = _GrowableArray(query_offsets, _OFFSET_DTYPE)
        self._view_base = _GrowableArray(view_base, _INDEX_DTYPE)
        self._support_labels = _GrowableArray(support_labels, _LABEL_DTYPE)
        self._support_label_offsets = _GrowableArray(
            support_label_offsets, _OFFSET_DTYPE
        )
        self._query_labels = _GrowableArray(query_labels, _LABEL_DTYPE)
        self._query_label_offsets = _GrowableArray(
            query_label_offsets, _OFFSET_DTYPE
        )
        self._support_lens = _GrowableArray(np.diff(support_offsets), _OFFSET_DTYPE)
        self._query_lens = _GrowableArray(np.diff(query_offsets), _OFFSET_DTYPE)

    # ------------------------------------------------------------------
    # Pools and offsets are live prefixes of growable buffers; re-read them
    # through these properties after an append (see :class:`_GrowableArray`).
    @property
    def user_rows(self) -> np.ndarray:
        return self._user_rows.view

    @property
    def support_items(self) -> np.ndarray:
        return self._support_items.view

    @property
    def support_offsets(self) -> np.ndarray:
        return self._support_offsets.view

    @property
    def query_items(self) -> np.ndarray:
        return self._query_items.view

    @property
    def query_offsets(self) -> np.ndarray:
        return self._query_offsets.view

    @property
    def view_base(self) -> np.ndarray:
        return self._view_base.view

    @property
    def support_labels(self) -> np.ndarray:
        return self._support_labels.view

    @property
    def support_label_offsets(self) -> np.ndarray:
        return self._support_label_offsets.view

    @property
    def query_labels(self) -> np.ndarray:
        return self._query_labels.view

    @property
    def query_label_offsets(self) -> np.ndarray:
        return self._query_label_offsets.view

    @property
    def support_lens(self) -> np.ndarray:
        return self._support_lens.view

    @property
    def query_lens(self) -> np.ndarray:
        return self._query_lens.view

    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, content: PackedContent | None = None) -> "TaskCorpus":
        """A zero-task corpus ready to grow through :meth:`append`.

        Streaming consumers start here: :class:`TaskCorpusBuilder` refuses
        to build an empty corpus because a *training* corpus with no views
        is a bug, but an event-log corpus legitimately starts empty.
        """
        empty_offsets = np.zeros(1, dtype=_OFFSET_DTYPE)
        return cls(
            content=content,
            user_rows=np.empty(0, dtype=_INDEX_DTYPE),
            support_items=np.empty(0, dtype=_INDEX_DTYPE),
            support_offsets=empty_offsets,
            query_items=np.empty(0, dtype=_INDEX_DTYPE),
            query_offsets=empty_offsets.copy(),
            view_base=np.empty(0, dtype=_INDEX_DTYPE),
            support_labels=np.empty(0, dtype=_LABEL_DTYPE),
            support_label_offsets=empty_offsets.copy(),
            query_labels=np.empty(0, dtype=_LABEL_DTYPE),
            query_label_offsets=empty_offsets.copy(),
        )

    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of *base* tasks (index-array owners)."""
        return self.user_rows.shape[0]

    @property
    def n_views(self) -> int:
        """Number of trainable views (base tasks + label-only views)."""
        return self.view_base.shape[0]

    def __len__(self) -> int:
        return self.n_views

    @property
    def index_nbytes(self) -> int:
        """Bytes of index storage (shared across all views of a base task)."""
        return (
            self.support_items.nbytes
            + self.query_items.nbytes
            + self.support_offsets.nbytes
            + self.query_offsets.nbytes
            + self.user_rows.nbytes
        )

    @property
    def nbytes(self) -> int:
        """Total packed corpus bytes (indices + labels + offsets)."""
        return (
            self.index_nbytes
            + self.support_labels.nbytes
            + self.query_labels.nbytes
            + self.support_label_offsets.nbytes
            + self.query_label_offsets.nbytes
            + self.view_base.nbytes
        )

    # ------------------------------------------------------------------
    def view_arrays(
        self, view: int
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(user_row, s_items, s_labels, q_items, q_labels)`` views."""
        base = int(self.view_base[view])
        s0, s1 = self.support_offsets[base], self.support_offsets[base + 1]
        q0, q1 = self.query_offsets[base], self.query_offsets[base + 1]
        ls0, ls1 = self.support_label_offsets[view], self.support_label_offsets[view + 1]
        lq0, lq1 = self.query_label_offsets[view], self.query_label_offsets[view + 1]
        return (
            int(self.user_rows[base]),
            self.support_items[s0:s1],
            self.support_labels[ls0:ls1],
            self.query_items[q0:q1],
            self.query_labels[lq0:lq1],
        )

    def view_support_lens(self, view_ids: np.ndarray | None = None) -> np.ndarray:
        ids = np.arange(self.n_views) if view_ids is None else np.asarray(view_ids)
        return self.support_lens[self.view_base[ids]]

    # ------------------------------------------------------------------
    def append(self, task: PreferenceTask) -> int:
        """O(new rows) append of a base task plus its identity view.

        Existing base ids, view ids, and pool offsets are unchanged —
        label-only views keep aliasing their parent's index range — so an
        appended corpus gathers bitwise like one rebuilt from scratch with
        the same task sequence.  Returns the new base id; the task's
        identity view lands at ``n_views - 1``.
        """
        s_items = np.asarray(task.support_items, dtype=_INDEX_DTYPE)
        q_items = np.asarray(task.query_items, dtype=_INDEX_DTYPE)
        s_labels = np.asarray(task.support_labels, dtype=_LABEL_DTYPE)
        q_labels = np.asarray(task.query_labels, dtype=_LABEL_DTYPE)
        if s_labels.shape != s_items.shape:
            raise ValueError("support labels must match the support item width")
        if q_labels.shape != q_items.shape:
            raise ValueError("query labels must match the query item width")
        if self.content is not None:
            n_items = self.content.item.shape[0]
            for arr in (s_items, q_items):
                if arr.size and (arr.min() < 0 or arr.max() >= n_items):
                    raise ValueError("item index out of range for attached content")
            if not 0 <= int(task.user_row) < self.content.user.shape[0]:
                raise ValueError("user_row out of range for attached content")
        base = self.n_tasks
        self._user_rows.append_scalar(int(task.user_row))
        self._support_items.append(s_items)
        self._support_offsets.append_scalar(
            int(self.support_offsets[-1]) + s_items.size
        )
        self._support_lens.append_scalar(s_items.size)
        self._query_items.append(q_items)
        self._query_offsets.append_scalar(int(self.query_offsets[-1]) + q_items.size)
        self._query_lens.append_scalar(q_items.size)
        self._append_view(base, s_labels, q_labels)
        return base

    def extend(self, tasks: Sequence[PreferenceTask]) -> list[int]:
        """Append several base tasks; returns their base ids."""
        return [self.append(task) for task in tasks]

    def _append_view(
        self, base: int, support_labels: np.ndarray, query_labels: np.ndarray
    ) -> int:
        view = self.n_views
        self._view_base.append_scalar(base)
        self._support_labels.append(support_labels)
        self._support_label_offsets.append_scalar(
            int(self.support_label_offsets[-1]) + support_labels.size
        )
        self._query_labels.append(query_labels)
        self._query_label_offsets.append_scalar(
            int(self.query_label_offsets[-1]) + query_labels.size
        )
        return view

    def append_rating_view(self, base: int, rating_vector: np.ndarray) -> int:
        """Augmented view of Eqs. (9)-(10) against a live corpus."""
        if not 0 <= base < self.n_tasks:
            raise ValueError(f"unknown base task {base}")
        s0, s1 = self.support_offsets[base], self.support_offsets[base + 1]
        q0, q1 = self.query_offsets[base], self.query_offsets[base + 1]
        vector = np.asarray(rating_vector)
        return self._append_view(
            base,
            np.asarray(vector[self.support_items[s0:s1]], dtype=_LABEL_DTYPE),
            np.asarray(vector[self.query_items[q0:q1]], dtype=_LABEL_DTYPE),
        )

    # ------------------------------------------------------------------
    def epoch_batches(
        self,
        batch_size: int,
        rng: np.random.Generator | None = None,
        shuffle: bool = True,
        bucketed: bool = True,
    ) -> Iterator[np.ndarray]:
        """Yield meta-batches of view ids for one epoch.

        Views are shuffled (one ``rng.shuffle`` draw, so any two consumers
        seeded alike see identical schedules), then stable-sorted into
        geometric ``(support, query)`` width buckets;
        consecutive slices of ``batch_size`` become the meta-batches.
        ``bucketed=False`` skips the width sort (pure shuffled order, for
        consumers that never pad).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(self.n_views)
        if shuffle and rng is not None:
            rng.shuffle(order)
        if bucketed:
            base = self.view_base[order]
            s_bits = _widths_to_buckets(self.support_lens[base])
            q_bits = _widths_to_buckets(self.query_lens[base])
            key = s_bits * (q_bits.max(initial=0) + 1) + q_bits
            order = order[np.argsort(key, kind="stable")]
        for start in range(0, order.size, batch_size):
            yield order[start : start + batch_size]

    # ------------------------------------------------------------------
    def _gather_ragged(
        self,
        pool: np.ndarray,
        offsets: np.ndarray,
        lens: np.ndarray,
        rows: np.ndarray,
        width: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Fill ``out (T, width)`` from a ragged pool; returns the row mask."""
        ar = np.arange(width)
        mask = ar[None, :] < lens[rows][:, None]
        # Padded positions read pool[0] (a valid entry, masked everywhere).
        pos = np.where(mask, offsets[rows][:, None] + ar[None, :], 0)
        if pool.size == 0:
            out[...] = 0
        else:
            np.take(pool, pos, out=out)
        return mask

    def gather_batch(
        self,
        view_ids: np.ndarray,
        scratch: BatchScratch | None = None,
        support_only: bool = False,
    ) -> IndexedTaskBatch:
        """Pack ``view_ids`` into padded index/label arrays in O(1) numpy ops.

        All arrays come from ``scratch`` when given (reused across batches);
        each batch pads to its own max width, so bucketed schedules keep the
        padded area within a small factor of the real row count.
        """
        scratch = scratch or BatchScratch()
        ids = np.asarray(view_ids)
        base = self.view_base[ids]
        n = ids.size

        def gather_side(
            prefix: str,
            pool: np.ndarray,
            offsets: np.ndarray,
            lens: np.ndarray,
            labels: np.ndarray,
            label_offsets: np.ndarray,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            width = int(lens[base].max(initial=0))
            width = max(width, 1)
            items = scratch.get(f"{prefix}_items", (n, width), _INDEX_DTYPE)
            mask_bool = self._gather_ragged(pool, offsets, lens, base, width, items)
            labs = scratch.get(f"{prefix}_labels", (n, width), labels.dtype)
            ar = np.arange(width)
            lpos = np.where(mask_bool, label_offsets[ids][:, None] + ar[None, :], 0)
            if labels.size == 0:
                labs[...] = 0
            else:
                np.take(labels, lpos, out=labs)
            mask = scratch.get(f"{prefix}_mask", (n, width), labels.dtype)
            mask[...] = mask_bool
            labs *= mask  # padded labels at exactly 0, like the dense layout
            return items, labs, mask

        s_items, s_labels, s_mask = gather_side(
            "support",
            self.support_items,
            self.support_offsets,
            self.support_lens,
            self.support_labels,
            self.support_label_offsets,
        )
        if support_only:
            return IndexedTaskBatch(
                user_rows=self.user_rows[base],
                support_items=s_items,
                support_labels=s_labels,
                support_mask=s_mask,
            )
        q_items, q_labels, q_mask = gather_side(
            "query",
            self.query_items,
            self.query_offsets,
            self.query_lens,
            self.query_labels,
            self.query_label_offsets,
        )
        return IndexedTaskBatch(
            user_rows=self.user_rows[base],
            support_items=s_items,
            support_labels=s_labels,
            support_mask=s_mask,
            query_items=q_items,
            query_labels=q_labels,
            query_mask=q_mask,
        )


class TaskCorpusBuilder:
    """Accumulates tasks and label-only views, then packs them once.

    ``add_task`` registers a base task (its index arrays plus its original
    labels as the first view); ``add_label_view`` attaches an augmented view
    to an existing base, storing only the label rows.
    """

    def __init__(self, content: PackedContent | None):
        self.content = content
        self._user_rows: list[int] = []
        self._support_items: list[np.ndarray] = []
        self._query_items: list[np.ndarray] = []
        self._view_base: list[int] = []
        self._support_labels: list[np.ndarray] = []
        self._query_labels: list[np.ndarray] = []

    def add_task(self, task: PreferenceTask) -> int:
        """Register a base task; returns its base id."""
        base = len(self._user_rows)
        self._user_rows.append(int(task.user_row))
        self._support_items.append(np.asarray(task.support_items, dtype=_INDEX_DTYPE))
        self._query_items.append(np.asarray(task.query_items, dtype=_INDEX_DTYPE))
        self._view_base.append(base)
        self._support_labels.append(np.asarray(task.support_labels, dtype=_LABEL_DTYPE))
        self._query_labels.append(np.asarray(task.query_labels, dtype=_LABEL_DTYPE))
        return base

    def extend(self, tasks: Sequence[PreferenceTask]) -> list[int]:
        """Register several base tasks; returns their base ids."""
        return [self.add_task(task) for task in tasks]

    def add_label_view(
        self, base: int, support_labels: np.ndarray, query_labels: np.ndarray
    ) -> int:
        """Attach a label-only (augmented) view to base task ``base``."""
        if not 0 <= base < len(self._user_rows):
            raise ValueError(f"unknown base task {base}")
        support_labels = np.asarray(support_labels, dtype=_LABEL_DTYPE)
        query_labels = np.asarray(query_labels, dtype=_LABEL_DTYPE)
        if support_labels.shape != self._support_items[base].shape:
            raise ValueError("support labels must match the base task's width")
        if query_labels.shape != self._query_items[base].shape:
            raise ValueError("query labels must match the base task's width")
        view = len(self._view_base)
        self._view_base.append(base)
        self._support_labels.append(support_labels)
        self._query_labels.append(query_labels)
        return view

    def add_rating_view(self, base: int, rating_vector: np.ndarray) -> int:
        """Augmented view of Eqs. (9)-(10): labels read from a rating vector."""
        s_items = self._support_items[base]
        q_items = self._query_items[base]
        vector = np.asarray(rating_vector)
        return self.add_label_view(base, vector[s_items], vector[q_items])

    def __len__(self) -> int:
        return len(self._view_base)

    @staticmethod
    def _pack(
        arrays: list[np.ndarray], dtype: np.dtype
    ) -> tuple[np.ndarray, np.ndarray]:
        lens = np.fromiter((a.size for a in arrays), dtype=_OFFSET_DTYPE, count=len(arrays))
        offsets = np.zeros(len(arrays) + 1, dtype=_OFFSET_DTYPE)
        np.cumsum(lens, out=offsets[1:])
        pool = (
            np.concatenate(arrays).astype(dtype, copy=False)
            if arrays
            else np.empty(0, dtype=dtype)
        )
        return pool, offsets

    def build(self) -> TaskCorpus:
        if not self._view_base:
            raise ValueError("empty corpus")
        support_items, support_offsets = self._pack(self._support_items, _INDEX_DTYPE)
        query_items, query_offsets = self._pack(self._query_items, _INDEX_DTYPE)
        support_labels, support_label_offsets = self._pack(
            self._support_labels, _LABEL_DTYPE
        )
        query_labels, query_label_offsets = self._pack(self._query_labels, _LABEL_DTYPE)
        return TaskCorpus(
            content=self.content,
            user_rows=np.asarray(self._user_rows, dtype=_INDEX_DTYPE),
            support_items=support_items,
            support_offsets=support_offsets,
            query_items=query_items,
            query_offsets=query_offsets,
            view_base=np.asarray(self._view_base, dtype=_INDEX_DTYPE),
            support_labels=support_labels,
            support_label_offsets=support_label_offsets,
            query_labels=query_labels,
            query_label_offsets=query_label_offsets,
        )
