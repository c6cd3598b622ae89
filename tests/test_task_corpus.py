"""Packed task corpus: construction invariants and packed == materialized.

Two layers of guarantees:

1. **Structural** — offset/bucket bookkeeping on ragged task sets, label
   views aliasing (never copying) their parent's index arrays, zero-copy
   view access, empty-support tasks, and padded batches that match the
   dense padded layout.
2. **Numerical** — the packed path (fancy-indexed batches,
   gather-on-forward content, broadcast user rows) reproduces the
   materialized references in ``tests/oracles.py``: meta steps and
   width-chunked adaptation agree with the dense padded layout, and full
   ``fit`` traces with the per-view loop, to float32 rounding;
   ``adapt_task_states`` agrees with Eq. (1) to float64 rounding.  Both
   runs draw their schedules from identically seeded generators (the
   repo's pre-drawn rng-stream convention), so only the computation
   differs.  The float64 per-view FOMAML, inner-loop and Reptile
   properties live in ``test_stacked_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tasks import PreferenceTask
from repro.meta.corpus import (
    BatchScratch,
    TaskCorpusBuilder,
    pack_content,
)
from repro.meta.maml import MAML, MAMLConfig, adapt_task_states
from repro.meta.model import PreferenceModel, PreferenceModelConfig

import oracles

CONTENT_DIM = 5
N_ITEMS = 30
N_USERS = 8

# float32 rounding tolerances: packed and per-view runs sum in different
# orders (padded meta-batches, task-axis gradient means).
RTOL = 2e-4
ATOL = 1e-5

seeds = st.integers(min_value=0, max_value=2**20)


def _content(seed: int = 0):
    rng = np.random.default_rng(seed)
    return pack_content(
        rng.random((N_USERS, CONTENT_DIM)), rng.random((N_ITEMS, CONTENT_DIM))
    )


def _task(
    rng: np.random.Generator, n_support: int | None = None, n_query: int | None = None
) -> PreferenceTask:
    n_s = int(rng.integers(0, 7)) if n_support is None else n_support
    n_q = int(rng.integers(1, 6)) if n_query is None else n_query
    return PreferenceTask(
        user_row=int(rng.integers(0, N_USERS)),
        support_items=rng.choice(N_ITEMS, size=n_s, replace=False).astype(int),
        support_labels=(rng.random(n_s) < 0.5).astype(float),
        query_items=rng.choice(N_ITEMS, size=n_q, replace=False).astype(int),
        query_labels=(rng.random(n_q) < 0.5).astype(float),
    )


def _corpus(seed: int, n_tasks: int, k_views: int = 2, allow_empty: bool = True):
    """A ragged corpus: n_tasks bases, each with k_views label-only views."""
    rng = np.random.default_rng(seed)
    builder = TaskCorpusBuilder(_content(seed))
    tasks = []
    for t in range(n_tasks):
        task = _task(rng, n_support=None if allow_empty else int(rng.integers(1, 7)))
        tasks.append(task)
        base = builder.add_task(task)
        for _ in range(k_views):
            builder.add_rating_view(base, rng.random(N_ITEMS))
    return builder.build(), tasks


def _model(content_dim: int = CONTENT_DIM, dtype=np.float32) -> PreferenceModel:
    return PreferenceModel(
        PreferenceModelConfig(
            content_dim=content_dim, embed_dim=3, hidden_dims=(4,), dtype=dtype
        )
    )


def _assert_tree_close(actual, expected):
    assert set(actual) == set(expected)
    for name in expected:
        np.testing.assert_allclose(
            actual[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=name
        )


def _dense_items(corpus, ids=None):
    """The oracle's dense per-row arrays of corpus views ``ids`` (all by default)."""
    content = corpus.content
    ids = range(corpus.n_views) if ids is None else ids
    return [
        oracles.materialize(content.user, content.item, *corpus.view_arrays(int(v)))
        for v in ids
    ]


class TestConstruction:
    def test_offsets_and_lens_match_tasks(self):
        corpus, tasks = _corpus(seed=0, n_tasks=6, k_views=2)
        assert corpus.n_tasks == len(tasks)
        assert corpus.n_views == len(tasks) * 3
        np.testing.assert_array_equal(
            corpus.support_lens, [t.n_support for t in tasks]
        )
        np.testing.assert_array_equal(corpus.query_lens, [t.n_query for t in tasks])
        assert corpus.support_offsets[0] == 0
        assert corpus.support_offsets[-1] == corpus.support_items.size
        assert np.all(np.diff(corpus.support_offsets) >= 0)
        np.testing.assert_array_equal(
            corpus.user_rows, [t.user_row for t in tasks]
        )

    def test_view_arrays_round_trip_and_zero_copy(self):
        corpus, tasks = _corpus(seed=1, n_tasks=5, k_views=1)
        for base, task in enumerate(tasks):
            view = int(np.flatnonzero(corpus.view_base == base)[0])
            row, s_items, s_labels, q_items, q_labels = corpus.view_arrays(view)
            assert row == task.user_row
            np.testing.assert_array_equal(s_items, task.support_items)
            np.testing.assert_allclose(s_labels, task.support_labels.astype(np.float32))
            np.testing.assert_array_equal(q_items, task.query_items)
            assert s_items.size == 0 or np.shares_memory(s_items, corpus.support_items)
            assert q_labels.size == 0 or np.shares_memory(
                q_labels, corpus.query_labels
            )

    def test_label_views_alias_parent_indices(self):
        """Augmented views cost label rows only — never an index copy."""
        rng = np.random.default_rng(2)
        builder = TaskCorpusBuilder(_content(2))
        for _ in range(4):
            builder.add_task(_task(rng, n_support=5, n_query=3))
        plain = builder.build()
        builder2 = TaskCorpusBuilder(_content(2))
        for _ in range(4):
            base = builder2.add_task(_task(rng, n_support=5, n_query=3))
            for _ in range(3):
                builder2.add_rating_view(base, rng.random(N_ITEMS))
        augmented = builder2.build()
        assert augmented.n_views == 4 * plain.n_views
        assert augmented.support_items.size == plain.support_items.size
        assert augmented.index_nbytes == plain.index_nbytes
        # Every view of one base reads the *same* pool slice.
        views = np.flatnonzero(augmented.view_base == 0)
        slices = [augmented.view_arrays(int(v))[1] for v in views]
        for other in slices[1:]:
            assert np.shares_memory(slices[0], other)

    def test_rating_view_reads_vector_at_task_indices(self):
        rng = np.random.default_rng(3)
        task = _task(rng, n_support=4, n_query=2)
        builder = TaskCorpusBuilder(_content(3))
        base = builder.add_task(task)
        vector = rng.random(N_ITEMS)
        builder.add_rating_view(base, vector)
        corpus = builder.build()
        _, _, s_labels, _, q_labels = corpus.view_arrays(1)
        np.testing.assert_allclose(
            s_labels, vector[task.support_items].astype(np.float32)
        )
        np.testing.assert_allclose(
            q_labels, vector[task.query_items].astype(np.float32)
        )

    def test_builder_validation(self):
        rng = np.random.default_rng(4)
        builder = TaskCorpusBuilder(_content(4))
        with pytest.raises(ValueError, match="empty corpus"):
            builder.build()
        base = builder.add_task(_task(rng, n_support=3, n_query=2))
        with pytest.raises(ValueError, match="unknown base"):
            builder.add_label_view(base + 1, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError, match="support labels"):
            builder.add_label_view(base, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="query labels"):
            builder.add_label_view(base, np.zeros(3), np.zeros(5))

    def test_empty_support_task_gathers_zero_mask(self):
        rng = np.random.default_rng(5)
        builder = TaskCorpusBuilder(_content(5))
        builder.add_task(_task(rng, n_support=0, n_query=3))
        builder.add_task(_task(rng, n_support=4, n_query=2))
        corpus = builder.build()
        batch = corpus.gather_batch(np.array([0, 1]))
        np.testing.assert_array_equal(batch.support_mask[0], 0.0)
        np.testing.assert_array_equal(batch.support_labels[0], 0.0)
        assert batch.support_mask[1].sum() == 4
        # And the packed meta step handles it (zero grads for that task).
        maml = MAML(_model(), MAMLConfig(), seed=0)
        loss = maml.meta_step_corpus(corpus, np.array([0, 1]))
        assert np.isfinite(loss)

    def test_epoch_batches_partition_all_views(self):
        corpus, _ = _corpus(seed=6, n_tasks=7, k_views=2)
        rng = np.random.default_rng(0)
        seen = []
        for batch in corpus.epoch_batches(4, rng=rng):
            assert 0 < batch.size <= 4
            seen.append(batch)
        flat = np.concatenate(seen)
        assert flat.size == corpus.n_views
        np.testing.assert_array_equal(np.sort(flat), np.arange(corpus.n_views))

    def test_bucketed_batches_bound_padding(self):
        """Within a batch, widths never straddle a geometric bucket."""
        corpus, _ = _corpus(seed=7, n_tasks=16, k_views=0, allow_empty=False)
        rng = np.random.default_rng(1)
        for batch in corpus.epoch_batches(4, rng=rng, bucketed=True):
            widths = corpus.support_lens[corpus.view_base[batch]]
            hi, lo = widths.max(), max(widths.min(), 1)
            if batch.size > 1 and hi > 1:
                assert hi < 2 * lo + 2  # same power-of-two class (+boundary)

    def test_gather_batch_matches_materialized_padding(self):
        corpus, _ = _corpus(seed=8, n_tasks=5, k_views=2)
        ids = np.array([0, 3, 7, 11])
        batch = corpus.gather_batch(ids, scratch=BatchScratch())
        content = corpus.content
        dense = oracles.TaskBatch.from_items(_dense_items(corpus, ids))
        np.testing.assert_array_equal(batch.support_mask, dense.support_mask)
        np.testing.assert_array_equal(batch.query_mask, dense.query_mask)
        np.testing.assert_array_equal(batch.support_labels, dense.support_labels)
        np.testing.assert_array_equal(batch.query_labels, dense.query_labels)
        # Gathered item content at real positions == the dense copies.
        ci = content.item[batch.support_items] * batch.support_mask[..., None]
        np.testing.assert_array_equal(
            ci, dense.support_item * dense.support_mask[..., None]
        )

    def test_corpus_bytes_far_below_materialized(self):
        # Realistic content width (the toy dim of this file understates the
        # dense layout); the bench asserts the >=5x bar at full bench scale.
        rng = np.random.default_rng(9)
        content = pack_content(rng.random((N_USERS, 32)), rng.random((N_ITEMS, 32)))
        builder = TaskCorpusBuilder(content)
        for _ in range(12):
            base = builder.add_task(_task(rng, n_support=int(rng.integers(1, 7))))
            for _ in range(3):
                builder.add_rating_view(base, rng.random(N_ITEMS))
        corpus = builder.build()
        dense_bytes = sum(item.nbytes for item in _dense_items(corpus))
        assert corpus.nbytes * 5 <= dense_bytes


class TestPackedEquivalence:
    """The packed path IS the materialized reference, to float32 rounding."""

    @given(n_tasks=st.integers(1, 5), local_only=st.booleans(), seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_meta_step_corpus_matches_materialized(self, n_tasks, local_only, seed):
        """Packed ``meta_step_corpus`` == one FOMAML step over the dense
        padded meta-batch: losses, params and Adam state after three steps."""
        corpus, _ = _corpus(seed=seed, n_tasks=n_tasks, k_views=2)
        config = MAMLConfig(
            inner_lr=0.1, inner_steps=2, outer_lr=1e-2, local_only_decision=local_only
        )
        packed = MAML(_model(), config, seed=seed)
        dense = MAML(_model(), config, seed=seed)
        ids = np.arange(corpus.n_views)
        items = _dense_items(corpus, ids)
        for _ in range(3):
            loss_p = packed.meta_step_corpus(corpus, ids)
            loss_d = oracles.dense_meta_step(dense, items)
            np.testing.assert_allclose(loss_p, loss_d, rtol=RTOL, atol=ATOL)
        _assert_tree_close(packed.params, dense.params)
        _assert_tree_close(packed._optimizer._m, dense._optimizer._m)
        _assert_tree_close(packed._optimizer._v, dense._optimizer._v)
        assert packed._optimizer._t == dense._optimizer._t

    @given(
        n_tasks=st.integers(1, 5),
        steps=st.integers(0, 3),
        local_only=st.booleans(),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_adapt_corpus_matches_adapt_many(self, n_tasks, steps, local_only, seed):
        """Packed ``adapt_corpus`` == the dense width-chunked inner loop."""
        corpus, _ = _corpus(seed=seed, n_tasks=n_tasks, k_views=1, allow_empty=False)
        maml = MAML(
            _model(),
            MAMLConfig(inner_lr=0.1, local_only_decision=local_only),
            seed=seed,
        )
        packed = maml.adapt_corpus(corpus, steps=steps, max_chunk=3)
        dense = oracles.dense_adapt_many(maml, _dense_items(corpus), steps=steps, max_chunk=3)
        assert len(packed) == len(dense) == corpus.n_views
        for fast_p, fast_d in zip(packed, dense):
            _assert_tree_close(fast_p, fast_d)

    @given(seed=seeds)
    @settings(max_examples=8, deadline=None)
    def test_fit_trace_packed_matches_materialized(self, seed):
        corpus, _ = _corpus(seed=seed, n_tasks=4, k_views=2)
        config = MAMLConfig(inner_lr=0.05, outer_lr=5e-3, meta_batch_size=3)
        packed = MAML(_model(), config, seed=seed)
        reference = MAML(_model(), config, seed=seed)
        trace_p = packed.fit(corpus, epochs=2)
        trace_r = oracles.fit(reference, corpus, epochs=2)
        np.testing.assert_allclose(trace_p, trace_r, rtol=RTOL, atol=ATOL)
        _assert_tree_close(packed.params, reference.params)

    @given(n_tasks=st.integers(1, 6), local_only=st.booleans(), seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_adapt_task_states_packed_matches_materialized(self, n_tasks, local_only, seed):
        """``None`` and support-empty slots stay ``None``, repeated task
        objects share one dict, and every state equals Eq. (1) on its task
        (float64, at the stacked-equivalence tolerances)."""
        rng = np.random.default_rng(seed)
        content = pack_content(
            rng.random((N_USERS, CONTENT_DIM)),
            rng.random((N_ITEMS, CONTENT_DIM)),
            dtype=np.float64,
        )
        unique = [_task(rng) for _ in range(n_tasks)]
        tasks = [unique[int(i)] for i in rng.integers(0, n_tasks, size=n_tasks + 2)]
        tasks.insert(int(rng.integers(0, len(tasks) + 1)), None)
        maml = MAML(
            _model(dtype=np.float64),
            MAMLConfig(inner_lr=0.1, local_only_decision=local_only),
            seed=seed,
        )
        states = adapt_task_states(maml, content, tasks, 2)
        first: dict[int, dict] = {}
        for task, state in zip(tasks, states):
            if task is None or task.n_support == 0:
                assert state is None
                continue
            assert first.setdefault(id(task), state) is state  # one dict per task
            expected = oracles.adapt(
                maml,
                content.user[task.user_row][None, :],
                content.item[task.support_items],
                task.support_labels.astype(np.float32),
                steps=2,
            )
            for name in expected:
                np.testing.assert_allclose(
                    state[name], expected[name], rtol=1e-9, atol=1e-11, err_msg=name
                )


class TestFitTraceGolden:
    def test_golden_fit_trace_regression(self):
        """Deterministic packed-vs-reference loss trace, pinned tightly.

        The regression guard of the packed data path: same seed, same
        corpus, same epochs — ``MAML.fit`` and the per-view oracle fit must
        walk the same loss curve (and the curve must actually descend).
        """
        corpus, _ = _corpus(seed=1234, n_tasks=8, k_views=3, allow_empty=False)
        config = MAMLConfig(inner_lr=0.05, outer_lr=5e-3, meta_batch_size=4)
        packed = MAML(_model(), config, seed=7)
        reference = MAML(_model(), config, seed=7)
        trace_p = packed.fit(corpus, epochs=4)
        trace_r = oracles.fit(reference, corpus, epochs=4)
        np.testing.assert_allclose(trace_p, trace_r, rtol=RTOL, atol=ATOL)
        assert trace_p[-1] < trace_p[0]
