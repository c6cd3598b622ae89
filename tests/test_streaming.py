"""Streaming cold-start: appends, observe/invalidate, refresh, temporal eval.

Four layers of guarantees:

1. **Corpus appends** — a corpus grown incrementally (``TaskCorpus.append``
   / ``extend``, starting from a builder prefix or from
   ``TaskCorpus.empty``) is indistinguishable from one rebuilt from
   scratch: every packed array, every ``gather_batch`` and ``view_arrays``
   output is bitwise identical, so the training path cannot tell streams
   from batches.
2. **Event ingest** — ``RecommenderService.observe`` appends to exactly
   one user's support task, invalidates exactly that user's cached
   adaptation, excludes the observed item from recommendation pools, and
   (with ``refresh_every``) triggers a reptile meta-refresh that clears
   the whole cache.
3. **Serving-cache correctness** — the value-fingerprint cache (re-sent
   equal tasks hit, genuinely new history misses) including across shard
   pipes, exception-safe pending accounting, and up-front batch request
   validation.
4. **Temporal protocol** — ``split_task_stream`` partitions support sets
   without touching queries, and the acceptance bar: with equal adaptation
   budgets, periodic meta-refresh beats no-refresh on post-split NDCG.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interface import Recommender
from repro.data.splits import Scenario
from repro.data.tasks import PreferenceTask, append_interaction, task_fingerprint
from repro.eval.temporal import compare_refresh_cadence, evaluate_stream, split_task_stream
from repro.meta.corpus import BatchScratch, TaskCorpus, TaskCorpusBuilder, pack_content
from repro.registry import build_method
from repro.serve import ShardedService, mixed_zipfian_stream, run_mixed_open_loop
from repro.service import RecommenderService

CONTENT_DIM = 5
N_ITEMS = 30
N_USERS = 8

seeds = st.integers(min_value=0, max_value=2**20)


def _content(seed: int = 0):
    rng = np.random.default_rng(seed)
    return pack_content(
        rng.random((N_USERS, CONTENT_DIM)), rng.random((N_ITEMS, CONTENT_DIM))
    )


def _task(rng: np.random.Generator, n_support: int | None = None) -> PreferenceTask:
    n_s = int(rng.integers(0, 7)) if n_support is None else n_support
    n_q = int(rng.integers(1, 6))
    return PreferenceTask(
        user_row=int(rng.integers(0, N_USERS)),
        support_items=rng.choice(N_ITEMS, size=n_s, replace=False).astype(int),
        support_labels=(rng.random(n_s) < 0.5).astype(float),
        query_items=rng.choice(N_ITEMS, size=n_q, replace=False).astype(int),
        query_labels=(rng.random(n_q) < 0.5).astype(float),
    )


_ARRAYS = (
    "user_rows",
    "support_items",
    "support_offsets",
    "support_lens",
    "support_labels",
    "support_label_offsets",
    "query_items",
    "query_offsets",
    "query_lens",
    "query_labels",
    "query_label_offsets",
    "view_base",
)


def _assert_corpora_identical(grown: TaskCorpus, rebuilt: TaskCorpus) -> None:
    for name in _ARRAYS:
        got, want = getattr(grown, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    ids = np.arange(rebuilt.n_views)
    a = grown.gather_batch(ids, scratch=BatchScratch())
    b = rebuilt.gather_batch(ids, scratch=BatchScratch())
    for field in ("user_rows", "support_items", "support_labels", "support_mask",
                  "query_items", "query_labels", "query_mask"):
        np.testing.assert_array_equal(
            getattr(a, field), getattr(b, field), err_msg=field
        )
    for view in range(rebuilt.n_views):
        for x, y in zip(grown.view_arrays(view), rebuilt.view_arrays(view)):
            np.testing.assert_array_equal(x, y)


class TestPackedContentExtend:
    def test_rows_appended_and_prefix_bitwise(self):
        content = _content(0)
        rng = np.random.default_rng(1)
        extra = rng.random((3, CONTENT_DIM))
        grown = content.extend(item=extra)
        assert grown.item.shape == (N_ITEMS + 3, CONTENT_DIM)
        np.testing.assert_array_equal(grown.item[:N_ITEMS], content.item)
        np.testing.assert_array_equal(
            grown.item[N_ITEMS:], extra.astype(np.float32)
        )
        # The untouched side is shared by reference, not copied.
        assert grown.user is content.user

    def test_single_row_and_dim_mismatch(self):
        content = _content(0)
        grown = content.extend(user=np.zeros(CONTENT_DIM))
        assert grown.user.shape == (N_USERS + 1, CONTENT_DIM)
        with pytest.raises(ValueError, match="content dim"):
            content.extend(item=np.zeros((2, CONTENT_DIM + 1)))


class TestCorpusAppend:
    @given(seed=seeds, n_tasks=st.integers(1, 8), n_prefix=st.integers(0, 8))
    @settings(max_examples=20, deadline=None)
    def test_appended_equals_rebuilt(self, seed, n_tasks, n_prefix):
        """Grow-by-append is bitwise indistinguishable from rebuild."""
        rng = np.random.default_rng(seed)
        content = _content(seed)
        tasks = [_task(rng) for _ in range(n_tasks)]
        n_prefix = min(n_prefix, n_tasks)

        rebuilt = TaskCorpusBuilder(content)
        rebuilt.extend(tasks)
        if n_prefix > 0:
            grown_builder = TaskCorpusBuilder(content)
            grown_builder.extend(tasks[:n_prefix])
            grown = grown_builder.build()
        else:
            grown = TaskCorpus.empty(content)
        grown.extend(tasks[n_prefix:])
        _assert_corpora_identical(grown, rebuilt.build())

    def test_append_returns_base_with_identity_view_last(self):
        corpus = TaskCorpus.empty(_content(0))
        rng = np.random.default_rng(3)
        base = corpus.append(_task(rng, n_support=4))
        assert base == 0 and corpus.n_views == 1
        second = corpus.append(_task(rng, n_support=2))
        assert second == 1
        assert int(corpus.view_base[-1]) == second

    def test_label_views_survive_later_appends(self):
        rng = np.random.default_rng(4)
        corpus = TaskCorpus.empty(_content(0))
        task = _task(rng, n_support=5)
        base = corpus.append(task)
        view = corpus.append_rating_view(base, rng.random(N_ITEMS))
        corpus.append(_task(rng, n_support=3))
        _, s_items, _, _, _ = corpus.view_arrays(view)
        np.testing.assert_array_equal(s_items, task.support_items)
        # Label views keep aliasing the (grown) index pools, never copying.
        assert np.shares_memory(s_items, corpus.support_items)

    def test_append_validates_against_content(self):
        corpus = TaskCorpus.empty(_content(0))
        rng = np.random.default_rng(5)
        bad_item = replace(
            _task(rng, n_support=2), support_items=np.array([0, N_ITEMS])
        )
        with pytest.raises(ValueError, match="item"):
            corpus.append(bad_item)
        bad_user = replace(_task(rng, n_support=2), user_row=N_USERS)
        with pytest.raises(ValueError, match="user"):
            corpus.append(bad_user)
        assert corpus.n_tasks == 0 and corpus.n_views == 0


class TestFingerprint:
    def test_stable_across_pickle(self):
        task = _task(np.random.default_rng(0), n_support=4)
        clone = pickle.loads(pickle.dumps(task))
        assert clone is not task
        assert task_fingerprint(clone) == task_fingerprint(task)
        assert task_fingerprint(replace(task)) == task_fingerprint(task)

    def test_sensitive_to_every_field(self):
        task = _task(np.random.default_rng(1), n_support=4)
        base = task_fingerprint(task)
        assert task_fingerprint(replace(task, user_row=task.user_row + 1)) != base
        flipped = replace(task, support_labels=1.0 - task.support_labels)
        assert task_fingerprint(flipped) != base
        rolled = replace(task, support_items=np.roll(task.support_items, 1))
        assert task_fingerprint(rolled) != base
        shorter = replace(
            task,
            support_items=task.support_items[:-1],
            support_labels=task.support_labels[:-1],
        )
        assert task_fingerprint(shorter) != base

    def test_append_interaction_branches(self):
        grown = append_interaction(None, user_row=3, item_row=7, rating=1.0)
        assert grown.user_row == 3 and grown.n_support == 1 and grown.n_query == 0
        assert int(grown.support_items[0]) == 7

        longer = append_interaction(grown, 3, 9, 0.0)
        np.testing.assert_array_equal(longer.support_items, [7, 9])
        np.testing.assert_array_equal(longer.support_labels, [1.0, 0.0])

        # Re-observing a known item replaces its rating instead of duplicating.
        replaced = append_interaction(longer, 3, 7, 0.0)
        np.testing.assert_array_equal(replaced.support_items, [7, 9])
        np.testing.assert_array_equal(replaced.support_labels, [0.0, 0.0])
        assert task_fingerprint(replaced) != task_fingerprint(longer)

        with pytest.raises(ValueError, match="user"):
            append_interaction(grown, 4, 1, 1.0)

    def test_append_interaction_rejects_hostile_ratings(self):
        """Ratings are labels in [0, 1]; anything else fails at the edge."""
        grown = append_interaction(None, user_row=3, item_row=7, rating=0.5)
        for rating in (float("nan"), float("inf"), -float("inf"), 1e30, -3.0, 1.5):
            with pytest.raises(ValueError, match="rating"):
                append_interaction(None, 3, 7, rating)
            with pytest.raises(ValueError, match="rating"):
                append_interaction(grown, 3, 9, rating)
        for rating in (0.0, 1.0, np.float32(0.25)):
            assert append_interaction(grown, 3, 9, rating).n_support == 2


class _CountingMethod:
    """Wrap a recommender, counting expensive adaptation calls."""

    def __init__(self, method):
        self._method = method
        self.adapt_calls = 0

    def __getattr__(self, name):
        return getattr(self._method, name)

    def adapt_user(self, task):
        self.adapt_calls += 1
        return self._method.adapt_user(task)

    def adapt_users(self, tasks):
        self.adapt_calls += len(tasks)
        return self._method.adapt_users(tasks)


class _ExplodingMethod(_CountingMethod):
    """Adaptation raises on demand — exercises the exception-safe paths."""

    explode = False

    def adapt_user(self, task):
        if self.explode:
            raise RuntimeError("adaptation backend down")
        return super().adapt_user(task)

    def adapt_users(self, tasks):
        if self.explode:
            raise RuntimeError("adaptation backend down")
        return super().adapt_users(tasks)


@pytest.fixture(scope="module")
def melu(bench_experiment):
    method = build_method({"name": "MeLU", "meta_epochs": 1}, seed=0)
    method.fit(bench_experiment.ctx)
    return method


@pytest.fixture()
def melu_restored(melu):
    """MeLU whose meta-parameters are restored after the test (refresh mutates)."""
    snapshot = {k: v.copy() for k, v in melu.maml.params.items()}
    yield melu
    melu.maml.params.update(snapshot)
    melu._stream_corpus = None


@pytest.fixture(scope="module")
def cold_tasks(bench_experiment):
    return {int(t.user_row): t for t in bench_experiment.task_sets[Scenario.C_U]}


class TestObserve:
    def test_invalidates_exactly_that_user(self, melu, cold_tasks):
        users = sorted(cold_tasks)[:3]
        counting = _CountingMethod(melu)
        service = RecommenderService(counting, cache_size=8)
        for user in users:
            service.register_user_history(cold_tasks[user])
            service.recommend(user, k=5)
        assert counting.adapt_calls == 3
        service.observe(users[0], item_row=0, rating=1.0)
        for user in users:
            service.recommend(user, k=5)
        # Only the observed user re-adapted; the other two stayed cached.
        assert counting.adapt_calls == 4
        snap = service.stats()["metrics"]
        assert snap["counters"]["serve.stream.events"] == 1
        assert snap["gauges"]["serve.stream.observed_users"] == 1

    def test_observed_item_leaves_candidate_pool(self, melu, cold_tasks):
        user = sorted(cold_tasks)[0]
        service = RecommenderService(melu, cache_size=8)
        service.register_user_history(cold_tasks[user])
        top = int(service.recommend(user, k=1).items[0])
        service.observe(user, top, rating=1.0)
        later = service.recommend(user, k=melu.serving.n_items // 2)
        assert top not in later.items

    def test_unknown_user_gets_fresh_history(self, melu, cold_tasks):
        user = sorted(cold_tasks)[0]
        counting = _CountingMethod(melu)
        service = RecommenderService(counting, cache_size=8)
        service.observe(user, item_row=1, rating=1.0)  # no registered task
        result = service.recommend(user, k=5)
        assert len(result) == 5 and counting.adapt_calls == 1

    def test_validates_ranges(self, melu):
        service = RecommenderService(melu)
        with pytest.raises(ValueError, match="user_row"):
            service.observe(melu.serving.n_users, 0)
        with pytest.raises(ValueError, match="item_row"):
            service.observe(0, melu.serving.n_items)
        assert service.stats()["metrics"]["counters"].get("serve.stream.events", 0) == 0


class TestMetaRefresh:
    def test_refresh_every_triggers_and_clears_cache(self, melu_restored, cold_tasks):
        users = sorted(cold_tasks)[:2]
        counting = _CountingMethod(melu_restored)
        service = RecommenderService(counting, cache_size=8, refresh_every=2)
        for user in users:
            service.register_user_history(cold_tasks[user])
            service.recommend(user, k=5)
        assert counting.adapt_calls == 2
        service.observe(users[0], 0, 1.0)
        counters = service.stats()["metrics"]["counters"]
        assert counters.get("serve.stream.refreshes", 0) == 0
        service.observe(users[0], 1, 1.0)  # second event: refresh due
        snap = service.stats()["metrics"]
        assert snap["counters"]["serve.stream.refreshes"] == 1
        assert snap["gauges"]["serve.stream.dirty_users"] == 0
        # A refresh moved the meta-initialization, so every cached fast
        # weight is stale: both users re-adapt, not just the observed one.
        for user in users:
            service.recommend(user, k=5)
        assert counting.adapt_calls == 4

    def test_manual_refresh_without_dirty_users_is_free(self, melu_restored):
        counting = _CountingMethod(melu_restored)
        service = RecommenderService(counting, cache_size=8)
        info = service.meta_refresh()
        assert info == {"n_tasks": 0, "delta_rms": 0.0}
        counters = service.stats()["metrics"]["counters"]
        assert counters.get("serve.stream.refreshes", 0) == 0

    def test_refresh_moves_params_toward_observations(self, melu_restored, cold_tasks):
        user = sorted(cold_tasks)[0]
        service = RecommenderService(melu_restored, cache_size=8)
        before = {
            k: v.copy() for k, v in melu_restored.maml.params.items()
        }
        service.register_user_history(cold_tasks[user])
        service.observe(user, 0, 1.0)
        info = service.meta_refresh()
        assert info["n_tasks"] == 1 and info["delta_rms"] > 0
        changed = [
            k
            for k, v in melu_restored.maml.params.items()
            if not np.array_equal(v, before[k])
        ]
        assert changed and all(k.startswith("mlp.") for k in changed)

    def test_hostile_ratings_never_reach_the_meta_parameters(
        self, melu_restored, cold_tasks
    ):
        """One NaN event must not poison the shard.

        Accepted, ``observe(u, 5, nan)`` made the next ``meta_refresh()``
        return ``delta_rms = nan``, turned every meta-parameter array into
        NaN and with them every other user's scores; ``1e30`` and ``-3.0``
        went through too.  Now each is rejected before any state changes.
        """
        victim, other = sorted(cold_tasks)[:2]
        service = RecommenderService(melu_restored, cache_size=8)
        for user in (victim, other):
            service.register_user_history(cold_tasks[user])
        before = {k: v.copy() for k, v in melu_restored.maml.params.items()}
        support = cold_tasks[victim].support_labels.copy()
        for rating in (float("nan"), float("inf"), 1e30, -3.0):
            with pytest.raises(ValueError, match="rating"):
                service.observe(victim, 5, rating)
        snap = service.stats()["metrics"]
        assert snap["counters"].get("serve.stream.events", 0) == 0
        assert snap["gauges"]["serve.stream.dirty_users"] == 0
        np.testing.assert_array_equal(service._tasks[victim].support_labels, support)
        assert service.meta_refresh() == {"n_tasks": 0, "delta_rms": 0.0}
        assert len(before) == 10
        for name, value in melu_restored.maml.params.items():
            np.testing.assert_array_equal(value, before[name])
        assert np.isfinite(service.recommend(other, k=5).scores).all()
        # A valid event still refreshes, to finite parameters.
        service.observe(victim, 5, 1.0)
        assert np.isfinite(service.meta_refresh()["delta_rms"])
        for value in melu_restored.maml.params.values():
            assert np.isfinite(value).all()

    def test_refresh_every_requires_meta_method(self, bench_experiment):
        popularity = build_method({"name": "Popularity"}, seed=0)
        popularity.fit(bench_experiment.ctx)
        assert not popularity.supports_meta_refresh()
        with pytest.raises(ValueError, match="meta-refresh"):
            RecommenderService(popularity, refresh_every=4)


class TestServingCacheCorrectness:
    def test_batch_validates_every_request_up_front(self, melu, cold_tasks):
        from repro.service import ServeRequest

        users = sorted(cold_tasks)[:2]
        counting = _CountingMethod(melu)
        service = RecommenderService(counting, cache_size=8)
        for user in users:
            service.register_user_history(cold_tasks[user])
        requests = [
            ServeRequest(users[0], 5),
            ServeRequest(users[1], 0),  # invalid k, placed after a valid one
        ]
        with pytest.raises(ValueError, match="k must be positive"):
            service.recommend_batch(requests)
        # The bad batch left no partial state: nothing adapted, nothing
        # cached, no request counted.
        snap = service.stats()["metrics"]
        assert counting.adapt_calls == 0
        assert snap["counters"].get("serve.requests", 0) == 0
        assert snap["gauges"]["serve.cache.size"] == 0

    def test_empty_pool_answers_empty_without_adapting(self, melu, cold_tasks):
        """A user who has seen every candidate is answered empty, unadapted.

        Every entry point runs the same core, so none of them pays the
        fine-tuning for a request it cannot rank anything for.
        """
        from repro.service import ServeRequest

        user = sorted(cold_tasks)[0]
        counting = _CountingMethod(melu)
        service = RecommenderService(counting, candidate_pool=np.array([3, 5]))
        service.register_user_history(cold_tasks[user])
        service.observe(user, 3)
        service.observe(user, 5)
        answers = [
            service.recommend(user, k=5),
            *service.recommend_many([user, user], k=5),
            *service.recommend_batch([ServeRequest(user, 5)]),
        ]
        assert [len(answer) for answer in answers] == [0, 0, 0, 0]
        assert all(answer.scores.size == 0 for answer in answers)
        assert counting.adapt_calls == 0
        counters = service.stats()["metrics"]["counters"]
        assert counters.get("serve.adapt.users", 0) == 0
        assert counters["serve.requests"] == 4

    def test_failed_flush_releases_pending(self, melu, cold_tasks):
        user = sorted(cold_tasks)[0]
        exploding = _ExplodingMethod(melu)
        with RecommenderService(exploding, cache_size=8, batching=True) as service:
            service.register_user_history(cold_tasks[user])
            exploding.explode = True
            with pytest.raises(RuntimeError, match="backend down"):
                service.recommend(user, k=5)
            assert service.stats()["metrics"]["gauges"]["serve.adapt.pending"] == 0
            # The service recovers once the backend does.
            exploding.explode = False
            assert len(service.recommend(user, k=5)) == 5


@pytest.fixture(scope="module")
def stream_artifact(bench_experiment, tmp_path_factory):
    """A saved tiny-budget MetaDPA artifact and its cold-user task pool."""
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 2, "meta_epochs": 1},
        seed=0,
    )
    method.fit(bench_experiment.ctx)
    path = method.save(tmp_path_factory.mktemp("stream") / "metadpa.npz")
    tasks = {int(t.user_row): t for t in bench_experiment.task_sets[Scenario.C_U]}
    return str(path), tasks


class TestMappedRefresh:
    def test_refresh_of_a_mapped_artifact_never_writes_through(self, stream_artifact):
        """Refreshing a memory-mapped model moves its weights in memory only.

        The refreshed weights equal an eagerly loaded model refreshed the
        same way, and the artifact's bytes are unchanged.
        """
        path, tasks = stream_artifact
        before = Path(path).read_bytes()
        observed = [tasks[user] for user in sorted(tasks)[:3]]
        mapped = Recommender.load(path, mmap_mode="r")
        eager = Recommender.load(path, mmap_mode=None)
        assert not any(v.flags.writeable for v in mapped.maml.params.values())
        for method in (mapped, eager):
            assert method.meta_refresh(observed, meta_lr=0.5)["delta_rms"] > 0
        for name, value in mapped.maml.params.items():
            assert value.flags.writeable, name  # an in-memory copy now
            np.testing.assert_array_equal(value, eager.maml.params[name])
        assert Path(path).read_bytes() == before


class TestShardedStreaming:
    def test_repeated_task_payloads_hit_cache_across_pipe(self, stream_artifact):
        """Regression: requests re-pickle tasks, so identity can never match.

        The cache must hit on task *value* — a repeat request carrying the
        same support history over the shard pipe adapts zero extra users.
        """
        path, tasks = stream_artifact
        user = sorted(tasks)[0]
        with ShardedService(path, n_workers=1, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            first = service.recommend(user, k=5, task=tasks[user])
            before = service.stats()["shards"][0]["metrics"]["counters"]
            second = service.recommend(user, k=5, task=tasks[user])
            after = service.stats()["shards"][0]["metrics"]["counters"]
        assert after["serve.adapt.users"] == before["serve.adapt.users"]
        assert np.array_equal(first.items, second.items)
        assert np.array_equal(first.scores, second.scores)

    def test_observe_invalidates_exactly_that_user(self, stream_artifact):
        path, tasks = stream_artifact
        # Two users owned by the same shard under user % 2 routing.
        even = [u for u in sorted(tasks) if u % 2 == 0][:2]
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in even:
                service.register_user_history(tasks[user])
                service.recommend(user, k=5)
            shard = service.shard_of(even[0])
            before = service.stats()["shards"][shard]["metrics"]["counters"]
            service.observe(even[0], item_row=0, rating=1.0)
            for user in even:
                service.recommend(user, k=5)
            after = service.stats()["shards"][shard]["metrics"]["counters"]
        assert after["serve.adapt.users"] == before["serve.adapt.users"] + 1
        assert after["serve.stream.events"] == 1

    def test_observe_stream_matches_single_process(self, stream_artifact):
        """Sharded observe keeps the bit-identical serving guarantee."""
        path, tasks = stream_artifact
        users = sorted(tasks)[:6]
        script = [
            ("recommend", u) for u in users
        ] + [
            ("observe", users[0], 3, 1.0),
            ("observe", users[1], 5, 0.0),
            ("observe", users[0], 7, 1.0),
        ] + [
            ("recommend", u) for u in users
        ]

        def run(service) -> list:
            results = []
            for op in script:
                if op[0] == "recommend":
                    results.append(service.recommend(op[1], k=7))
                else:
                    service.observe(op[1], op[2], op[3])
            return results

        reference = RecommenderService.from_artifact(path)
        for user in users:
            reference.register_user_history(tasks[user])
        expected = run(reference)
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            results = run(service)
        for want, got in zip(expected, results):
            assert np.array_equal(want.items, got.items)
            assert np.array_equal(want.scores, got.scores)

    def test_mixed_open_loop_ingests_writes(self, stream_artifact):
        path, tasks = stream_artifact
        users = sorted(tasks)[:8]
        ops = mixed_zipfian_stream(users, range(10), 40, write_frac=0.3, seed=2)
        n_writes = sum(1 for op in ops if op.kind == "write")
        assert 0 < n_writes < len(ops)
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            report = run_mixed_open_loop(service, ops, rate=500.0)
            stats = service.stats()
        assert report.n_requests == len(ops)
        assert np.isfinite(report.latencies).all()
        ingested = sum(
            s["metrics"]["counters"].get("serve.stream.events", 0)
            for s in stats["shards"]
        )
        assert ingested == n_writes


class TestMixedStream:
    def test_deterministic_and_bounded(self):
        ops = mixed_zipfian_stream(range(5), range(9), 64, write_frac=0.25, seed=4)
        again = mixed_zipfian_stream(range(5), range(9), 64, write_frac=0.25, seed=4)
        assert ops == again
        assert all(op.kind in ("read", "write") for op in ops)
        assert all(0 <= op.user_row < 5 for op in ops)
        writes = [op for op in ops if op.kind == "write"]
        assert writes and all(0 <= op.item_row < 9 for op in writes)
        assert all(0.0 <= op.rating <= 1.0 for op in writes)

    def test_write_frac_extremes_and_validation(self):
        assert all(
            op.kind == "read"
            for op in mixed_zipfian_stream(range(4), range(4), 16, write_frac=0.0)
        )
        assert all(
            op.kind == "write"
            for op in mixed_zipfian_stream(range(4), range(4), 16, write_frac=1.0)
        )
        with pytest.raises(ValueError, match="write_frac"):
            mixed_zipfian_stream(range(4), range(4), 16, write_frac=1.5)


class TestTemporalSplit:
    @given(seed=seeds, frac=st.floats(0.1, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_partitions_support_without_touching_queries(self, seed, frac):
        rng = np.random.default_rng(seed)
        tasks = [_task(rng, n_support=int(rng.integers(1, 8))) for _ in range(5)]
        initial, events = split_task_stream(tasks, initial_frac=frac, seed=seed)
        assert len(initial) == len(tasks)
        times = [e.time for e in events]
        assert times == sorted(times)
        for task, init in zip(tasks, initial):
            assert init.n_support >= 1
            np.testing.assert_array_equal(init.query_items, task.query_items)
            np.testing.assert_array_equal(init.query_labels, task.query_labels)
            # Tasks may share user rows; the rejoin check needs a unique one.
            if sum(int(t.user_row) == int(task.user_row) for t in tasks) > 1:
                continue
            kept = list(zip(init.support_items.tolist(), init.support_labels.tolist()))
            rejoined = sorted(
                kept
                + [
                    (e.item_row, e.rating)
                    for e in events
                    if e.user_row == int(task.user_row)
                ]
            )
            whole = sorted(
                zip(task.support_items.tolist(), task.support_labels.tolist())
            )
            assert rejoined == whole

    def test_deterministic_and_validates(self):
        rng = np.random.default_rng(9)
        tasks = [_task(rng, n_support=4) for _ in range(3)]
        a = split_task_stream(tasks, initial_frac=0.5, seed=1)
        b = split_task_stream(tasks, initial_frac=0.5, seed=1)
        assert a[1] == b[1]
        np.testing.assert_array_equal(a[0][0].support_items, b[0][0].support_items)
        with pytest.raises(ValueError, match="initial_frac"):
            split_task_stream(tasks, initial_frac=0.0)

    def test_evaluate_stream_shapes(self, melu_restored, cold_tasks, bench_experiment):
        tasks = list(cold_tasks.values())[:6]
        instances = [
            i
            for i in bench_experiment.instances[Scenario.C_U]
            if int(i.user_row) in {int(t.user_row) for t in tasks}
        ]
        initial, events = split_task_stream(tasks, initial_frac=0.5, seed=0)
        service = RecommenderService(melu_restored, cache_size=64)
        report = evaluate_stream(
            service, initial, instances, events, n_windows=3, k=5
        )
        assert len(report.windows) == 3
        assert sum(w.n_events for w in report.windows) == len(events)
        assert len(report.trace("ndcg")) == 4
        assert report.final is report.windows[-1].metrics
        payload = report.to_dict()
        assert len(payload["windows"]) == 3 and "ndcg" in payload["initial"]


@pytest.fixture(scope="module")
def metadpa_stream(bench_experiment):
    """A fitted fast MetaDPA plus a snapshot of its meta-parameters."""
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 2, "meta_epochs": 1},
        seed=0,
    )
    method.fit(bench_experiment.ctx)
    snapshot = {k: v.copy() for k, v in method.maml.params.items()}
    return method, snapshot


class TestRefreshBeatsNoRefresh:
    def test_periodic_refresh_wins_at_equal_serve_cost(
        self, metadpa_stream, bench_experiment
    ):
        """The acceptance bar: same split, same events, same number of
        adaptations — the arm that folds observed interactions back into
        the meta-initialization ranks the post-split queries better."""
        method, snapshot = metadpa_stream
        tasks = list(bench_experiment.task_sets[Scenario.C_U])
        instances = bench_experiment.instances[Scenario.C_U]

        def make_service():
            for key, value in snapshot.items():
                method.maml.params[key] = value.copy()
            method._stream_corpus = None
            return RecommenderService(method, cache_size=1024, refresh_lr=0.5)

        try:
            reports = compare_refresh_cadence(
                make_service,
                tasks,
                instances,
                initial_frac=0.4,
                n_windows=4,
                seed=0,
            )
        finally:
            for key, value in snapshot.items():
                method.maml.params[key] = value.copy()
            method._stream_corpus = None
        no, yes = reports["no_refresh"], reports["refresh"]
        assert yes.windows[-1].refreshes == 4
        assert no.windows[-1].refreshes == 0
        assert yes.total_adapted_users == no.total_adapted_users
        assert yes.final.ndcg > no.final.ndcg
