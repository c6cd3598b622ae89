"""Serving lifecycle: save/load round-trips, recommend, cache, batching."""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.interface import Recommender, training_visibility
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import Scenario
from repro.obs import MetricsRegistry
from repro.registry import build_method
from repro.serve import ShardedService
from repro.service import LRUCache, MicroBatcher, RecommenderService, ServeRequest

#: tiny budgets: the lifecycle under test is fit → save → load → recommend,
#: not model quality.
ROUND_TRIP_SPECS = {
    "Popularity": {"name": "Popularity"},
    "NeuMF": {"name": "NeuMF", "epochs": 2},
    "MetaDPA": {"name": "MetaDPA", "cvae_epochs": 2, "meta_epochs": 1},
}


@pytest.fixture(scope="module", params=sorted(ROUND_TRIP_SPECS))
def fitted_pair(request, bench_experiment, tmp_path_factory):
    """(fitted method, reloaded copy) for each round-trip method."""
    method = build_method(ROUND_TRIP_SPECS[request.param], seed=0)
    method.fit(bench_experiment.ctx)
    path = method.save(
        tmp_path_factory.mktemp("artifacts") / f"{request.param}.npz"
    )
    return method, Recommender.load(path)


@pytest.fixture(scope="module")
def cold_task(bench_experiment):
    """A user-cold-start support task aligned with its eval instance."""
    tasks = {t.user_row: t for t in bench_experiment.task_sets[Scenario.C_U]}
    instance = next(
        i
        for i in bench_experiment.instances[Scenario.C_U]
        if i.user_row in tasks
    )
    return tasks[instance.user_row], instance


class TestSaveLoadRoundTrip:
    def test_recommend_identical(self, fitted_pair):
        method, reloaded = fitted_pair
        first = method.recommend(0, k=10)
        second = reloaded.recommend(0, k=10)
        assert np.array_equal(first.items, second.items)
        assert np.allclose(first.scores, second.scores)

    def test_score_identical_with_adaptation(self, fitted_pair, cold_task):
        method, reloaded = fitted_pair
        task, instance = cold_task
        assert np.allclose(
            method.score(task, instance), reloaded.score(task, instance)
        )

    def test_header_preserves_config(self, fitted_pair):
        method, reloaded = fitted_pair
        assert type(reloaded) is type(method)
        assert reloaded.config_dict() == method.config_dict()

    def test_directly_constructed_method_round_trips(
        self, bench_experiment, tmp_path
    ):
        # Non-default hyper-parameters of a hand-built instance must survive
        # save/load even though no registry config was attached at build.
        from repro.baselines import NeuMF

        method = NeuMF(embed_dim=8, hidden_dims=(16,), epochs=1, seed=0)
        method.fit(bench_experiment.ctx)
        path = method.save(tmp_path / "direct.npz")
        reloaded = Recommender.load(path)
        assert reloaded.embed_dim == 8 and reloaded.hidden_dims == (16,)
        first, second = method.recommend(0, k=10), reloaded.recommend(0, k=10)
        assert np.array_equal(first.items, second.items)

    def test_typed_load_rejects_wrong_class(self, fitted_pair, tmp_path):
        from repro.baselines import NeuMF

        method, _ = fitted_pair
        if isinstance(method, NeuMF):
            pytest.skip("NeuMF artifact legitimately loads as NeuMF")
        path = method.save(tmp_path / "artifact.npz")
        with pytest.raises(TypeError):
            NeuMF.load(path)


class TestRecommend:
    def test_excludes_seen_items(self, fitted_pair, bench_experiment):
        method, _ = fitted_pair
        seen = np.flatnonzero(bench_experiment.ctx.visible_ratings[0] > 0)
        result = method.recommend(0, k=50)
        assert not np.intersect1d(result.items, seen).size

    def test_include_seen_widens_pool(self, fitted_pair):
        method, _ = fitted_pair
        n_items = method.serving.n_items
        result = method.recommend(0, k=n_items, exclude_seen=False)
        assert len(result) == n_items

    def test_candidates_restrict_pool(self, fitted_pair):
        method, _ = fitted_pair
        pool = np.array([3, 5, 7, 9])
        result = method.recommend(0, k=10, exclude_seen=False, candidates=pool)
        assert set(result.items) <= set(pool.tolist())

    def test_scores_sorted_descending(self, fitted_pair):
        method, _ = fitted_pair
        result = method.recommend(1, k=20)
        assert np.all(np.diff(result.scores) <= 1e-12)

    def test_unfitted_method_raises(self):
        method = build_method({"name": "Popularity"})
        with pytest.raises(RuntimeError, match="serving state"):
            method.recommend(0)

    def test_invalid_k(self, fitted_pair):
        method, _ = fitted_pair
        with pytest.raises(ValueError):
            method.recommend(0, k=0)

    def test_out_of_range_user_rejected(self, fitted_pair):
        method, _ = fitted_pair
        with pytest.raises(ValueError, match="out of range"):
            method.recommend(method.serving.n_users, k=5)
        # Negative rows must not silently alias numpy's -1 indexing.
        with pytest.raises(ValueError, match="out of range"):
            method.recommend(-1, k=5)


class TestScoreBatchContract:
    def test_score_batch_misalignment(self, fitted_pair):
        method, _ = fitted_pair
        instance = EvalInstance(user_row=0, pos_item=0, neg_items=np.array([1, 2]))
        with pytest.raises(ValueError, match="align"):
            method.score_batch([None, None], [instance])

    def test_score_with_state_batch_misalignment(self, fitted_pair):
        method, _ = fitted_pair
        instance = EvalInstance(user_row=0, pos_item=0, neg_items=np.array([1, 2]))
        with pytest.raises(ValueError, match="align"):
            method.score_with_state_batch([None, None], [instance])

    def test_batched_matches_sequential(self, fitted_pair, cold_task):
        method, _ = fitted_pair
        task, instance = cold_task
        other = EvalInstance(user_row=1, pos_item=2, neg_items=np.array([4, 6, 8]))
        states = [method.adapt_user(task), None]
        batched = method.score_with_state_batch(states, [instance, other])
        for state, inst, scores in zip(states, [instance, other], batched):
            assert np.allclose(scores, method.score_with_state(state, inst))


class TestTrainingVisibilityDtype:
    def test_default_is_float32(self, bench_experiment):
        ctx = bench_experiment.ctx
        visible = training_visibility(
            ctx.domain.n_users, ctx.domain.n_items, ctx.warm_tasks
        )
        assert visible.dtype == np.float32

    def test_dtype_parameter(self, bench_experiment):
        ctx = bench_experiment.ctx
        f64 = training_visibility(
            ctx.domain.n_users, ctx.domain.n_items, ctx.warm_tasks, dtype=np.float64
        )
        f32 = training_visibility(
            ctx.domain.n_users, ctx.domain.n_items, ctx.warm_tasks
        )
        assert f64.dtype == np.float64
        assert np.array_equal(f64, f32)
        assert f32.nbytes * 2 == f64.nbytes


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("a") is None and cache.misses == 1
        cache.put("a", 1)
        assert cache.get("a") == 1 and cache.hits == 1

    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is least recent
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_invalidate(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        assert cache.invalidate("a") and not cache.invalidate("a")


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


@pytest.fixture(scope="module")
def fitted_melu(bench_experiment):
    method = build_method({"name": "MeLU", "meta_epochs": 1}, seed=0)
    return method.fit(bench_experiment.ctx)


class TestRecommenderService:
    def test_repeat_requests_hit_adaptation_cache(self, fitted_melu, cold_task):
        task, _ = cold_task
        counting = _CountingMethod(fitted_melu)
        service = RecommenderService(counting, cache_size=8)
        service.register_user_history(task)
        first = service.recommend(task.user_row, k=5)
        second = service.recommend(task.user_row, k=5)
        # The expensive fine-tuning ran exactly once; the repeat request was
        # served from the LRU cache — that cached adaptation is the speedup.
        assert counting.adapt_calls == 1
        assert service.stats()["metrics"]["counters"]["serve.cache.hits"] == 1
        assert np.array_equal(first.items, second.items)
        assert np.allclose(first.scores, second.scores)

    def test_eviction_forces_readaptation(self, fitted_melu, cold_task):
        task, _ = cold_task
        counting = _CountingMethod(fitted_melu)
        service = RecommenderService(counting, cache_size=1)
        service.register_user_history(task)
        service.recommend(task.user_row, k=5)
        service.recommend(task.user_row + 1, k=5)  # evicts the first user
        service.recommend(task.user_row, k=5)
        assert counting.adapt_calls == 3

    def test_new_explicit_task_bypasses_stale_cache(self, fitted_melu, cold_task):
        from dataclasses import replace

        task, _ = cold_task
        counting = _CountingMethod(fitted_melu)
        service = RecommenderService(counting, cache_size=8)
        service.recommend(task.user_row, k=5, task=task)
        service.recommend(task.user_row, k=5, task=task)  # same object: cached
        assert counting.adapt_calls == 1
        # An equal-value copy is NOT fresh history — staleness is by value
        # fingerprint, so a re-sent (e.g. re-pickled) task stays cached.
        service.recommend(task.user_row, k=5, task=replace(task))
        assert counting.adapt_calls == 1
        # Genuinely new interactions for the same user bypass the cache.
        fresh = replace(task, support_labels=1.0 - task.support_labels)
        service.recommend(task.user_row, k=5, task=fresh)
        assert counting.adapt_calls == 2
        service.recommend(task.user_row, k=5)  # no task: cached again
        assert counting.adapt_calls == 2

    def test_register_history_invalidates(self, fitted_melu, cold_task):
        task, _ = cold_task
        counting = _CountingMethod(fitted_melu)
        service = RecommenderService(counting, cache_size=8)
        service.register_user_history(task)
        service.recommend(task.user_row, k=5)
        service.register_user_history(task)  # new interactions arrived
        service.recommend(task.user_row, k=5)
        assert counting.adapt_calls == 2

    def test_matches_direct_recommend(self, fitted_melu, cold_task):
        task, _ = cold_task
        service = RecommenderService(fitted_melu)
        service.register_user_history(task)
        from_service = service.recommend(task.user_row, k=7)
        direct = fitted_melu.recommend(task.user_row, k=7, task=task)
        assert np.array_equal(from_service.items, direct.items)
        assert np.allclose(from_service.scores, direct.scores)

    def test_batching_path_matches_direct(self, fitted_melu, cold_task):
        task, _ = cold_task
        with RecommenderService(fitted_melu, batching=True) as batched:
            batched.register_user_history(task)
            direct = RecommenderService(fitted_melu)
            direct.register_user_history(task)
            for user in (task.user_row, 0, 1):
                a = batched.recommend(user, k=5)
                b = direct.recommend(user, k=5)
                assert np.array_equal(a.items, b.items)
                assert np.array_equal(a.scores, b.scores)
            flushes = batched.stats()["metrics"]["histograms"]["serve.batch.size"]
            assert flushes["sum"] == 3  # requests carried by the batcher

    @pytest.mark.parametrize("batching", [False, True])
    def test_stats_is_the_registry_snapshot(self, fitted_melu, batching):
        """``stats()`` is ``{"metrics": snapshot}``, and the core counts
        each request once, whichever entry point sent it."""
        with RecommenderService(fitted_melu, batching=batching) as service:
            for user in (0, 1, 2):
                service.recommend(user, k=5)
            service.recommend_many([0, 1, 2, 3], k=5)
            stats = service.stats()
        assert set(stats) == {"metrics"}
        assert stats["metrics"] == service.metrics.snapshot()
        assert stats["metrics"]["counters"]["serve.requests"] == 7

    def test_recommend_many_matches_individual(self, fitted_melu):
        service = RecommenderService(fitted_melu)
        users = [0, 1, 2]
        many = service.recommend_many(users, k=5)
        for user, result in zip(users, many):
            single = service.recommend(user, k=5)
            assert np.array_equal(result.items, single.items)

    def test_candidate_pool_restricts(self, fitted_melu):
        pool = np.arange(10)
        service = RecommenderService(fitted_melu, candidate_pool=pool)
        result = service.recommend(0, k=20, exclude_seen=False)
        assert set(result.items) <= set(pool.tolist())

    def test_out_of_range_user_rejected(self, fitted_melu):
        service = RecommenderService(fitted_melu)
        with pytest.raises(ValueError, match="out of range"):
            service.recommend(fitted_melu.serving.n_users, k=5)
        with pytest.raises(ValueError, match="out of range"):
            service.recommend(-1, k=5)

    def test_out_of_range_pool_rejected(self, fitted_melu):
        n_items = fitted_melu.serving.n_items
        with pytest.raises(ValueError):
            RecommenderService(fitted_melu, candidate_pool=np.array([n_items + 1]))

    def test_from_artifact(self, fitted_melu, tmp_path):
        path = fitted_melu.save(tmp_path / "melu.npz")
        service = RecommenderService.from_artifact(path)
        result = service.recommend(0, k=5)
        assert np.array_equal(result.items, fitted_melu.recommend(0, k=5).items)

    @pytest.mark.parametrize("batching", [False, True])
    def test_dropped_service_frees_without_the_cyclic_gc(
        self, fitted_melu, cold_task, tmp_path, batching
    ):
        """A closed service and the method it loaded die on ``del``.

        Nothing the service holds refers back to it (its metrics collector
        and, once closed, its batcher), so reference counting alone frees
        the artifact mapping and the cached adapted states.
        """
        path = fitted_melu.save(tmp_path / "melu.npz")
        task, _ = cold_task
        gc.collect()
        gc.disable()
        try:
            service = RecommenderService.from_artifact(path, batching=batching)
            service.register_user_history(task)
            service.recommend(task.user_row, k=5)
            service.stats()
            service.close()
            refs = (weakref.ref(service), weakref.ref(service.method))
            del service
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class _CountingBatchMethod(_CountingMethod):
    """Also count the coalesced ``adapt_users`` entry point.

    Batch scoring waits on ``gate`` (open by default) after setting
    ``scoring``, so a test can hold a flush in flight while it queues more
    requests behind it.
    """

    def __init__(self, method):
        super().__init__(method)
        self.adapt_users_calls = 0
        self.adapted_users = 0
        self.gate = threading.Event()
        self.gate.set()
        self.scoring = threading.Event()

    def adapt_users(self, tasks):
        self.adapt_users_calls += 1
        self.adapted_users += len(tasks)
        return self._method.adapt_users(tasks)

    def score_with_state_batch(self, states, instances):
        self.scoring.set()
        assert self.gate.wait(timeout=30.0)
        return self._method.score_with_state_batch(states, instances)


class TestRecommendBatch:
    @staticmethod
    def _cold_tasks(bench_experiment, n):
        tasks = list(bench_experiment.task_sets[Scenario.C_U])
        assert len(tasks) >= n
        return tasks[:n]

    def test_matches_sequential_bitwise(self, fitted_melu, bench_experiment):
        from dataclasses import replace

        tasks = self._cold_tasks(bench_experiment, 4)
        # Duplicates, warm users, and a mid-stream history refresh: the
        # batch plan must replay exactly what sequential serving would do.
        stream = [
            ServeRequest(tasks[0].user_row, k=6),
            ServeRequest(0, k=6),
            ServeRequest(tasks[1].user_row, k=6),
            ServeRequest(tasks[0].user_row, k=6),
            ServeRequest(tasks[2].user_row, k=6, task=replace(tasks[2])),
            ServeRequest(1, k=6),
            ServeRequest(tasks[3].user_row, k=6),
            ServeRequest(tasks[2].user_row, k=6),
        ]
        sequential = RecommenderService(fitted_melu, cache_size=16)
        batched = RecommenderService(fitted_melu, cache_size=16)
        for service in (sequential, batched):
            for task in tasks:
                service.register_user_history(task)
        reference = [
            sequential.recommend(
                r.user_row, k=r.k, task=r.task, exclude_seen=r.exclude_seen
            )
            for r in stream
        ]
        results = batched.recommend_batch(stream)
        for want, got in zip(reference, results):
            np.testing.assert_array_equal(want.items, got.items)
            np.testing.assert_array_equal(want.scores, got.scores)

    def test_single_adapt_users_call_for_mixed_burst(
        self, fitted_melu, bench_experiment
    ):
        tasks = self._cold_tasks(bench_experiment, 4)
        counting = _CountingBatchMethod(fitted_melu)
        service = RecommenderService(counting, cache_size=16)
        for task in tasks:
            service.register_user_history(task)
        # Warm half the users through the solo path, then serve a burst
        # mixing cached, cold, and duplicate-cold users.
        for task in tasks[:2]:
            service.recommend(task.user_row, k=5)
        burst = [ServeRequest(t.user_row, k=5) for t in tasks]
        burst.append(ServeRequest(tasks[3].user_row, k=5))  # duplicate cold
        service.recommend_batch(burst)
        # Exactly one coalesced adaptation covering only the 2 cold users;
        # the duplicate reused the freshly adapted state within the batch.
        assert counting.adapt_users_calls == 1
        assert counting.adapted_users == 2

    def test_stats_expose_adaptation_counters(
        self, fitted_melu, bench_experiment
    ):
        tasks = self._cold_tasks(bench_experiment, 3)
        service = RecommenderService(fitted_melu, cache_size=16)
        for task in tasks:
            service.register_user_history(task)
        before = service.stats()["metrics"]
        assert before["counters"].get("serve.adapt.batches", 0) == 0
        assert before["counters"].get("serve.adapt.users", 0) == 0
        assert before["gauges"].get("serve.adapt.pending", 0) == 0
        service.recommend_batch([ServeRequest(t.user_row, k=5) for t in tasks])
        after = service.stats()["metrics"]
        assert after["counters"]["serve.adapt.batches"] == 1
        assert after["counters"]["serve.adapt.users"] == 3
        assert after["gauges"]["serve.adapt.pending"] == 0

    def test_batching_service_one_adapt_users_per_flush(
        self, fitted_melu, bench_experiment
    ):
        tasks = self._cold_tasks(bench_experiment, 6)
        counting = _CountingBatchMethod(fitted_melu)
        reference = RecommenderService(fitted_melu, cache_size=16)
        with RecommenderService(counting, batching=True, cache_size=16) as service:
            for task in tasks:
                service.register_user_history(task)
                reference.register_user_history(task)
            # Warm 3 users one at a time (each blocking call is its own
            # flush).
            for task in tasks[:3]:
                service.recommend(task.user_row, k=5)
            calls_before = counting.adapt_users_calls
            adapted_before = counting.adapted_users
            before = service.stats()["metrics"]
            results: dict[int, object] = {}

            def request(user):
                results[user] = service.recommend(user, k=5)

            # Hold a warm user's flush in flight, queue all 6 users behind
            # it, then release: the idle batcher sends the backlog as one
            # flush.
            counting.gate.clear()
            counting.scoring.clear()
            holder = threading.Thread(target=request, args=(tasks[0].user_row,))
            holder.start()
            assert counting.scoring.wait(timeout=30.0)
            threads = [
                threading.Thread(target=request, args=(t.user_row,))
                for t in tasks
            ]
            for thread in threads:
                thread.start()
            give_up = time.monotonic() + 30.0
            while service._batcher._queue.qsize() < len(tasks):
                assert time.monotonic() < give_up, "burst never queued"
                time.sleep(0.001)
            counting.gate.set()
            for thread in [holder, *threads]:
                thread.join()
            stats = service.stats()["metrics"]
        # The held flush plus exactly one flush for the whole burst, whose
        # single adapt_users call fine-tuned only the 3 cache-missed users;
        # the pending depth drained back to zero.
        flushes = stats["histograms"]["serve.batch.size"]
        assert flushes["count"] == before["histograms"]["serve.batch.size"]["count"] + 2
        assert flushes["max"] == len(tasks)
        assert counting.adapt_users_calls == calls_before + 1
        assert counting.adapted_users == adapted_before + 3
        adapt_batches = stats["counters"]["serve.adapt.batches"]
        assert adapt_batches == before["counters"]["serve.adapt.batches"] + 1
        assert stats["gauges"]["serve.adapt.pending"] == 0
        for task in tasks:
            want = reference.recommend(task.user_row, k=5)
            got = results[task.user_row]
            np.testing.assert_array_equal(want.items, got.items)
            np.testing.assert_array_equal(want.scores, got.scores)


class TestMicroBatcher:
    @staticmethod
    def _echo_scorer(instances):
        return [np.asarray(i.candidates, dtype=float) for i in instances]

    @staticmethod
    def _flushes(metrics: MetricsRegistry) -> dict:
        """The batcher's record: ``count`` flushes carrying ``sum``
        requests, the largest ``max``."""
        return metrics.snapshot()["histograms"]["serve.batch.size"]

    def test_coalesces_queued_requests(self):
        metrics = MetricsRegistry(enabled=True)
        batcher = MicroBatcher(self._echo_scorer, autostart=False, metrics=metrics)
        futures = [
            batcher.submit(EvalInstance(u, 0, np.array([1, 2])))
            for u in range(5)
        ]
        served = batcher.process_once()
        flushes = self._flushes(metrics)
        assert served == 5 and flushes["count"] == 1
        assert flushes["max"] == 5
        for future in futures:
            assert np.array_equal(future.result(), [0.0, 1.0, 2.0])

    def test_respects_max_batch(self):
        batcher = MicroBatcher(self._echo_scorer, max_batch=2, autostart=False)
        for u in range(5):
            batcher.submit(EvalInstance(u, 0, np.array([1])))
        sizes = [batcher.process_once() for _ in range(3)]
        assert sizes == [2, 2, 1]

    def test_error_propagates_to_futures(self):
        def broken(instances):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(broken, autostart=False)
        future = batcher.submit(EvalInstance(0, 0, np.array([1])))
        batcher.process_once()
        with pytest.raises(RuntimeError, match="model exploded"):
            future.result()

    def test_threaded_worker_serves_concurrent_submits(self):
        batcher = MicroBatcher(self._echo_scorer)
        futures: list = []
        lock = threading.Lock()

        def client(user):
            future = batcher.submit(EvalInstance(user, 0, np.array([1, 2])))
            with lock:
                futures.append(future)

        threads = [threading.Thread(target=client, args=(u,)) for u in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [f.result(timeout=5.0) for f in futures]
        batcher.close()
        assert len(results) == 8
        assert all(np.array_equal(r, [0.0, 1.0, 2.0]) for r in results)

    def test_close_flushes_partially_filled_batch(self):
        # close() right after submitting (3 of 64 slots filled) must serve
        # every request promptly, whether the worker already took it or it
        # is still queued, and never drop one.
        metrics = MetricsRegistry(enabled=True)
        batcher = MicroBatcher(self._echo_scorer, max_batch=64, metrics=metrics)
        futures = [
            batcher.submit(EvalInstance(u, 0, np.array([1, 2])))
            for u in range(3)
        ]
        batcher.close()
        for future in futures:
            np.testing.assert_array_equal(
                future.result(timeout=5.0), [0.0, 1.0, 2.0]
            )
        assert self._flushes(metrics)["sum"] == 3
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(EvalInstance(9, 0, np.array([1])))

    def test_close_without_worker_drains_queue(self):
        metrics = MetricsRegistry(enabled=True)
        batcher = MicroBatcher(self._echo_scorer, autostart=False, metrics=metrics)
        futures = [
            batcher.submit(EvalInstance(u, 0, np.array([1, 2])))
            for u in range(3)
        ]
        batcher.close()  # no worker thread ever ran: close itself drains
        for future in futures:
            assert future.done()
            np.testing.assert_array_equal(future.result(), [0.0, 1.0, 2.0])
        flushes = self._flushes(metrics)
        assert flushes["count"] >= 1 and flushes["max"] <= 3

    def test_submit_after_close_rejected(self):
        batcher = MicroBatcher(self._echo_scorer, autostart=False)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(EvalInstance(0, 0, np.array([1])))

    def test_shutdown_with_raising_scorer_resolves_pending(self):
        # A flush callable that raises during shutdown must not deadlock
        # close(): every pending future resolves with the error instead of
        # waiting forever on a batch that can never succeed.
        def broken(instances):
            raise RuntimeError("artifact vanished")

        batcher = MicroBatcher(broken, max_batch=64)
        futures = [
            batcher.submit(EvalInstance(u, 0, np.array([1, 2])))
            for u in range(3)
        ]
        batcher.close()  # returns promptly despite the raising scorer
        for future in futures:
            assert future.done()
            with pytest.raises(RuntimeError, match="artifact vanished"):
                future.result()

    @pytest.mark.parametrize("max_batch, sizes", [(64, [1, 5]), (2, [1, 2, 2, 1])])
    def test_coalesces_behind_a_busy_flush(self, max_batch, sizes):
        # Flush 1 is held in flight; the 5 requests submitted meanwhile
        # leave together once it returns, split only by max_batch.
        release = threading.Event()
        flushing = threading.Event()
        flushed: list[int] = []

        def held(instances):
            flushed.append(len(instances))
            flushing.set()
            assert release.wait(timeout=30.0)
            return self._echo_scorer(instances)

        metrics = MetricsRegistry(enabled=True)
        batcher = MicroBatcher(held, max_batch=max_batch, metrics=metrics)
        futures = [batcher.submit(EvalInstance(0, 0, np.array([1])))]
        assert flushing.wait(timeout=30.0)
        futures += [
            batcher.submit(EvalInstance(u, 0, np.array([1])))
            for u in range(1, 6)
        ]
        release.set()
        for future in futures:
            np.testing.assert_array_equal(future.result(timeout=30.0), [0.0, 1.0])
        batcher.close()
        assert flushed == sizes
        flushes = self._flushes(metrics)
        assert flushes["count"] == len(sizes)
        assert flushes["max"] == max(sizes)

    def test_lone_sharded_request_is_sent_at_once(self, fitted_melu, tmp_path):
        # max_wait_ms is accepted but ignored: a request reaching an idle
        # shard leaves at once instead of waiting out a 5 s window.
        path = fitted_melu.save(tmp_path / "melu.npz")
        with ShardedService(path, n_workers=1, max_wait_ms=5000.0) as service:
            assert service.wait_ready(timeout=60.0)
            t0 = time.monotonic()
            result = service.recommend(0, k=5)
            elapsed = time.monotonic() - t0
        assert len(result) == 5
        assert elapsed < 1.0
