"""Serving lifecycle: save/load round-trips, recommend, cache, batching."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.interface import Recommender, training_visibility
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import Scenario
from repro.obs import MetricsRegistry
from repro.registry import build_method
from repro.serve import ShardedService
from repro.service import LRUCache, RecommenderService, ServeRequest
from repro.service.batching import Coalescer, Request, settle

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
            assert flushes["sum"] == 3  # requests carried by the coalescer

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
        holds it weakly, its coalescer not at all), so reference counting
        alone frees the artifact mapping and the cached adapted states.
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
            # it, then release: the flush's thread hands the backlog on as
            # one flush.
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
            while len(service._coalescer.queue) < len(tasks):
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


class _ThreadRecordingMethod(_CountingBatchMethod):
    """Also record the thread each flush's scoring runs on."""

    def __init__(self, method):
        super().__init__(method)
        self.flush_threads: list[int] = []

    def score_with_state_batch(self, states, instances):
        self.flush_threads.append(threading.get_ident())
        return super().score_with_state_batch(states, instances)


class TestInProcessFlatCombining:
    """With ``batching=True`` the callers run the flushes: no thread of the
    service's own, and no hand-off for a lone request."""

    def test_lone_request_flushes_on_the_callers_thread(self, fitted_melu):
        method = _ThreadRecordingMethod(fitted_melu)
        with RecommenderService(method, batching=True) as service:
            service.recommend(0, k=5)
            service.recommend(1, k=5)
        assert method.flush_threads == [threading.get_ident()] * 2

    def test_backlog_flushes_on_a_queued_callers_thread(self, fitted_melu):
        method = _ThreadRecordingMethod(fitted_melu)
        with RecommenderService(method, batching=True) as service:
            method.gate.clear()
            holder = _run_in_thread(service.recommend, 0, 5)
            assert method.scoring.wait(timeout=30.0)
            queued = [_run_in_thread(service.recommend, u, 5) for u in (1, 2, 3)]
            _wait_for(lambda: len(service._coalescer.queue) == 3, "burst never queued")
            method.gate.set()
            for _, future in [holder, *queued]:
                assert len(future.result(timeout=30.0)) == 5
        # The holder ran its own flush only; the backlog left as one flush,
        # run by one of the callers it carried.
        held, backlog = method.flush_threads
        assert held == holder[0].ident
        assert backlog in {thread.ident for thread, _ in queued}

    def test_batching_starts_no_thread(self, fitted_melu):
        before = set(threading.enumerate())
        service = RecommenderService(fitted_melu, batching=True)
        service.recommend(0, k=5)
        assert set(threading.enumerate()) <= before
        service.close()
        assert set(threading.enumerate()) <= before


def _run_in_thread(target, *args) -> tuple[threading.Thread, Future]:
    """Start ``target(*args)`` on a thread; the future gets its result."""
    future: Future = Future()

    def run() -> None:
        try:
            future.set_result(target(*args))
        except BaseException as exc:
            future.set_exception(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, future


def _wait_for(predicate, what: str, timeout: float = 30.0) -> None:
    give_up = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < give_up, what
        time.sleep(0.001)


class TestMicroBatcher:
    """Micro-batching by the flat-combining ``Coalescer``: a queue and an
    in-flight flag, no thread.

    ``admit``/``take``/``settle`` drive the flush protocol by hand (the
    sharded tier's use); ``call`` runs flushes on the callers' threads
    (the in-process tier's use).
    """

    @staticmethod
    def _echo_scorer(instances):
        return [np.asarray(i.candidates, dtype=float) for i in instances]

    @staticmethod
    def _flushes(metrics: MetricsRegistry) -> dict:
        """The coalescer's record: ``count`` flushes carrying ``sum``
        requests, the largest ``max``."""
        return metrics.snapshot()["histograms"]["serve.batch.size"]

    @staticmethod
    def _held(scorer):
        """``(flush, flushed, flushing, release)``: a flush that records its
        size, sets ``flushing`` and waits for ``release`` before scoring."""
        release = threading.Event()
        flushing = threading.Event()
        flushed: list[int] = []

        def held(instances):
            flushed.append(len(instances))
            flushing.set()
            assert release.wait(timeout=30.0)
            return scorer(instances)

        return held, flushed, flushing, release

    def test_coalesces_queued_requests(self):
        metrics = MetricsRegistry(enabled=True)
        coalescer = Coalescer(metrics=metrics)
        queued = [Request(EvalInstance(u, 0, np.array([1, 2])), Future()) for u in range(5)]
        with coalescer.lock:
            first = coalescer.admit(Request(EvalInstance(9, 0, np.array([1]))))
            assert [coalescer.admit(r) for r in queued] == [None] * 5
            batch = coalescer.take()  # the first flush ended
        settle(first, self._echo_scorer([r.item for r in first]))
        served = len(batch)
        settle(batch, self._echo_scorer([r.item for r in batch]))
        flushes = self._flushes(metrics)
        assert served == 5 and flushes["count"] == 2
        assert flushes["max"] == 5
        for request in queued:
            assert np.array_equal(request.future.result(), [0.0, 1.0, 2.0])

    def test_respects_max_batch(self):
        coalescer = Coalescer(max_batch=2)
        with coalescer.lock:
            assert coalescer.admit(Request(EvalInstance(9, 0, np.array([1]))))
            for u in range(5):
                coalescer.admit(Request(EvalInstance(u, 0, np.array([1]))))
            sizes = [len(coalescer.take()) for _ in range(3)]
            assert coalescer.take() is None and not coalescer.busy
        assert sizes == [2, 2, 1]

    def test_error_propagates_to_futures(self):
        def broken(instances):
            raise RuntimeError("model exploded")

        coalescer = Coalescer()
        with pytest.raises(RuntimeError, match="model exploded"):
            coalescer.call(broken, EvalInstance(0, 0, np.array([1])))
        # A failed flush fails every request it carried.
        batch = [Request(EvalInstance(u, 0, np.array([1])), Future()) for u in range(3)]
        settle(batch, RuntimeError("model exploded"))
        for request in batch:
            with pytest.raises(RuntimeError, match="model exploded"):
                request.future.result()
        assert not coalescer.busy  # the failed flush still ended

    def test_concurrent_callers_are_served(self):
        coalescer = Coalescer()
        runs = [
            _run_in_thread(
                coalescer.call, self._echo_scorer, EvalInstance(u, 0, np.array([1, 2]))
            )
            for u in range(8)
        ]
        results = [future.result(timeout=5.0) for _, future in runs]
        coalescer.close()
        assert len(results) == 8
        assert all(np.array_equal(r, [0.0, 1.0, 2.0]) for r in results)

    def test_close_flushes_partially_filled_batch(self):
        # close() with requests queued behind a flush in flight (3 of 64
        # slots filled) waits until every one is served, and drops none.
        held, _, flushing, release = self._held(self._echo_scorer)
        metrics = MetricsRegistry(enabled=True)
        coalescer = Coalescer(max_batch=64, metrics=metrics)
        runs = [_run_in_thread(coalescer.call, held, EvalInstance(0, 0, np.array([1, 2])))]
        assert flushing.wait(timeout=30.0)
        runs += [
            _run_in_thread(coalescer.call, held, EvalInstance(u, 0, np.array([1, 2])))
            for u in (1, 2)
        ]
        _wait_for(lambda: len(coalescer.queue) == 2, "requests never queued")
        closer, closed = _run_in_thread(coalescer.close)
        time.sleep(0.05)
        assert not closed.done()  # close waits for the flush in flight
        release.set()
        closed.result(timeout=5.0)
        for _, future in runs:
            np.testing.assert_array_equal(future.result(timeout=5.0), [0.0, 1.0, 2.0])
        assert self._flushes(metrics)["sum"] == 3
        with pytest.raises(RuntimeError, match="closed"):
            coalescer.call(self._echo_scorer, EvalInstance(9, 0, np.array([1])))

    def test_close_without_worker_drains_queue(self):
        metrics = MetricsRegistry(enabled=True)
        coalescer = Coalescer(metrics=metrics)
        batch = [Request(EvalInstance(u, 0, np.array([1, 2])), Future()) for u in range(3)]
        with coalescer.lock:
            first = coalescer.admit(batch[0])
            for request in batch[1:]:
                coalescer.admit(request)
        closer, closed = _run_in_thread(coalescer.close)
        for flush in (first, None):
            time.sleep(0.05)
            assert not closed.done()  # a flush is still in flight
            with coalescer.lock:
                if flush is None:
                    flush = coalescer.take()
            settle(flush, self._echo_scorer([r.item for r in flush]))
        with coalescer.lock:
            assert coalescer.take() is None  # the last flush ended
        closed.result(timeout=5.0)
        for request in batch:
            assert request.future.done()
            np.testing.assert_array_equal(request.future.result(), [0.0, 1.0, 2.0])
        flushes = self._flushes(metrics)
        assert flushes["count"] >= 1 and flushes["max"] <= 3

    def test_submit_after_close_rejected(self):
        coalescer = Coalescer()
        coalescer.close()
        with pytest.raises(RuntimeError):
            coalescer.call(self._echo_scorer, EvalInstance(0, 0, np.array([1])))
        with pytest.raises(RuntimeError), coalescer.lock:
            coalescer.admit(Request(EvalInstance(0, 0, np.array([1]))))

    def test_shutdown_with_raising_scorer_resolves_pending(self):
        # A flush callable that raises during shutdown must not deadlock
        # close(): every pending future resolves with the error instead of
        # waiting forever on a batch that can never succeed.
        def broken(instances):
            raise RuntimeError("artifact vanished")

        held, _, flushing, release = self._held(broken)
        coalescer = Coalescer(max_batch=64)
        runs = [_run_in_thread(coalescer.call, held, EvalInstance(0, 0, np.array([1, 2])))]
        assert flushing.wait(timeout=30.0)
        runs += [
            _run_in_thread(coalescer.call, held, EvalInstance(u, 0, np.array([1, 2])))
            for u in (1, 2)
        ]
        _wait_for(lambda: len(coalescer.queue) == 2, "requests never queued")
        closer, closed = _run_in_thread(coalescer.close)
        release.set()
        closed.result(timeout=5.0)  # returns promptly despite the raising scorer
        for _, future in runs:
            assert future.exception(timeout=5.0) is not None
            with pytest.raises(RuntimeError, match="artifact vanished"):
                future.result()

    @pytest.mark.parametrize("max_batch, sizes", [(64, [1, 5]), (2, [1, 2, 2, 1])])
    def test_coalesces_behind_a_busy_flush(self, max_batch, sizes):
        # Flush 1 is held in flight; the 5 requests submitted meanwhile
        # leave together once it returns, split only by max_batch.
        held, flushed, flushing, release = self._held(self._echo_scorer)
        metrics = MetricsRegistry(enabled=True)
        coalescer = Coalescer(max_batch=max_batch, metrics=metrics)
        runs = [_run_in_thread(coalescer.call, held, EvalInstance(0, 0, np.array([1])))]
        assert flushing.wait(timeout=30.0)
        runs += [
            _run_in_thread(coalescer.call, held, EvalInstance(u, 0, np.array([1])))
            for u in range(1, 6)
        ]
        _wait_for(lambda: len(coalescer.queue) == 5, "requests never queued")
        futures = [future for _, future in runs]
        release.set()
        for future in futures:
            np.testing.assert_array_equal(future.result(timeout=30.0), [0.0, 1.0])
        coalescer.close()
        assert flushed == sizes
        flushes = self._flushes(metrics)
        assert flushes["count"] == len(sizes)
        assert flushes["max"] == max(sizes)

    def test_stress_every_caller_gets_its_own_answer(self):
        """More callers than cores and a short switch interval: one flush at
        a time, every call returns its own item, each exactly once, in
        flushes of at most ``max_batch``, and the coalescer ends idle."""
        sizes: list[int] = []
        in_flight: list[int] = []

        def echo(items):
            in_flight.append(1)
            assert len(in_flight) == 1, "two flushes ran at once"
            sizes.append(len(items))
            in_flight.pop()
            return list(items)

        coalescer = Coalescer(max_batch=3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [
                _run_in_thread(
                    lambda t=t: [coalescer.call(echo, (t, i)) for i in range(100)]
                )
                for t in range(8)
            ]
            results = [future.result(timeout=60.0) for _, future in runs]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[(t, i) for i in range(100)] for t in range(8)]
        assert sum(sizes) == 800 and max(sizes) <= 3
        assert not coalescer.busy and not coalescer.queue

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
