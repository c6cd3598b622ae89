"""Sharded multi-worker serving: equivalence, zero-copy, supervision.

The load-bearing guarantee tested here: :class:`ShardedService` (N worker
processes, coalesced flushes, per-shard LRUs) answers **bit-identically**
to the single-process :class:`RecommenderService` serving the same request
stream sequentially.  That holds because (a) `adapt_corpus` chunks are cut
at support-width boundaries, so a user's fast weights don't depend on which
other users share a flush, and (b) the worker scores every request through
the same solo ``score_with_state`` path ``recommend`` uses.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.interface import Recommender
from repro.data.splits import Scenario
from repro.obs import set_default_enabled
from repro.registry import build_method
from repro.serve import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    ShardedService,
    run_open_loop,
    zipfian_users,
)
from repro.serve.loadgen import zipf_probabilities
from repro.service import RecommenderService
from repro.utils import blas


@pytest.fixture(scope="module")
def artifact(bench_experiment, tmp_path_factory):
    """A saved tiny-budget MetaDPA artifact and its cold-user task pool."""
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 2, "meta_epochs": 1},
        seed=0,
    )
    method.fit(bench_experiment.ctx)
    path = method.save(tmp_path_factory.mktemp("serve") / "metadpa.npz")
    tasks = {
        int(t.user_row): t for t in bench_experiment.task_sets[Scenario.C_U]
    }
    return str(path), tasks


def _mmap_backed(array: np.ndarray) -> bool:
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = getattr(array, "base", None)
    return False


class TestZeroCopyArtifacts:
    def test_mmap_load_materializes_nothing(self, artifact):
        path, _ = artifact
        method = Recommender.load(path, mmap_mode="r")
        assert all(_mmap_backed(v) for v in method.maml.params.values())
        serving = method.serving
        assert _mmap_backed(serving.user_content)
        assert _mmap_backed(serving.item_content)
        assert _mmap_backed(serving.seen)

    def test_packed_content_shares_mapped_blobs(self, artifact):
        # The artifact stores serving content float32 C-contiguous, exactly
        # what pack_content wants — the packed scoring path must reuse the
        # mapped blob by reference, not copy it.
        path, _ = artifact
        method = Recommender.load(path, mmap_mode="r")
        packed = method._packed_content()
        serving = method.serving
        assert packed.user.dtype == np.float32
        assert packed.user is serving.user_content or packed.user.base is serving.user_content
        assert packed.item is serving.item_content or packed.item.base is serving.item_content

    def test_mapped_params_are_read_only(self, artifact):
        path, _ = artifact
        method = Recommender.load(path, mmap_mode="r")
        name, value = next(iter(method.maml.params.items()))
        with pytest.raises(ValueError):
            value[...] = 0.0

    def test_service_from_artifact_maps_by_default(self, artifact):
        path, _ = artifact
        service = RecommenderService.from_artifact(path)
        assert all(
            _mmap_backed(v) for v in service.method.maml.params.values()
        )

    def test_eager_load_still_available(self, artifact):
        path, _ = artifact
        method = Recommender.load(path, mmap_mode=None)
        assert not any(_mmap_backed(v) for v in method.maml.params.values())


class TestShardedEquivalence:
    def test_bit_identical_to_single_process(self, artifact):
        """The acceptance bar: same artifact, same stream, same bits."""
        path, tasks = artifact
        users = sorted(tasks)[:10]
        stream = zipfian_users(users, 48, alpha=1.1, seed=5).tolist()

        reference = RecommenderService.from_artifact(path)
        for user in users:
            reference.register_user_history(tasks[user])
        expected = [reference.recommend(u, k=7) for u in stream]

        with ShardedService(path, n_workers=3, max_wait_ms=5.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            futures = [service.submit(u, k=7) for u in stream]
            results = [f.result(timeout=60.0) for f in futures]

        for want, got in zip(expected, results):
            assert got.user_row == want.user_row
            assert np.array_equal(want.items, got.items)
            assert np.array_equal(want.scores, got.scores)

    def test_recommend_many_round_trips_all_shards(self, artifact):
        path, tasks = artifact
        users = sorted(tasks)[:6]
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            results = service.recommend_many(users, k=5)
        assert [r.user_row for r in results] == users
        assert all(len(r) == 5 for r in results)

    def test_concurrent_producers_match_reference(self, artifact):
        """Many threads racing into the dispatcher still get exact answers."""
        path, tasks = artifact
        users = sorted(tasks)[:8]
        reference = RecommenderService.from_artifact(path)
        for user in users:
            reference.register_user_history(tasks[user])
        expected = {u: reference.recommend(u, k=5) for u in users}

        with ShardedService(path, n_workers=2, max_wait_ms=10.0) as service:
            for user in users:
                service.register_user_history(tasks[user])
            results: dict[int, object] = {}
            errors: list[Exception] = []

            def produce(user: int) -> None:
                try:
                    for _ in range(3):
                        results[user] = service.recommend(user, k=5)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [
                threading.Thread(target=produce, args=(u,)) for u in users
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        assert not errors
        for user in users:
            assert np.array_equal(results[user].items, expected[user].items)
            assert np.array_equal(results[user].scores, expected[user].scores)


class TestColdStartBatching:
    def test_one_adapt_call_per_flush(self, artifact):
        """A mixed cached/uncached burst costs exactly one adapt_users RPC."""
        path, tasks = artifact
        users = sorted(tasks)[:8]
        with ShardedService(path, n_workers=1, max_wait_ms=100.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            # Warm half the users (one flush), then burst hot+cold mixed.
            warm = service.recommend_many(users[:4], k=5)
            assert len(warm) == 4
            before = service.stats()["shards"][0]["metrics"]["counters"]
            futures = [service.submit(u, k=5) for u in users]
            for future in futures:
                future.result(timeout=60.0)
            after = service.stats()["shards"][0]["metrics"]
        counters = after["counters"]
        assert counters["serve.adapt.batches"] - before["serve.adapt.batches"] == 1
        # Only the cold half adapted.
        assert counters["serve.adapt.users"] - before["serve.adapt.users"] == 4
        assert after["gauges"]["serve.adapt.pending"] == 0

    def test_per_shard_caches_and_stats_propagate(self, artifact):
        path, tasks = artifact
        # Mixed parity so both shards own traffic under user % 2 routing.
        even = [u for u in sorted(tasks) if u % 2 == 0][:3]
        odd = [u for u in sorted(tasks) if u % 2 == 1][:3]
        users = even + odd
        assert even and odd
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            for user in users:
                service.register_user_history(tasks[user])
            service.recommend_many(users, k=5)
            service.recommend_many(users, k=5)  # second pass: cache hits
            stats = service.stats()
        assert stats["metrics"]["counters"]["serve.requests"] == 2 * len(users)
        assert len(stats["shards"]) == 2
        for entry in stats["shards"]:
            shard = entry["metrics"]
            assert entry["worker"]["pid"] > 0
            assert {"serve.cache.hits", "serve.adapt.users", "serve.requests"} <= set(
                shard["counters"]
            )
            # Each shard owns a disjoint user slice and cached it.
            assert shard["counters"]["serve.cache.hits"] >= 1
            assert shard["gauges"]["serve.adapt.pending"] == 0

    def test_invalidate_forces_readaptation(self, artifact):
        path, tasks = artifact
        user = sorted(tasks)[0]
        with ShardedService(path, n_workers=1, max_wait_ms=2.0) as service:
            service.register_user_history(tasks[user])
            service.recommend(user, k=5)
            before = service.stats()["shards"][0]["metrics"]["counters"]
            service.recommend(user, k=5)  # cached: no new adaptation
            service.invalidate_user(user)
            service.recommend(user, k=5)  # re-adapts
            after = service.stats()["shards"][0]["metrics"]["counters"]
        assert after["serve.adapt.users"] - before["serve.adapt.users"] == 1


class TestFrontEndValidation:
    @pytest.mark.parametrize(
        "resilience", [None, ResilienceConfig(fallback=False)], ids=["plain", "resilient"]
    )
    def test_bad_request_fails_at_its_call_not_its_flush(self, artifact, resilience):
        """One bad request must not fail its flush neighbours or open a breaker.

        Unchecked at the front-end, an out-of-range ``user_row`` rode a
        flush to the worker, whose ``recommend_batch`` rejected the whole
        flush: every valid read queued with it failed, and under
        ``ResilienceConfig(fallback=False)`` the shard's breaker opened.
        """
        path, tasks = artifact
        users = sorted(tasks)[:6]
        reference = RecommenderService.from_artifact(path)
        with ShardedService(path, n_workers=1, resilience=resilience) as service:
            assert service.wait_ready(timeout=60.0)
            assert (service.n_users, service.n_items) == reference.method.serving.seen.shape
            futures = [service.submit(u, k=5) for u in users[:3]]
            with pytest.raises(ValueError, match="out of range"):
                service.submit(service.n_users, k=5)
            with pytest.raises(ValueError, match="k must be positive"):
                service.submit(users[0], k=0)
            futures += [service.submit(u, k=5) for u in users[3:]]
            results = [f.result(timeout=60.0) for f in futures]
            stats = service.stats()
            breaker = service.health()["shards"][0]["breaker"]
        for user, got in zip(users, results):
            want = reference.recommend(user, k=5)
            assert not got.degraded
            assert np.array_equal(got.items, want.items)
            assert np.array_equal(got.scores, want.scores)
        counters = stats["metrics"]["counters"]
        assert counters["serve.requests"] == len(users)
        assert counters.get("serve.breaker.opened", 0) == 0
        assert counters.get("serve.responses.error", 0) == 0
        assert breaker == (None if resilience is None else "closed")

    def test_bad_event_fails_before_the_rpc(self, artifact):
        path, _ = artifact
        with ShardedService(path, n_workers=1) as service:
            with pytest.raises(ValueError, match="user_row"):
                service.observe(service.n_users, 0)
            with pytest.raises(ValueError, match="item_row"):
                service.observe_async(0, service.n_items)
            with pytest.raises(ValueError, match="rating"):
                service.observe(0, 0, float("nan"))
            service.observe(0, 0, 1.0)
            counters = service.stats()["shards"][0]["metrics"]["counters"]
        assert counters["serve.stream.events"] == 1

    def test_non_artifact_rejected_at_construction(self, tmp_path):
        from repro.nn.serialization import save_params

        path = save_params(tmp_path / "weights.npz", {"w": np.zeros(3)})
        with pytest.raises(ValueError, match="not a recommender artifact"):
            ShardedService(path, n_workers=1)


class TestSupervision:
    def test_dead_worker_restarts_with_cleared_cache(self, artifact):
        path, tasks = artifact
        user = sorted(tasks)[0]
        with ShardedService(
            path, n_workers=2, max_wait_ms=2.0, heartbeat_interval=0.05
        ) as service:
            assert service.wait_ready(timeout=60.0)
            service.register_user_history(tasks[user])
            first = service.recommend(user, k=5)
            shard = service._shards[service.shard_of(user)]
            pid_before = shard.proc.pid
            shard.proc.kill()
            deadline = time.monotonic() + 10.0
            while shard.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            second = service.recommend(user, k=5)
            stats = service.stats()
        assert stats["metrics"]["counters"]["serve.restarts"] >= 1
        owner = stats["shards"][service.shard_of(user)]
        assert owner["worker"]["pid"] != pid_before
        # The replacement starts with a cleared cache: its first answer for
        # the user re-adapted from scratch rather than reusing stale state.
        assert owner["metrics"]["gauges"]["serve.cache.size"] <= 1
        assert len(first) == len(second) == 5

    def test_restart_reproduces_bits_after_reregistration(self, artifact):
        path, tasks = artifact
        user = sorted(tasks)[0]
        with ShardedService(
            path, n_workers=1, max_wait_ms=2.0, heartbeat_interval=0.05
        ) as service:
            service.register_user_history(tasks[user])
            first = service.recommend(user, k=5)
            service._shards[0].proc.kill()
            deadline = time.monotonic() + 10.0
            while service._shards[0].restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            service.register_user_history(tasks[user])
            second = service.recommend(user, k=5)
        assert np.array_equal(first.items, second.items)
        assert np.array_equal(first.scores, second.scores)

    def test_mid_burst_kill_resubmits_inflight_requests(self, artifact):
        path, tasks = artifact
        users = sorted(tasks)
        with ShardedService(
            path, n_workers=2, max_wait_ms=2.0, heartbeat_interval=0.05
        ) as service:
            assert service.wait_ready(timeout=60.0)
            futures = [service.submit(u, k=5) for u in users * 3]
            service._shards[0].proc.kill()
            results = [f.result(timeout=60.0) for f in futures]
        assert len(results) == 3 * len(users)
        assert all(len(r) == 5 for r in results)

    def test_slow_respawn_restarts_exactly_once(self, artifact, monkeypatch):
        """The heartbeat must not blame a dead worker on its replacement.

        The pipe reader revives the killed worker while the heartbeat keeps
        polling.  With the respawn slowed down, the heartbeat ticks several
        times inside the revival; it must neither restart the healthy
        replacement nor count it as a startup failure.
        """
        spawn = ShardedService._spawn_worker

        def slow_respawn(self, shard):
            if shard.restarts:
                time.sleep(0.2)
            spawn(self, shard)

        monkeypatch.setattr(ShardedService, "_spawn_worker", slow_respawn)
        path, _ = artifact
        with ShardedService(path, n_workers=1, heartbeat_interval=0.05) as service:
            assert service.wait_ready(timeout=60.0)
            shard = service._shards[0]
            pid_before = shard.proc.pid
            shard.proc.kill()
            deadline = time.monotonic() + 10.0
            while shard.proc.pid == pid_before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.wait_ready(timeout=60.0)
            time.sleep(0.5)  # ten more heartbeats against the replacement
            restarts = shard.restarts
            startup_failures = service.metrics.counter("serve.startup_failures")
        assert restarts == 1
        assert startup_failures == 0

    def test_close_mid_burst_flushes_rather_than_drops(self, artifact):
        path, tasks = artifact
        users = sorted(tasks)[:8]
        service = ShardedService(path, n_workers=2, max_wait_ms=500.0)
        assert service.wait_ready(timeout=60.0)
        futures = [service.submit(u, k=5) for u in users]
        # Close immediately: the 500ms coalescing window has not elapsed,
        # so every future is still pending inside the batchers.
        service.close()
        for future in futures:
            result = future.result(timeout=5.0)
            assert len(result) == 5
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(users[0], k=5)

    def test_spawn_start_method_serves(self, artifact):
        path, _ = artifact
        reference = RecommenderService.from_artifact(path)
        with ShardedService(
            path, n_workers=1, start_method="spawn", max_wait_ms=2.0
        ) as service:
            assert service.wait_ready(timeout=120.0)
            got = service.recommend(3, k=5)
        want = reference.recommend(3, k=5)
        assert np.array_equal(want.items, got.items)
        assert np.array_equal(want.scores, got.scores)


class TestFlatCombiningFrontEnd:
    """No batcher thread: the submitting thread sends an idle shard's flush,
    the pipe reader sends the backlog and resolves every flush."""

    def test_backlog_is_sent_from_the_reader(self, artifact, monkeypatch):
        send_flush = ShardedService._send_flush
        senders: list[tuple[str, int]] = []

        def recording(self, shard, flush):
            if flush is not None:
                senders.append((threading.current_thread().name, len(flush)))
            send_flush(self, shard, flush)

        monkeypatch.setattr(ShardedService, "_send_flush", recording)
        path, tasks = artifact
        users = sorted(tasks)[:5]
        # The first flush stalls in the worker, so the other four queue.
        plan = FaultPlan(faults=(FaultSpec(kind="rpc_delay", seconds=0.5),))
        with ShardedService(path, n_workers=1, fault_plan=plan) as service:
            assert service.wait_ready(timeout=60.0)
            futures = [service.submit(u, k=5) for u in users]
            for future in futures:
                assert len(future.result(timeout=60.0)) == 5
            reader = f"{service._thread_prefix}reader-0"
        assert senders == [(threading.current_thread().name, 1), (reader, 4)]

    def test_reader_never_wedges_under_a_write_flood(self, artifact):
        """A flood of writes keeps the pipe to the worker full, so writers
        block in their sends while holding the shard lock, and reads with
        explicit tasks queue behind flushes the reader must send.  The
        reader keeps reading, and every future resolves.  5000 writes are
        enough to fill the pipe both ways, which wedges a reader that stops
        reading while it waits for that lock."""
        path, tasks = artifact
        users = sorted(tasks)[:8]
        rng = np.random.default_rng(0)
        with ShardedService(path, n_workers=1) as service:
            assert service.wait_ready(timeout=60.0)
            futures = []
            for i in range(5000):
                user = users[i % len(users)]
                item = int(rng.integers(service.n_items))
                futures.append(service.observe_async(user, item, 1.0))
                if i % 10 == 0:
                    futures.append(service.submit(user, k=5, task=tasks[user]))
            for future in futures:
                future.result(timeout=60.0)

    def test_health_counts_the_front_end_threads(self, artifact):
        path, _ = artifact
        with ShardedService(path, n_workers=2) as service:
            assert service.wait_ready(timeout=60.0)
            service.recommend_many([0, 1, 2, 3], k=5)
            # A pipe reader per shard and the supervisor; no batcher threads.
            assert service.health()["threads"] == 3


class TestMetricsMerging:
    """The front-end's merged observability snapshot survives restarts."""

    def test_merged_snapshot_has_serving_histograms(self, artifact):
        path, tasks = artifact
        users = sorted(tasks)[:8]
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            # Warm pass (drained) so the Zipfian stream's hot head hits
            # the per-shard LRUs instead of coalescing into one all-miss
            # batch per shard.
            for future in [service.submit(u, k=5) for u in users]:
                future.result(timeout=60.0)
            stream = zipfian_users(users, 32, alpha=1.1, seed=7)
            futures = [service.submit(int(u), k=5) for u in stream]
            for future in futures:
                future.result(timeout=60.0)
            stats = service.stats()
        total = len(users) + 32
        # The worker cores counted each request once, on its shard.
        snap = stats["metrics"]
        assert snap["counters"]["serve.requests"] == total
        assert len(stats["shards"]) == 2
        hists = snap["histograms"]
        assert {
            "serve.queue_wait.seconds",
            "serve.adapt.seconds",
            "serve.score.seconds",
            "serve.rpc.seconds",
            "serve.request.seconds",
        } <= set(hists)
        assert hists["serve.queue_wait.seconds"]["count"] == total
        assert hists["serve.request.seconds"]["count"] == total
        # Worker-side cache traffic shows up in the merged counters too.
        counters = snap["counters"]
        assert counters.get("serve.cache.hits", 0) >= 1
        assert counters.get("serve.cache.misses", 0) >= 1

    def test_runtime_gauges_report_each_process(self, artifact):
        """Every serving process reports its BLAS threads and scoring lanes:
        each shard's entry holds its own worker's values, and the merged
        snapshot sums them over shards."""
        path, _ = artifact
        local = RecommenderService.from_artifact(path).stats()["metrics"]["gauges"]
        names = ("runtime.blas_threads", "runtime.score_lanes")
        assert local[names[0]] == blas.blas_threads()
        assert local[names[1]] == blas.score_lanes()
        with ShardedService(path, n_workers=2) as service:
            assert service.wait_ready(timeout=60.0)
            stats = service.stats()
        shards = [shard["metrics"]["gauges"] for shard in stats["shards"]]
        merged = stats["metrics"]["gauges"]
        for name in names:
            # Forked workers inherit this process's BLAS configuration.
            assert [gauges[name] for gauges in shards] == [local[name]] * 2
            assert merged[name] == 2 * local[name]

    def test_counters_tally_with_the_registry_disabled(self, artifact):
        """With observability off (``REPRO_OBS=0``) both tiers' ``stats()``
        snapshots still tally requests, cache hits, adapted users and stream
        events: only histograms and spans switch off."""
        path, tasks = artifact
        users = sorted(tasks)[:4]
        set_default_enabled(False)
        try:
            local = RecommenderService.from_artifact(path)
            sharded = ShardedService(path, n_workers=2)  # forked workers inherit it
        finally:
            set_default_enabled(None)
        snapshots = []
        with sharded:
            assert sharded.wait_ready(timeout=60.0)
            for service in (local, sharded):
                assert not service.metrics.enabled
                for user in users:
                    service.register_user_history(tasks[user])
                service.recommend_many(users, k=5)
                service.recommend_many(users, k=5)  # second pass: cache hits
                service.observe(users[0], 0, 1.0)
                snapshots.append(service.stats()["metrics"])
        for snap in snapshots:
            counters, gauges = snap["counters"], snap["gauges"]
            assert snap["histograms"] == {}
            assert counters["serve.requests"] == 2 * len(users)
            assert counters["serve.cache.hits"] == len(users)
            assert counters["serve.adapt.users"] == len(users)
            assert counters["serve.stream.events"] == 1
            # The observed user's adaptation was dropped from the cache.
            assert gauges["serve.cache.size"] == len(users) - 1
            assert gauges["serve.stream.observed_users"] == 1
            assert gauges["serve.adapt.pending"] == 0

    def test_worker_restart_preserves_counter_totals(self, artifact):
        """Regression: killing a worker must not zero its merged counters.

        The front-end folds the dead worker's last-known snapshot into the
        shard's retired totals at revive time, so cumulative counters
        (requests served, cache hits/misses) only ever grow across a
        restart even though the replacement starts from zero.
        """
        path, tasks = artifact
        users = sorted(tasks)[:6]
        with ShardedService(
            path, n_workers=2, max_wait_ms=2.0, heartbeat_interval=0.05
        ) as service:
            assert service.wait_ready(timeout=60.0)
            for user in users:
                service.register_user_history(tasks[user])
            service.recommend_many(users, k=5)
            service.recommend_many(users, k=5)  # second pass: cache hits
            # This stats() round-trip stashes each worker's snapshot as the
            # shard's last-known metrics — what the fold preserves.
            before = service.stats()["metrics"]["counters"]
            assert before.get("serve.cache.hits", 0) >= len(users)

            victim = service._shards[0]
            victim.proc.kill()
            deadline = time.monotonic() + 10.0
            while victim.restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert victim.restarts >= 1
            # The replacement serves fresh traffic on a cleared cache.
            service.recommend_many(users, k=5)
            after = service.stats()["metrics"]["counters"]

        for key in ("serve.cache.hits", "serve.cache.misses"):
            assert after.get(key, 0) >= before.get(key, 0), key
        assert after.get("serve.restarts", 0) >= 1
        # The new worker's traffic accumulates on top of the retired totals.
        assert after.get("serve.cache.misses", 0) > before.get(
            "serve.cache.misses", 0
        )

    def test_cli_serve_writes_merged_metrics_json(self, artifact, tmp_path):
        """`repro serve --workers 2 --metrics-json` — the acceptance path."""
        import json as json_module

        from repro.experiments.cli import main as cli_main

        path, _ = artifact
        out = tmp_path / "metrics.json"
        code = cli_main(
            [
                "serve",
                "--artifact",
                path,
                "--requests",
                "24",
                "--distinct-users",
                "6",
                "--workers",
                "2",
                "--zipf-alpha",
                "1.1",
                "--metrics-json",
                str(out),
                "--metrics-interval",
                "0.2",
            ]
        )
        assert code == 0
        payload = json_module.loads(out.read_text())
        # The dump is stats(): the merged snapshot plus each shard's own.
        counters = payload["metrics"]["counters"]
        assert counters["serve.requests"] == 24
        assert len(payload["shards"]) == 2
        assert counters.get("serve.restarts", 0) == 0
        for entry in payload["shards"]:
            assert entry["worker"]["pid"] > 0
            assert {"serve.cache.hits", "serve.cache.misses"} <= set(
                entry["metrics"]["counters"]
            )
        assert counters["serve.adapt.users"] == sum(
            entry["metrics"]["counters"].get("serve.adapt.users", 0)
            for entry in payload["shards"]
        )
        hists = payload["metrics"]["histograms"]
        assert {
            "serve.queue_wait.seconds",
            "serve.adapt.seconds",
            "serve.score.seconds",
        } <= set(hists)
        assert hists["serve.queue_wait.seconds"]["count"] == 24


class TestLoadGenerator:
    def test_zipf_probabilities_normalized_and_skewed(self):
        p = zipf_probabilities(100, alpha=1.1)
        assert p.shape == (100,)
        assert np.isclose(p.sum(), 1.0)
        assert np.all(np.diff(p) < 0)  # strictly hotter head

    def test_zipfian_users_deterministic_and_bounded(self):
        pool = [7, 11, 13, 17]
        a = zipfian_users(pool, 200, alpha=1.2, seed=3)
        b = zipfian_users(pool, 200, alpha=1.2, seed=3)
        assert np.array_equal(a, b)
        assert set(a) <= set(pool)
        # Rank-0 user dominates under heavy skew.
        assert (a == 7).sum() > (a == 17).sum()

    def test_run_open_loop_reports_latency_and_qps(self):
        from concurrent.futures import Future

        def instant_submit(user: int) -> Future:
            future: Future = Future()
            future.set_result(user)
            return future

        report = run_open_loop(instant_submit, [1, 2, 3, 4], rate=1000.0)
        assert report.n_requests == 4
        assert report.qps > 0
        assert report.percentile(99) >= report.percentile(50) >= 0.0
        payload = report.to_dict()
        assert {"qps", "p50_ms", "p99_ms", "elapsed_s"} <= set(payload)

    def test_open_loop_against_sharded_service(self, artifact):
        path, tasks = artifact
        users = sorted(tasks)[:8]
        with ShardedService(path, n_workers=2, max_wait_ms=2.0) as service:
            assert service.wait_ready(timeout=60.0)
            stream = zipfian_users(users, 30, alpha=1.1, seed=2)
            report = run_open_loop(service.submit, stream, rate=500.0)
        assert report.n_requests == 30
        assert np.isfinite(report.latencies).all()
        assert report.percentile(50) > 0
