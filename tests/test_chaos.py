"""Chaos suite: seeded fault plans against the live sharded service.

Every scenario arms a deterministic :class:`FaultPlan` inside real worker
processes and asserts the resilient front-end's contract: requests keep
resolving (possibly ``degraded=True``) within their deadlines, and the
outcome counters in ``stats()["metrics"]`` reconcile exactly with the
per-future tallies the test observes.

A cheap Popularity artifact keeps worker startup fast — the resilience
machinery under test is method-agnostic.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.baselines.popularity import Popularity
from repro.serve import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    ShardedService,
)
from repro.service import RecommenderService


@pytest.fixture(scope="module")
def artifact(bench_experiment, tmp_path_factory):
    """A saved Popularity artifact: instant worker loads, real RPC plumbing."""
    method = Popularity().fit(bench_experiment.ctx)
    path = method.save(tmp_path_factory.mktemp("chaos") / "popularity.npz")
    return str(path)


def _counters(service: ShardedService) -> dict:
    return service.stats()["metrics"].get("counters", {})


def _outcomes(counters: dict) -> int:
    """Requests the front-end accounted: ``ok + degraded + error``."""
    return sum(
        counters.get(f"serve.responses.{kind}", 0)
        for kind in ("ok", "degraded", "error")
    )


def _settled_counters(service: ShardedService, n_requests: int) -> dict:
    """Counters once every response has been tallied.

    The front-end counts a request's outcome before it resolves the future,
    so once every future has resolved this returns at once; the poll bounds
    the wait for requests still in flight.  Each request's outcome total is
    its last counter write, so its reason counters are final by then.
    """
    deadline = time.monotonic() + 5.0
    while True:
        counters = _counters(service)
        if _outcomes(counters) >= n_requests or time.monotonic() >= deadline:
            return counters
        time.sleep(0.01)


def _tally(results) -> tuple[int, int]:
    """(full-quality, degraded) response counts."""
    ok = sum(1 for r in results if not r.degraded)
    return ok, len(results) - ok


class TestResilientEquivalence:
    def test_no_fault_no_degradation_matches_plain_serving(self, artifact):
        """Arming resilience without faults must not change a single bit."""
        users = list(range(12)) * 2
        reference = RecommenderService.from_artifact(artifact)
        expected = [reference.recommend(u, k=6) for u in users]

        cfg = ResilienceConfig(deadline=30.0, retry_limit=1, max_pending=64)
        with ShardedService(artifact, n_workers=3, resilience=cfg) as service:
            assert service.wait_ready(timeout=30.0)
            futures = [service.submit(u, k=6) for u in users]
            results = [f.result(timeout=30.0) for f in futures]

        for want, got in zip(expected, results):
            assert not got.degraded
            assert np.array_equal(want.items, got.items)
            assert np.array_equal(want.scores, got.scores)
        # Invariant the whole suite leans on: only the winning resolver
        # counts, so responses reconcile exactly with what callers saw.
        # (service is closed; counters were merged on the way out)

    def test_deadline_requires_resilience(self, artifact):
        with ShardedService(artifact, n_workers=1) as service:
            assert service.wait_ready(timeout=30.0)
            with pytest.raises(ValueError, match="resilience config"):
                service.submit(0, deadline=time.time() + 1.0)


class TestWorkerKillMidBurst:
    def test_availability_through_a_crash(self, artifact):
        """The acceptance scenario: kill one worker mid-burst, >=99% answered."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", shard=0, at=3, incarnation=0),),
            seed=7,
        )
        cfg = ResilienceConfig(
            deadline=20.0, retry_limit=2, failure_threshold=100, fallback=True
        )
        users = [u % 20 for u in range(60)]
        with ShardedService(
            artifact,
            n_workers=2,
            max_batch=2,
            max_wait_ms=1.0,
            heartbeat_interval=0.1,
            resilience=cfg,
            fault_plan=plan,
        ) as service:
            assert service.wait_ready(timeout=30.0)
            futures = [service.submit(u, k=5) for u in users]
            results = [f.result(timeout=30.0) for f in futures]

            # Availability: every offered request got an answer in time.
            assert len(results) == len(users)
            answered = sum(1 for r in results if len(r) == 5)
            assert answered / len(users) >= 0.99

            ok, degraded = _tally(results)
            counters = _settled_counters(service, len(users))
            # Front-end accepted count: one outcome per request (the merged
            # "serve.requests" is the workers' per-attempt tally, which
            # counts requests resubmitted after the crash again).
            assert _outcomes(counters) == len(users)
            assert counters.get("serve.responses.ok", 0) == ok
            assert counters.get("serve.responses.degraded", 0) == degraded
            assert counters.get("serve.responses.error", 0) == 0
            # The injected crash really happened and was survived.
            assert counters["serve.restarts"] >= 1
            assert ok > 0  # the surviving shard + replacement kept answering

    def test_crash_replays_identically(self, artifact):
        """Same plan, same stream, same restart count — seeded chaos."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="crash", shard=0, at=2, incarnation=0),),
            seed=3,
        )
        cfg = ResilienceConfig(deadline=20.0, retry_limit=2, failure_threshold=100)

        def run():
            with ShardedService(
                artifact,
                n_workers=2,
                max_batch=2,
                max_wait_ms=1.0,
                heartbeat_interval=0.1,
                resilience=cfg,
                fault_plan=plan,
            ) as service:
                assert service.wait_ready(timeout=30.0)
                futures = [service.submit(u, k=4) for u in range(16)]
                results = [f.result(timeout=30.0) for f in futures]
                restarts = _counters(service).get("serve.restarts", 0)
                return [tuple(r.items.tolist()) for r in results], restarts

        items_a, restarts_a = run()
        items_b, restarts_b = run()
        assert restarts_a == restarts_b == 1
        assert items_a == items_b


class TestAdaptationFailure:
    def test_persistent_failure_opens_the_breaker_and_degrades(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_error", shard=0, count=0),), seed=1
        )
        cfg = ResilienceConfig(
            deadline=20.0,
            retry_limit=0,
            failure_threshold=3,
            reset_timeout=60.0,
            fallback=True,
        )
        with ShardedService(
            artifact,
            n_workers=2,
            max_wait_ms=1.0,
            resilience=cfg,
            fault_plan=plan,
        ) as service:
            assert service.wait_ready(timeout=30.0)
            # Sequential distinct users on shard 0: every request is a cache
            # miss, every flush adapts, every adaptation raises.
            shard0 = [service.submit(u, k=5).result(30.0) for u in (0, 2, 4, 6, 8)]
            shard1 = service.submit(1, k=5).result(30.0)

            assert all(r.degraded for r in shard0)
            assert all(len(r) == 5 for r in shard0)  # fallback still answers
            assert not shard1.degraded

            counters = _settled_counters(service, 6)
            # 3 RPC failures open the breaker; the last 2 are rejected at
            # admission and never reach the worker.
            assert counters.get("serve.breaker.opened", 0) == 1
            assert counters.get("serve.degraded.failure", 0) == 3
            assert counters.get("serve.degraded.breaker", 0) == 2
            assert counters.get("serve.breaker.rejected", 0) == 2
            assert counters.get("serve.responses.degraded", 0) == 5
            assert counters.get("serve.responses.ok", 0) == 1
            # The worker's own registry reports what was injected.
            assert counters.get("serve.faults.adapt_error", 0) == 3
            assert counters.get("serve.faults.injected", 0) == 3

            health = service.health()
            assert health["status"] == "degraded"
            assert health["fallback"] is True
            by_shard = {entry["shard"]: entry for entry in health["shards"]}
            assert by_shard[0]["breaker"] == "open"
            assert by_shard[1]["breaker"] == "closed"

    def test_fallback_disabled_surfaces_typed_errors(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_error", shard=0, count=0),), seed=1
        )
        cfg = ResilienceConfig(
            deadline=20.0, retry_limit=0, failure_threshold=100, fallback=False
        )
        with ShardedService(
            artifact, n_workers=1, max_wait_ms=1.0, resilience=cfg, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            future = service.submit(0, k=5)
            with pytest.raises(RuntimeError, match="InjectedFault"):
                future.result(timeout=30.0)
            counters = _settled_counters(service, 1)
            assert counters.get("serve.responses.error", 0) == 1
            assert counters.get("serve.failed.failure", 0) == 1


class TestDeadlines:
    def test_slow_adaptation_degrades_within_the_deadline(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_delay", seconds=2.0, count=0),), seed=2
        )
        cfg = ResilienceConfig(
            deadline=0.4, retry_limit=0, failure_threshold=100, fallback=True
        )
        with ShardedService(
            artifact,
            n_workers=1,
            max_batch=8,
            max_wait_ms=1.0,
            resilience=cfg,
            fault_plan=plan,
        ) as service:
            assert service.wait_ready(timeout=30.0)
            t0 = time.monotonic()
            futures = [service.submit(u, k=5) for u in (0, 1)]
            results = [f.result(timeout=30.0) for f in futures]
            elapsed = time.monotonic() - t0

            # Answers arrived near the 0.4s budget, not the 2s worker stall.
            assert elapsed < 1.8
            assert all(r.degraded for r in results)
            assert all(len(r) == 5 for r in results)
            counters = _settled_counters(service, 2)
            assert counters.get("serve.responses.degraded", 0) == 2
            assert counters.get("serve.degraded.deadline", 0) == 2
            assert counters.get("serve.deadline_exceeded", 0) == 2

    def test_deadline_pressure_does_not_open_the_breaker(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_delay", seconds=1.0, count=0),), seed=2
        )
        cfg = ResilienceConfig(
            deadline=0.3, retry_limit=0, failure_threshold=1, fallback=True
        )
        with ShardedService(
            artifact, n_workers=1, max_wait_ms=1.0, resilience=cfg, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            result = service.submit(0, k=5).result(timeout=30.0)
            assert result.degraded
            # Let the stalled RPC round-trip: it must count as a breaker
            # *success* (the worker answered; the deadline was ours).
            time.sleep(1.5)
            assert service.health()["shards"][0]["breaker"] == "closed"
            assert _counters(service).get("serve.breaker.opened", 0) == 0


class TestOutcomeCountedBeforeResolve:
    """Whatever the caller's future wakes already sees its outcome counted.

    An injected stall holds the worker's adaptation, so each test attaches
    its done-callback while the future is still pending: the callback runs
    inside the resolving call, right where the front-end resolves it.
    """

    @staticmethod
    def _count_at_resolve(service, future, kind: str) -> tuple[list, threading.Event]:
        """The counter a done-callback reads, and an event set once it ran.

        Callbacks run in the resolving thread after the future's waiters
        are woken, so a test waits for the event before reading ``seen``.
        """
        assert not future.done()
        seen: list = []
        ran = threading.Event()

        def record(_future) -> None:
            seen.append(service.metrics.counter(f"serve.responses.{kind}"))
            ran.set()

        future.add_done_callback(record)
        return seen, ran

    def test_answer_is_counted_when_its_future_resolves(self, artifact):
        plan = FaultPlan(faults=(FaultSpec(kind="adapt_delay", seconds=0.5),), seed=3)
        with ShardedService(artifact, n_workers=1, fault_plan=plan) as service:
            assert service.wait_ready(timeout=30.0)
            future = service.submit(0, k=5)
            seen, ran = self._count_at_resolve(service, future, "ok")
            assert len(future.result(timeout=30.0)) == 5
            assert ran.wait(timeout=30.0)
            assert seen == [1]

    @pytest.mark.parametrize("fallback", [True, False], ids=["degraded", "failed"])
    def test_deadline_outcome_is_counted_when_its_future_resolves(
        self, artifact, fallback
    ):
        plan = FaultPlan(faults=(FaultSpec(kind="adapt_delay", seconds=1.0),), seed=3)
        cfg = ResilienceConfig(
            deadline=0.3, retry_limit=0, failure_threshold=100, fallback=fallback
        )
        with ShardedService(
            artifact, n_workers=1, resilience=cfg, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            future = service.submit(0, k=5)
            seen, ran = self._count_at_resolve(
                service, future, "degraded" if fallback else "error"
            )
            future.exception(timeout=30.0)
            assert ran.wait(timeout=30.0)
            assert seen == [1]


class TestFlushTimeout:
    def test_a_stalled_flush_fails_at_the_request_timeout(self, artifact):
        """No thread waits on a flush: the supervisor fails one older than
        ``request_timeout``, drops its late reply, and the shard serves on."""
        plan = FaultPlan(
            faults=(FaultSpec(kind="rpc_delay", shard=0, seconds=3.0),), seed=6
        )
        with ShardedService(
            artifact, n_workers=2, request_timeout=0.5, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            t0 = time.monotonic()
            stalled = service.submit(0, k=5)
            error = stalled.exception(timeout=30.0)
            assert time.monotonic() - t0 < 2.0
            assert isinstance(error, TimeoutError)
            # Past the stall the worker answers the expired flush (ignored)
            # and then the next request.
            time.sleep(max(0.0, t0 + 3.2 - time.monotonic()))
            assert len(service.submit(0, k=5).result(timeout=30.0)) == 5
            counters = _settled_counters(service, 2)
        assert counters.get("serve.responses.error", 0) == 1
        assert counters.get("serve.responses.ok", 0) == 1


class TestAdmissionControl:
    def test_overflow_is_shed_to_the_fallback(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="rpc_delay", seconds=0.4, count=0),), seed=4
        )
        cfg = ResilienceConfig(
            max_pending=1, retry_limit=0, failure_threshold=100, fallback=True
        )
        with ShardedService(
            artifact,
            n_workers=1,
            max_batch=1,
            max_wait_ms=0.5,
            resilience=cfg,
            fault_plan=plan,
        ) as service:
            assert service.wait_ready(timeout=30.0)
            futures = [service.submit(u, k=5) for u in range(6)]
            results = [f.result(timeout=30.0) for f in futures]

            ok, degraded = _tally(results)
            assert ok == 1 and degraded == 5
            counters = _settled_counters(service, 6)
            assert counters.get("serve.shed", 0) == 5
            assert counters.get("serve.degraded.shed", 0) == 5
            assert counters.get("serve.responses.ok", 0) == 1
            assert counters.get("serve.responses.degraded", 0) == 5


class TestStartupFailure:
    def test_wait_ready_fails_fast_on_load_crash_loop(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="load_error", shard=0, count=0),), seed=5
        )
        service = ShardedService(
            artifact, n_workers=2, heartbeat_interval=0.1, fault_plan=plan
        )
        try:
            t0 = time.monotonic()
            with pytest.raises(RuntimeError, match="failed to start"):
                service.wait_ready(timeout=30.0)
            # Fail-fast, not a 30s hang: two load attempts at most.
            assert time.monotonic() - t0 < 20.0
            # wait_ready raises as soon as shard 0 is marked failed, while
            # shard 1 may still be loading: let it report ready (bounded)
            # before the status is read.
            give_up = time.monotonic() + 30.0
            while time.monotonic() < give_up and not any(
                entry["shard"] == 1 and entry["ready"]
                for entry in service.health()["shards"]
            ):
                time.sleep(0.02)
            health = service.health()
            assert health["status"] == "degraded"  # shard 1 still serves
            by_shard = {entry["shard"]: entry for entry in health["shards"]}
            assert "InjectedFault" in by_shard[0]["failed"]
            assert by_shard[1]["failed"] is None
            counters = service.metrics.snapshot().get("counters", {})
            assert counters.get("serve.startup_failures", 0) >= 2
        finally:
            service.close()

    def test_failed_shard_requests_degrade_not_hang(self, artifact):
        plan = FaultPlan(
            faults=(FaultSpec(kind="load_error", shard=0, count=0),), seed=5
        )
        cfg = ResilienceConfig(deadline=20.0, fallback=True, failure_threshold=100)
        service = ShardedService(
            artifact,
            n_workers=2,
            heartbeat_interval=0.1,
            resilience=cfg,
            fault_plan=plan,
        )
        try:
            with pytest.raises(RuntimeError, match="failed to start"):
                service.wait_ready(timeout=30.0)
            # Shard 0 is permanently down; its users still get answers.
            dead = service.submit(0, k=5).result(timeout=30.0)
            live = service.submit(1, k=5).result(timeout=30.0)
            assert dead.degraded and len(dead) == 5
            assert not live.degraded
            counters = _settled_counters(service, 2)
            assert counters.get("serve.degraded.failure", 0) == 1
        finally:
            service.close()


class TestAccounting:
    """Each counter has one writer: the worker cores count
    ``serve.requests``, the front-end one ``serve.responses.*`` outcome per
    request, so every request is counted once."""

    @pytest.mark.parametrize(
        "resilience",
        [None, ResilienceConfig(fallback=False, failure_threshold=100)],
        ids=["unarmed", "armed"],
    )
    def test_every_request_is_counted_once(self, artifact, resilience):
        # Shard 0 fails every adaptation, so the even users get errors.
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_error", shard=0, count=0),), seed=1
        )
        users = list(range(8))
        with ShardedService(
            artifact, n_workers=2, resilience=resilience, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            futures = [service.submit(u, k=5) for u in users]
            failed = [f.exception(timeout=30.0) is not None for f in futures]
            counters = _settled_counters(service, len(users))
        assert failed == [u % 2 == 0 for u in users]
        assert counters["serve.requests"] == len(users)
        assert _outcomes(counters) == len(users)
        assert counters.get("serve.responses.ok", 0) == len(users) - sum(failed)
        assert counters.get("serve.responses.error", 0) == sum(failed)
        assert counters.get("serve.failed.failure", 0) == sum(failed)

    @pytest.mark.parametrize("fallback", [True, False], ids=["degraded", "failed"])
    def test_outcome_total_is_the_last_counter_write(
        self, artifact, fallback, monkeypatch
    ):
        """A poller that sees a request accounted sees its reason counters.

        ``_settled_counters`` waits for the ``serve.responses.*`` total.
        The front-end used to write that total first and the reason
        counters after it, so the poll could return between the writes and
        read e.g. ``serve.degraded.deadline`` as 0.
        """
        plan = FaultPlan(faults=(FaultSpec(kind="adapt_error", count=0),), seed=1)
        cfg = ResilienceConfig(
            retry_limit=0, failure_threshold=1, reset_timeout=60.0, fallback=fallback
        )
        outcome, tally = ("degraded", "degraded") if fallback else ("error", "failed")
        with ShardedService(
            artifact, n_workers=1, resilience=cfg, fault_plan=plan
        ) as service:
            assert service.wait_ready(timeout=30.0)
            # One failed adaptation opens the breaker.
            service.submit(0, k=5).exception(timeout=30.0)
            _settled_counters(service, 1)
            assert service.health()["shards"][0]["breaker"] == "open"
            writes: list[str] = []
            inc = service.metrics.inc

            def recording_inc(name: str, value: float = 1) -> None:
                writes.append(name)
                inc(name, value)

            monkeypatch.setattr(service.metrics, "inc", recording_inc)
            # The open breaker rejects at admission: the request settles,
            # and writes its counters, inside submit.
            assert service.submit(2, k=5).done()
        assert writes == [
            f"serve.{tally}.breaker",
            "serve.breaker.rejected",
            f"serve.responses.{outcome}",
        ]
