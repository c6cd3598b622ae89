"""Unit tests for the resilience primitives: fault plans, breakers, fallback.

Everything here is in-process and fast — the injector's trigger logic, the
breaker state machine (driven by a fake clock), the popularity fallback's
scoring, and the deadline plumbing through ``recommend_batch``.  The
cross-process chaos scenarios live in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.popularity import Popularity
from repro.core.interface import FitContext
from repro.serve.faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PopularityFallback,
    ResilienceConfig,
)
from repro.service.service import DeadlineSkipped, ServeRequest


class TestFaultSpec:
    def test_round_trips_through_dict(self):
        spec = FaultSpec(
            kind="rpc_delay", shard=1, at=3, count=2, seconds=0.5, incarnation=0
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_kind_and_keys(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError, match="unknown FaultSpec keys"):
            FaultSpec.from_dict({"kind": "crash", "blast_radius": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "crash", "at": 0},
            {"kind": "crash", "count": -1},
            {"kind": "rpc_delay", "seconds": -0.1},
            {"kind": "crash", "probability": 1.5},
            {"kind": "crash", "incarnation": -1},
        ],
    )
    def test_validates_fields(self, bad):
        with pytest.raises(ValueError):
            FaultSpec(**bad)

    def test_every_kind_maps_to_an_event(self):
        for kind in FAULT_KINDS:
            assert FaultSpec(kind=kind).event in ("rpc", "adapt", "load")


class TestFaultPlan:
    def test_json_round_trip_coerces_plain_dicts(self):
        plan = FaultPlan.from_dict(
            {
                "seed": 11,
                "faults": [
                    {"kind": "crash", "shard": 0, "at": 5},
                    {"kind": "adapt_delay", "seconds": 0.2, "count": 0},
                ],
            }
        )
        assert plan.seed == 11
        assert all(isinstance(f, FaultSpec) for f in plan.faults)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(FaultSpec(kind="crash"),))

    def test_injector_filters_by_shard_and_incarnation(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="crash", shard=0, incarnation=0),
                FaultSpec(kind="adapt_error", shard=1),
            )
        )
        assert plan.injector(0) is not None
        assert plan.injector(0, incarnation=1) is None  # crash was once-only
        assert plan.injector(1, incarnation=7) is not None  # any incarnation
        assert plan.injector(2) is None

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE not in (0, 1)


class _FakeConn:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class TestFaultInjector:
    def test_at_and_count_window(self):
        plan = FaultPlan(
            faults=(FaultSpec(kind="adapt_error", at=2, count=2),)
        )
        injector = plan.injector(0)
        injector.on_adapt()  # event 1: before the window
        with pytest.raises(InjectedFault):
            injector.on_adapt()  # event 2: fires
        with pytest.raises(InjectedFault):
            injector.on_adapt()  # event 3: fires (count=2)
        injector.on_adapt()  # event 4: window exhausted
        assert injector.injected == {"adapt_error": 2}

    def test_count_zero_fires_forever(self):
        plan = FaultPlan(faults=(FaultSpec(kind="adapt_error", count=0),))
        injector = plan.injector(0)
        for _ in range(5):
            with pytest.raises(InjectedFault):
                injector.on_adapt()
        assert injector.injected["adapt_error"] == 5

    def test_pipe_drop_closes_the_connection(self):
        plan = FaultPlan(faults=(FaultSpec(kind="pipe_drop", at=2),))
        injector = plan.injector(0)
        conn = _FakeConn()
        injector.on_rpc(conn)
        assert not conn.closed
        injector.on_rpc(conn)
        assert conn.closed

    def test_load_error_raises(self):
        plan = FaultPlan(faults=(FaultSpec(kind="load_error"),))
        with pytest.raises(InjectedFault):
            plan.injector(0).on_load()

    def test_probabilistic_faults_replay_identically(self):
        spec = FaultSpec(kind="adapt_error", count=0, probability=0.5)
        plan = FaultPlan(faults=(spec,), seed=123)

        def firing_pattern():
            injector = plan.injector(0)
            pattern = []
            for _ in range(40):
                try:
                    injector.on_adapt()
                    pattern.append(False)
                except InjectedFault:
                    pattern.append(True)
            return pattern

        first, second = firing_pattern(), firing_pattern()
        assert first == second
        assert any(first) and not all(first)  # actually probabilistic

    def test_probability_streams_differ_across_shards(self):
        spec = FaultSpec(kind="adapt_error", count=0, probability=0.5)
        plan = FaultPlan(faults=(spec,), seed=9)

        def pattern(shard):
            injector = FaultInjector(plan, shard)
            out = []
            for _ in range(40):
                try:
                    injector.on_adapt()
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert pattern(0) != pattern(1)


class TestResilienceConfig:
    def test_round_trips_through_dict(self):
        cfg = ResilienceConfig(
            deadline=0.25, failure_threshold=3, max_pending=16, retry_limit=2
        )
        assert ResilienceConfig.from_dict(cfg.to_dict()) == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ResilienceConfig keys"):
            ResilienceConfig.from_dict({"dedline": 1.0})

    @pytest.mark.parametrize(
        "bad",
        [
            {"deadline": 0.0},
            {"failure_threshold": 0},
            {"reset_timeout": -1.0},
            {"half_open_probes": 0},
            {"max_pending": -1},
            {"retry_limit": -1},
            {"backoff_base": -0.1},
            {"backoff_jitter": 1.5},
        ],
    )
    def test_validates_fields(self, bad):
        with pytest.raises(ValueError):
            ResilienceConfig(**bad)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = {"now": 0.0}
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=kwargs.pop("failure_threshold", 2),
            reset_timeout=kwargs.pop("reset_timeout", 10.0),
            half_open_probes=kwargs.pop("half_open_probes", 1),
            clock=lambda: clock["now"],
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        return breaker, clock, transitions

    def test_opens_after_consecutive_failures(self):
        breaker, _, transitions = self._breaker()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert transitions == [(BREAKER_CLOSED, BREAKER_OPEN)]

    def test_success_resets_the_failure_streak(self):
        breaker, _, _ = self._breaker()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_success_closes(self):
        breaker, clock, transitions = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert transitions == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_half_open_probe_failure_reopens_and_rearms_the_clock(self):
        breaker, clock, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock["now"] = 15.0  # reset_timeout counts from the probe failure
        assert not breaker.allow()
        clock["now"] = 20.0
        assert breaker.allow()

    def test_half_open_admits_a_bounded_number_of_probes(self):
        breaker, clock, _ = self._breaker(half_open_probes=2)
        breaker.record_failure()
        breaker.record_failure()
        clock["now"] = 10.0
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # third concurrent probe rejected
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED


def _fit_popularity(bench_experiment):
    method = Popularity()
    ctx: FitContext = bench_experiment.ctx
    method.fit(ctx)
    return method, ctx


class TestPopularityFallback:
    def test_matches_the_popularity_baseline(self, bench_experiment):
        method, _ = _fit_popularity(bench_experiment)
        fallback = PopularityFallback(
            method.state_dict()["scores"], method.serving.seen
        )
        want = method.recommend(3, k=5)
        got = fallback.recommend(3, k=5)
        assert got.degraded and not want.degraded
        assert np.array_equal(want.items, got.items)
        assert np.array_equal(want.scores, got.scores)

    def test_excludes_seen_items(self, bench_experiment):
        method, _ = _fit_popularity(bench_experiment)
        seen = method.serving.seen
        user = int(np.argmax(seen.sum(axis=1)))  # someone with history
        fallback = PopularityFallback(method.state_dict()["scores"], seen)
        result = fallback.recommend(user, k=seen.shape[1])
        assert not seen[user, result.items].any()
        unfiltered = fallback.recommend(user, k=10, exclude_seen=False)
        assert len(unfiltered) == 10

    def test_candidate_pool_restricts_answers(self, bench_experiment):
        method, _ = _fit_popularity(bench_experiment)
        pool = np.array([1, 3, 5, 7, 9])
        fallback = PopularityFallback(
            method.state_dict()["scores"],
            np.zeros_like(method.serving.seen),
            candidate_pool=pool,
        )
        result = fallback.recommend(0, k=20)
        assert set(result.items) <= set(pool.tolist())

    def test_from_artifact_reads_the_stored_prior(self, bench_experiment, tmp_path):
        method, _ = _fit_popularity(bench_experiment)
        path = method.save(tmp_path / "pop.npz")
        fallback = PopularityFallback.from_artifact(path)
        want = method.recommend(2, k=8)
        got = fallback.recommend(2, k=8)
        assert got.degraded
        assert np.array_equal(want.items, got.items)

    def test_from_artifact_without_prior_counts_seen(self, tmp_path):
        # Artifacts written before serving.popularity existed: the fallback
        # derives the prior from the seen matrix instead.
        from repro.nn.serialization import save_params

        seen = np.zeros((4, 6), dtype=np.uint8)
        seen[0, 1] = seen[1, 1] = seen[2, 1] = 1  # item 1 most popular
        seen[0, 4] = seen[1, 4] = 1  # item 4 second
        path = save_params(
            tmp_path / "old.npz", {"serving.seen": seen}, config={"format": 1}
        )
        fallback = PopularityFallback.from_artifact(path)
        result = fallback.recommend(3, k=2)
        assert result.items.tolist() == [1, 4]


class TestDeadlineSkipping:
    @pytest.fixture()
    def service(self, bench_experiment):
        from repro.service import RecommenderService

        method = Popularity()
        method.fit(bench_experiment.ctx)
        return RecommenderService(method)

    def test_expired_request_is_skipped_not_scored(self, service):
        results = service.recommend_batch(
            [
                ServeRequest(0, k=3),
                ServeRequest(1, k=3, deadline=1.0),  # 1970: long expired
            ]
        )
        assert not isinstance(results[0], DeadlineSkipped)
        assert results[1] == DeadlineSkipped(1)
        assert service.metrics.counter("serve.deadline_skipped") == 1

    def test_future_deadline_serves_normally(self, service):
        import time

        results = service.recommend_batch(
            [ServeRequest(0, k=3, deadline=time.time() + 60.0)]
        )
        assert not isinstance(results[0], DeadlineSkipped)
        assert len(results[0]) == 3
        assert service.metrics.counter("serve.deadline_skipped") == 0

    def test_skipped_neighbours_leave_answers_bit_identical(
        self, service, bench_experiment
    ):
        from repro.service import RecommenderService

        fresh = RecommenderService(Popularity().fit(bench_experiment.ctx))
        mixed = service.recommend_batch(
            [
                ServeRequest(2, k=5),
                ServeRequest(3, k=5, deadline=1.0),
                ServeRequest(4, k=5),
            ]
        )
        clean = fresh.recommend_batch(
            [ServeRequest(2, k=5), ServeRequest(4, k=5)]
        )
        assert np.array_equal(mixed[0].items, clean[0].items)
        assert np.array_equal(mixed[0].scores, clean[0].scores)
        assert np.array_equal(mixed[2].items, clean[1].items)
        assert np.array_equal(mixed[2].scores, clean[1].scores)

    def test_deadline_passing_during_adaptation_skips_scoring(self, bench_experiment):
        """The core checks deadlines again once the flush's adaptation ran."""
        import time

        from repro.service import RecommenderService

        service = RecommenderService(
            Popularity().fit(bench_experiment.ctx),
            adapt_hook=lambda n: time.sleep(0.8),
        )
        results = service.recommend_batch(
            [ServeRequest(0, k=3), ServeRequest(1, k=3, deadline=time.time() + 0.5)]
        )
        assert len(results[0]) == 3
        assert results[1] == DeadlineSkipped(1)
        assert service.metrics.counter("serve.deadline_skipped") == 1
        assert service.metrics.counter("serve.adapt.users") == 2


class TestAdaptHook:
    def test_hook_sees_every_batched_adaptation(self, bench_experiment):
        from repro.service import RecommenderService

        calls = []
        service = RecommenderService(
            Popularity().fit(bench_experiment.ctx),
            adapt_hook=lambda n: calls.append(n),
        )
        service.recommend_batch([ServeRequest(0), ServeRequest(1)])
        assert calls == [2]
        service.recommend(0)  # cached: no new adaptation
        assert calls == [2]

    def test_hook_error_propagates_without_partial_state(self, bench_experiment):
        from repro.service import RecommenderService

        def hook(n):
            raise InjectedFault("boom")

        service = RecommenderService(
            Popularity().fit(bench_experiment.ctx), adapt_hook=hook
        )
        with pytest.raises(InjectedFault):
            service.recommend_batch([ServeRequest(0)])
        assert service.metrics.counter("serve.adapt.batches") == 0
