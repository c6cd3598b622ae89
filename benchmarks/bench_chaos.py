"""Availability under seeded chaos: kill a worker mid-burst, keep answering.

Replays the resilience acceptance scenario as a tracked benchmark: a
Zipfian open-loop burst drives :class:`~repro.serve.ShardedService` while
a deterministic :class:`~repro.serve.FaultPlan` crashes shard 0 partway
through (``incarnation=0`` — the replacement process is left alone, so
the plan expresses "kill once").  The resilience layer — deadlines,
retries, circuit breakers, and the degraded popularity fallback — must
keep end-to-end availability at or above the floor, and the whole run is
replayable: same plan seed, same stream, same restart count.

Reported per trial (``extra_info`` and the ``BENCH_chaos`` payload):
sustained QPS and latency percentiles from the load generator, plus
availability, the ok/degraded/error split, restarts, and the front-end
resilience counters (sheds, deadline hits, breaker state changes).

Environment knobs (all optional):

- ``BENCH_CHAOS_REQUESTS``: burst length (default ``160``).
- ``BENCH_CHAOS_WORKERS``: worker count (default ``2``).
- ``BENCH_CHAOS_RATE``: offered arrivals/s (default ``600``).
- ``BENCH_CHAOS_ALPHA``: Zipf skew (default ``1.1``).
- ``BENCH_CHAOS_SEED``: fault-plan seed (default ``7``).
- ``BENCH_CHAOS_CRASH_AT``: 1-based batch RPC that kills shard 0
  (default ``3`` — early in the burst, so most of the stream runs with
  one shard down or restarting).
- ``BENCH_CHAOS_DEADLINE``: per-request deadline seconds (default ``15``).
- ``BENCH_CHAOS_AVAILABILITY_FLOOR``: minimum fraction of offered
  requests that must resolve with a full-length answer (ok *or*
  degraded) by their deadline.  Default ``0.99`` — the acceptance bar
  from the resilience work; set to ``0`` to report only.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future

import pytest

from repro.data.experiment import prepare_experiment
from repro.data.splits import Scenario
from repro.registry import build_method
from repro.serve import (
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    ShardedService,
    run_open_loop,
    zipfian_users,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


@pytest.fixture(scope="module")
def chaos_artifact(dataset, tmp_path_factory):
    """A saved tiny MetaDPA artifact plus the cold-user task pool."""
    experiment = prepare_experiment(dataset, "Books", seed=0)
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 4, "meta_epochs": 1},
        seed=0,
    )
    method.fit(experiment.ctx)
    path = method.save(tmp_path_factory.mktemp("artifact") / "metadpa.npz")
    tasks = list(experiment.task_sets[Scenario.C_U])
    return str(path), tasks


def _settled_counters(service: ShardedService, n_requests: int) -> dict:
    """Outcome counters are bumped *after* each future resolves — poll."""
    deadline = time.monotonic() + 10.0
    while True:
        counters = service.stats()["metrics"].get("counters", {})
        settled = sum(
            counters.get(f"serve.responses.{outcome}", 0)
            for outcome in ("ok", "degraded", "error")
        )
        if settled >= n_requests or time.monotonic() >= deadline:
            return counters
        time.sleep(0.01)


def _run_trial(path: str, tasks) -> dict:
    n_requests = _env_int("BENCH_CHAOS_REQUESTS", 160)
    n_workers = _env_int("BENCH_CHAOS_WORKERS", 2)
    rate = _env_float("BENCH_CHAOS_RATE", 600.0)
    alpha = _env_float("BENCH_CHAOS_ALPHA", 1.1)
    plan = FaultPlan(
        faults=(
            FaultSpec(
                kind="crash",
                shard=0,
                at=_env_int("BENCH_CHAOS_CRASH_AT", 3),
                incarnation=0,
            ),
        ),
        seed=_env_int("BENCH_CHAOS_SEED", 7),
    )
    cfg = ResilienceConfig(
        deadline=_env_float("BENCH_CHAOS_DEADLINE", 15.0),
        retry_limit=2,
        failure_threshold=100,
        fallback=True,
    )
    users = zipfian_users(
        [t.user_row for t in tasks], n_requests, alpha=alpha, seed=11
    )
    futures: list[Future] = []
    with ShardedService(
        path,
        n_workers=n_workers,
        max_batch=4,
        heartbeat_interval=0.1,
        resilience=cfg,
        fault_plan=plan,
    ) as service:
        assert service.wait_ready(timeout=120.0)
        for task in tasks:
            service.register_user_history(task)

        def submit(user_row: int) -> Future:
            future = service.submit(user_row, k=10)
            futures.append(future)
            return future

        report = run_open_loop(submit, users, rate=rate)
        ok = degraded = errors = 0
        for future in futures:
            try:
                result = future.result(timeout=cfg.deadline)
            except Exception:
                errors += 1
                continue
            if len(result) != 10:
                errors += 1
            elif result.degraded:
                degraded += 1
            else:
                ok += 1
        counters = _settled_counters(service, n_requests)

    summary = report.to_dict()
    summary.update(
        availability=(ok + degraded) / max(n_requests, 1),
        ok=ok,
        degraded=degraded,
        errors=errors,
        restarts=counters.get("serve.restarts", 0),
        shed=counters.get("serve.shed", 0),
        deadline_exceeded=counters.get("serve.deadline_exceeded", 0),
        breaker_opened=counters.get("serve.breaker.opened", 0),
        fault_seed=plan.seed,
    )
    return summary


def test_availability_with_seeded_worker_kill(benchmark, chaos_artifact):
    path, tasks = chaos_artifact
    trial = _run_trial(path, tasks)
    print(
        f"\nchaos: availability={trial['availability']:.4f} "
        f"qps={trial['qps']:.0f} p99={trial['p99_ms']:.1f}ms "
        f"ok={trial['ok']} degraded={trial['degraded']} "
        f"errors={trial['errors']} restarts={trial['restarts']}"
    )
    benchmark.extra_info["chaos"] = {
        k: round(v, 4) if isinstance(v, float) else v for k, v in trial.items()
    }

    # The timed payload: one replay of the same seeded schedule.  Identical
    # plan + stream must survive the same crash, so the replay also checks
    # that the chaos run is deterministic enough to benchmark at all.
    replay = {}
    benchmark.pedantic(
        lambda: replay.update(_run_trial(path, tasks)), rounds=1, iterations=1
    )
    assert replay["restarts"] == trial["restarts"], (
        "seeded chaos replay diverged: "
        f"{replay['restarts']} restarts vs {trial['restarts']}"
    )
    benchmark.extra_info["replay_availability"] = round(
        replay["availability"], 4
    )

    floor = _env_float("BENCH_CHAOS_AVAILABILITY_FLOOR", 0.99)
    for label, run in (("first run", trial), ("replay", replay)):
        assert run["availability"] >= floor, (
            f"{label}: availability {run['availability']:.4f} under the "
            f"{floor:.2f} floor ({run['errors']} errors out of "
            f"{run['n_requests']} offered)"
        )
        assert run["restarts"] >= 1, f"{label}: the injected crash never fired"
