"""Sharded serving under a Zipfian open-loop load.

Drives :class:`~repro.serve.ShardedService` with a heavy-tailed user stream
— a hot head whose adaptations stay in each shard's LRU, a long tail whose
cold fine-tuning is coalesced into per-flush ``adapt_users`` calls — and
reports sustained QPS plus p50/p99 latency per worker count into the
standard ``BENCH_*.json`` format.

Environment knobs (all optional):

- ``BENCH_LOAD_WORKERS``: comma-separated worker counts (default ``1,2``).
- ``BENCH_LOAD_REQUESTS``: stream length per trial (default ``160``).
- ``BENCH_LOAD_RATE``: offered arrivals/s (default ``1500`` — well past
  one worker's capacity at smoke scale, so sustained QPS measures service
  capacity rather than the generator's clock).
- ``BENCH_LOAD_ALPHA``: Zipf skew (default ``1.1``).
- ``BENCH_LOAD_SCALE_FLOOR``: minimum allowed ``QPS(max workers) /
  QPS(min workers)`` ratio.  Defaults to ``0.0`` (report-only) because
  scaling needs real cores; the CI smoke job sets it.
- ``BENCH_LOAD_2W_FLOOR``: minimum allowed ``QPS(2 workers) / QPS(1
  worker)`` when both counts run.  Default ``0.0``; CI sets ``1.0`` as the
  sanity bar that a second worker never costs throughput.
"""

from __future__ import annotations

import os

import pytest

from repro.data.experiment import prepare_experiment
from repro.data.splits import Scenario
from repro.obs import Histogram
from repro.registry import build_method
from repro.serve import ShardedService, run_open_loop, zipfian_users


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


@pytest.fixture(scope="module")
def load_artifact(dataset, tmp_path_factory):
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


def _run_trial(path: str, tasks, n_workers: int) -> dict:
    n_requests = _env_int("BENCH_LOAD_REQUESTS", 160)
    rate = _env_float("BENCH_LOAD_RATE", 1500.0)
    alpha = _env_float("BENCH_LOAD_ALPHA", 1.1)
    # A cache smaller than the pool keeps the tail cold for the whole run:
    # head users stay resident, tail users evict each other and re-adapt.
    cache_size = max(4, len(tasks) // 4)
    users = zipfian_users(
        [t.user_row for t in tasks], n_requests, alpha=alpha, seed=11
    )
    with ShardedService(path, n_workers=n_workers, cache_size=cache_size) as service:
        assert service.wait_ready(timeout=120.0)
        for task in tasks:
            service.register_user_history(task)
        # One warmup request per shard takes first-touch page faults and
        # lazy model builds out of the measured stream.
        for shard in range(n_workers):
            service.recommend(int(users[shard % len(users)]), k=10)
            service.invalidate_user(int(users[shard % len(users)]))
        report = run_open_loop(service.submit, users, rate=rate)
        counters = service.stats()["metrics"]["counters"]
    summary = report.to_dict()
    summary["n_workers"] = n_workers
    summary["restarts"] = counters.get("serve.restarts", 0)
    return summary


def test_loadgen_and_service_percentiles_agree(load_artifact):
    """Generator-side and service-side latency percentiles cross-check.

    Both sides measure submit-to-completion — the load generator from raw
    per-request timestamps, the front-end by observing each round-trip into
    its ``serve.request.seconds`` histogram.  Because both use the same
    fixed log-bucket layout, each reported percentile is within one bucket
    ratio (``BUCKET_RATIO`` ≈ 1.585x) of the true quantile, so the two
    estimates can disagree by at most one bucket index — the documented
    bucket-resolution error bound.  A larger gap means one side is
    measuring a different interval (e.g. dropping queue wait).
    """
    path, tasks = load_artifact
    users = zipfian_users(
        [t.user_row for t in tasks], 96, alpha=1.1, seed=13
    )
    with ShardedService(path, n_workers=2, cache_size=64) as service:
        assert service.wait_ready(timeout=120.0)
        for task in tasks:
            service.register_user_history(task)
        # Warm up, then reset the front-end registry so the service-side
        # histogram covers exactly the measured open-loop stream.
        for warm in range(2):
            service.recommend(int(users[warm]), k=10)
        service.metrics.clear()
        report = run_open_loop(service.submit, users, rate=800.0)
        snap = service.stats()["metrics"]
    service_hist = Histogram.from_snapshot(
        snap["histograms"]["serve.request.seconds"]
    )
    assert service_hist.count == report.n_requests
    load_hist = report.latency_histogram()
    for q in (50, 99):
        gap = abs(
            service_hist.percentile_bucket(q) - load_hist.percentile_bucket(q)
        )
        assert gap <= 1, (
            f"p{q} disagrees by {gap} buckets: "
            f"loadgen={load_hist.percentile(q) * 1e3:.2f}ms "
            f"service={service_hist.percentile(q) * 1e3:.2f}ms"
        )


def test_sharded_load_scaling(benchmark, load_artifact):
    path, tasks = load_artifact
    worker_counts = [
        int(w) for w in os.environ.get("BENCH_LOAD_WORKERS", "1,2").split(",")
    ]
    trials = {w: _run_trial(path, tasks, w) for w in worker_counts}
    for w, trial in trials.items():
        print(
            f"\nworkers={w}: qps={trial['qps']:.0f} "
            f"p50={trial['p50_ms']:.1f}ms p99={trial['p99_ms']:.1f}ms "
            f"(restarts={trial['restarts']})"
        )
        benchmark.extra_info[f"workers_{w}"] = {
            k: round(v, 3) if isinstance(v, float) else v
            for k, v in trial.items()
        }

    # The timed payload: one short re-run at the highest worker count.
    top = max(worker_counts)
    benchmark.pedantic(
        lambda: _run_trial(path, tasks, top), rounds=1, iterations=1
    )

    base = trials[min(worker_counts)]["qps"]
    peak = trials[top]["qps"]
    scale = peak / max(base, 1e-9)
    benchmark.extra_info["qps_scale"] = round(scale, 3)
    floor = _env_float("BENCH_LOAD_SCALE_FLOOR", 0.0)
    assert scale >= floor, (
        f"QPS scaled {scale:.2f}x from {min(worker_counts)} to {top} workers, "
        f"below the {floor:.2f}x floor"
    )
    if 1 in trials and 2 in trials:
        pair = trials[2]["qps"] / max(trials[1]["qps"], 1e-9)
        benchmark.extra_info["qps_scale_2w"] = round(pair, 3)
        pair_floor = _env_float("BENCH_LOAD_2W_FLOOR", 0.0)
        assert pair >= pair_floor, (
            f"2-worker QPS is {pair:.2f}x the 1-worker QPS, "
            f"below the {pair_floor:.2f}x floor"
        )
