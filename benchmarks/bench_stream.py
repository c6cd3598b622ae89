"""Sharded serving under a mixed Zipfian read/write stream.

``bench_load`` measures pure read throughput; this benchmark asks what the
streaming write path costs.  The same open-loop harness replays two
streams against an identical :class:`~repro.serve.ShardedService`:

- *read-only*: every op is a recommendation request (``write_frac=0``);
- *mixed*: a ``write_frac`` fraction of ops are ``observe`` events — each
  one appends to the owner shard's support task and invalidates that
  user's cached adaptation, so hot users (Zipfian for reads *and* writes)
  keep getting their cache entries knocked out and re-adapted.

The headline number is the mixed/read-only QPS ratio: how much sustained
throughput survives a realistic write load.

Environment knobs (all optional):

- ``BENCH_STREAM_WORKERS``: shard count (default ``2``).
- ``BENCH_STREAM_REQUESTS``: ops per trial (default ``160``).
- ``BENCH_STREAM_RATE``: offered arrivals/s (default ``1500`` — past
  capacity at smoke scale, so QPS measures the service, not the clock).
- ``BENCH_STREAM_ALPHA``: Zipf skew for users (default ``1.1``).
- ``BENCH_STREAM_WRITE_FRAC``: write fraction of the mixed trial
  (default ``0.15``).
- ``BENCH_STREAM_RATIO_FLOOR``: minimum allowed ``QPS(mixed) /
  QPS(read-only)``.  Defaults to ``0.0`` (report-only); the CI smoke job
  sets a positive floor.
"""

from __future__ import annotations

import os

import pytest

from repro.core.interface import Recommender
from repro.data.experiment import prepare_experiment
from repro.data.splits import Scenario
from repro.registry import build_method
from repro.serve import ShardedService, mixed_zipfian_stream, run_mixed_open_loop


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


@pytest.fixture(scope="module")
def stream_artifact(dataset, tmp_path_factory):
    """A saved tiny MetaDPA artifact, its cold-user tasks, and item count."""
    experiment = prepare_experiment(dataset, "Books", seed=0)
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 4, "meta_epochs": 1},
        seed=0,
    )
    method.fit(experiment.ctx)
    path = method.save(tmp_path_factory.mktemp("artifact") / "metadpa.npz")
    tasks = list(experiment.task_sets[Scenario.C_U])
    n_items = Recommender.load(path, mmap_mode="r").serving.n_items
    return str(path), tasks, n_items


def _run_trial(path: str, tasks, n_items: int, write_frac: float) -> dict:
    n_ops = _env_int("BENCH_STREAM_REQUESTS", 160)
    rate = _env_float("BENCH_STREAM_RATE", 1500.0)
    alpha = _env_float("BENCH_STREAM_ALPHA", 1.1)
    n_workers = _env_int("BENCH_STREAM_WORKERS", 2)
    cache_size = max(4, len(tasks) // 4)
    ops = mixed_zipfian_stream(
        [t.user_row for t in tasks],
        range(n_items),
        n_ops,
        write_frac=write_frac,
        alpha=alpha,
        seed=11,
    )
    with ShardedService(path, n_workers=n_workers, cache_size=cache_size) as service:
        assert service.wait_ready(timeout=120.0)
        for task in tasks:
            service.register_user_history(task)
        for shard in range(n_workers):
            service.recommend(int(tasks[shard % len(tasks)].user_row), k=10)
            service.invalidate_user(int(tasks[shard % len(tasks)].user_row))
        report = run_mixed_open_loop(service, ops, rate=rate)
        stats = service.stats()
    summary = report.to_dict()
    summary["write_frac"] = write_frac
    summary["n_writes"] = sum(1 for op in ops if op.kind == "write")
    summary["n_events"] = sum(
        shard["metrics"]["counters"].get("serve.stream.events", 0)
        for shard in stats["shards"]
    )
    return summary


def test_mixed_stream_throughput(benchmark, stream_artifact):
    path, tasks, n_items = stream_artifact
    write_frac = _env_float("BENCH_STREAM_WRITE_FRAC", 0.15)
    read_only = _run_trial(path, tasks, n_items, write_frac=0.0)
    mixed = _run_trial(path, tasks, n_items, write_frac=write_frac)
    for label, trial in (("read_only", read_only), ("mixed", mixed)):
        print(
            f"\n{label}: qps={trial['qps']:.0f} "
            f"p50={trial['p50_ms']:.1f}ms p99={trial['p99_ms']:.1f}ms "
            f"(writes={trial['n_writes']}, ingested={trial['n_events']})"
        )
        benchmark.extra_info[label] = {
            k: round(v, 3) if isinstance(v, float) else v
            for k, v in trial.items()
        }
    assert mixed["n_events"] == mixed["n_writes"] > 0

    # The timed payload: one short re-run of the mixed stream.
    benchmark.pedantic(
        lambda: _run_trial(path, tasks, n_items, write_frac=write_frac),
        rounds=1,
        iterations=1,
    )

    ratio = mixed["qps"] / max(read_only["qps"], 1e-9)
    benchmark.extra_info["qps_ratio_mixed_vs_read"] = round(ratio, 3)
    floor = _env_float("BENCH_STREAM_RATIO_FLOOR", 0.0)
    assert ratio >= floor, (
        f"mixed-stream QPS is {ratio:.2f}x the read-only QPS, "
        f"below the {floor:.2f}x floor"
    )
