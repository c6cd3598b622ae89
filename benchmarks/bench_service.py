"""Serving facade: cached adaptation and micro-batching.

Demonstrates the serving-layer win: the first ``recommend`` call for a
user pays the meta-learner's support-set fine-tuning, repeat calls are
served from the LRU cache and only pay one forward pass.  The cold/warm
ratio is attached to ``extra_info``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.experiment import prepare_experiment
from repro.data.splits import Scenario
from repro.registry import build_method
from repro.service import RecommenderService
from repro.utils.timing import Timer

import oracles


@pytest.fixture(scope="module")
def served_metadpa(dataset):
    experiment = prepare_experiment(dataset, "Books", seed=0)
    method = build_method(
        {"name": "MetaDPA", "profile": "fast", "cvae_epochs": 10, "meta_epochs": 2},
        seed=0,
    )
    method.fit(experiment.ctx)
    tasks = list(experiment.task_sets[Scenario.C_U])
    return method, tasks


def test_service_cached_adaptation(benchmark, served_metadpa):
    method, tasks = served_metadpa
    users = [t.user_row for t in tasks[:8]]
    service = RecommenderService(method, cache_size=64)
    for task in tasks[:8]:
        service.register_user_history(task)

    with Timer() as cold:
        for user in users:
            service.recommend(user, k=10)
    with Timer() as warm:
        for user in users:
            service.recommend(user, k=10)

    benchmark.pedantic(
        lambda: [service.recommend(u, k=10) for u in users],
        rounds=3,
        iterations=1,
    )
    speedup = cold.elapsed / max(warm.elapsed, 1e-9)
    benchmark.extra_info["cold_seconds"] = round(cold.elapsed, 4)
    benchmark.extra_info["warm_seconds"] = round(warm.elapsed, 4)
    benchmark.extra_info["cold_over_warm"] = round(speedup, 2)
    counters = service.stats()["metrics"]["counters"]
    cache = {name: v for name, v in counters.items() if name.startswith("serve.cache.")}
    print(
        f"\ncold {cold.elapsed:.4f}s, warm {warm.elapsed:.4f}s "
        f"({speedup:.1f}x), cache {cache}"
    )
    # The acceptance bar: repeat requests are measurably faster than first
    # requests because the fine-tuning is cached.
    assert warm.elapsed < cold.elapsed
    assert counters["serve.cache.hits"] >= len(users)


@pytest.fixture(scope="module")
def served_melu(dataset):
    experiment = prepare_experiment(dataset, "Books", seed=0)
    method = build_method({"name": "MeLU", "profile": "fast", "meta_epochs": 2}, seed=0)
    method.fit(experiment.ctx)
    return method, list(experiment.task_sets[Scenario.C_U])


def test_service_batch_adaptation_speedup(benchmark, served_melu):
    """A flush of cold-start users: one vectorized adapt_users vs a loop.

    This is the serving-time win of the stacked-parameter redesign —
    ``recommend_many`` (and every micro-batch flush) fine-tunes all uncached
    users through one vectorized inner loop instead of one per user; MeLU's
    decision-only restriction additionally embeds each support set once
    instead of once per inner step.  The loop baseline is the pre-redesign
    per-user path: one full-model fine-tuning run per user.
    """
    method, tasks = served_melu
    cold = tasks[:16]
    maml = method.maml
    serving = method.serving

    def legacy_adapt_user(task):
        """The pre-redesign per-user path: full backward every inner step."""
        item = oracles.materialize(
            serving.user_content,
            serving.item_content,
            task.user_row,
            task.support_items,
            task.support_labels,
            task.query_items,
            task.query_labels,
        )
        fast = dict(maml.params)
        for _ in range(method.finetune_steps):
            _, grads = maml.model.loss_and_grads(
                fast, item.support_user, item.support_item, item.support_labels
            )
            for name, grad in grads.items():
                if name in maml._adaptable_keys:
                    fast[name] = fast[name] - maml.config.inner_lr * grad
        return fast

    serial = [legacy_adapt_user(t) for t in cold]  # warm both paths
    batched = method.adapt_users(cold)
    for state_a, state_b in zip(batched, serial):
        assert all(
            np.allclose(state_a[name], state_b[name]) for name in state_b
        )

    rounds = 3
    with Timer() as t_serial:
        for _ in range(rounds):
            [legacy_adapt_user(t) for t in cold]
    with Timer() as t_batched:
        for _ in range(rounds):
            method.adapt_users(cold)

    benchmark.pedantic(lambda: method.adapt_users(cold), rounds=3, iterations=1)
    speedup = t_serial.elapsed / max(t_batched.elapsed, 1e-9)
    benchmark.extra_info["n_cold_users"] = len(cold)
    benchmark.extra_info["serial_seconds"] = round(t_serial.elapsed / rounds, 4)
    benchmark.extra_info["batched_seconds"] = round(t_batched.elapsed / rounds, 4)
    benchmark.extra_info["adapt_users_speedup"] = round(speedup, 2)
    print(
        f"\nadapting {len(cold)} cold users: serial {t_serial.elapsed / rounds:.4f}s, "
        f"batched {t_batched.elapsed / rounds:.4f}s ({speedup:.1f}x)"
    )
    assert speedup >= float(os.environ.get("BENCH_SPEEDUP_FLOOR", 3.0))


def test_service_microbatch_throughput(benchmark, served_metadpa):
    method, tasks = served_metadpa
    users = [t.user_row for t in tasks[:16]]

    def serve_batch():
        service = RecommenderService(method, cache_size=64)
        return service.recommend_many(users, k=10)

    results = benchmark.pedantic(serve_batch, rounds=3, iterations=1)
    assert len(results) == len(users)
    assert all(np.all(np.diff(r.scores) <= 1e-12) for r in results if len(r))
