"""Quickstart: config-driven training, evaluation, and serving.

Runs the full lifecycle end to end on the CDs target domain at a small
budget (about a minute on a laptop):

1. generate the five-domain synthetic benchmark,
2. prepare a leak-free evaluation split,
3. build MetaDPA from a plain config dict and fit it,
4. report HR@10 / MRR@10 / NDCG@10 / AUC on all four scenarios,
5. save the fitted model to an artifact, reload it, and serve top-k
   recommendations through :class:`repro.service.RecommenderService` —
   including a batch of cold-start users whose support-set fine-tuning
   runs as ONE vectorized MAML inner loop (``adapt_users`` /
   ``MAML.adapt_corpus``, the stacked-parameter adaptation API).

Usage:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro.data import make_amazon_like_benchmark, prepare_experiment
from repro.data.splits import Scenario
from repro.eval.protocol import evaluate_prepared, format_results_table
from repro.registry import build_method
from repro.service import RecommenderService


def main() -> None:
    print("Generating the Amazon-like multi-domain benchmark ...")
    dataset = make_amazon_like_benchmark(seed=0)
    for line in (
        f"  sources: {dataset.source_names()}",
        f"  targets: {dataset.target_names()}",
    ):
        print(line)

    print("\nPreparing the evaluation split on CDs ...")
    experiment = prepare_experiment(dataset, "CDs", seed=0)
    print(
        f"  existing/new users: {experiment.splits.existing_users.size}"
        f"/{experiment.splits.new_users.size}, "
        f"existing/new items: {experiment.splits.existing_items.size}"
        f"/{experiment.splits.new_items.size}"
    )

    print("\nTraining MetaDPA from a config dict (reduced budget) ...")
    method = build_method(
        {"name": "MetaDPA", "cvae_epochs": 150, "meta_epochs": 12}, seed=0
    )
    results = evaluate_prepared(method, experiment)

    print("\nGenerated augmentations:", method.augmented.k, "rating matrices")
    print(format_results_table({"MetaDPA": results}))

    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "metadpa.npz"
        method.save(artifact)
        print(f"Saved artifact to {artifact.name}; reloading for serving ...")
        service = RecommenderService.from_artifact(artifact)
        top = service.recommend(user_row=0, k=5)
        print("Top-5 items for user 0:", [int(item) for item in top.items])
        top = service.recommend(user_row=0, k=5)  # served from the LRU cache

        # A burst of cold-start users: register their support histories and
        # serve them in one call — the facade fine-tunes every uncached user
        # together through the method's batched `adapt_users` (one stacked
        # inner loop), then scores them in one batched forward.
        cold_tasks = list(experiment.task_sets[Scenario.C_U])[:8]
        for task in cold_tasks:
            service.register_user_history(task)
        results = service.recommend_many([t.user_row for t in cold_tasks], k=5)
        print(
            f"Batch-served {len(results)} cold-start users; "
            f"first user's top item: {int(results[0].items[0])}"
        )
        counters = service.stats()["metrics"]["counters"]
        print(
            f"Served {counters['serve.requests']} requests; adapted "
            f"{counters['serve.adapt.users']} users in "
            f"{counters['serve.adapt.batches']} passes; cache hits "
            f"{counters['serve.cache.hits']}, misses {counters['serve.cache.misses']}"
        )


if __name__ == "__main__":
    main()
