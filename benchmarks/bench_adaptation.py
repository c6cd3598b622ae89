"""Meta-batch adaptation: vectorized stacked inner loop vs the per-view loop.

The paper's single hottest path is the MAML inner loop, run once per task in
meta-training (Eq. 1) and once per cold-start user at meta-testing.  The
stacked-parameter redesign adapts a whole meta-batch in one numpy pass; this
benchmark measures the speedup over the per-view reference loop of
``tests/oracles.py`` for both ``meta_step_corpus`` (training) and
``adapt_corpus`` (serving-time multi-user fine-tuning), asserting the >=3x
acceptance bar and recording the numbers in ``BENCH_*.json`` via the shared
harness.
"""

from __future__ import annotations

import os

import numpy as np

from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpus, TaskCorpusBuilder, pack_content
from repro.meta.maml import MAML, MAMLConfig
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.utils.timing import Timer

import oracles

# Few-shot geometry: many tasks, small support sets — exactly the cold-start
# regime (1-10 ratings per user) where the per-task Python loop drowns in
# call overhead and the stacked pass shines.
N_TASKS = 64
N_ITEMS = 256
CONTENT_DIM = 40
SUPPORT = 8
QUERY = 6
# >=3x locally; CI sets BENCH_SPEEDUP_FLOOR lower because shared-runner
# timing noise can halve micro-benchmark ratios.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", 3.0))


def _model() -> PreferenceModel:
    return PreferenceModel(
        PreferenceModelConfig(content_dim=CONTENT_DIM, embed_dim=16, hidden_dims=(32, 16))
    )


def _corpus(seed: int = 0) -> TaskCorpus:
    """One task per user: SUPPORT + QUERY distinct items each."""
    rng = np.random.default_rng(seed)
    builder = TaskCorpusBuilder(
        pack_content(rng.random((N_TASKS, CONTENT_DIM)), rng.random((N_ITEMS, CONTENT_DIM)))
    )
    for user in range(N_TASKS):
        items = rng.choice(N_ITEMS, size=SUPPORT + QUERY, replace=False)
        builder.add_task(
            PreferenceTask(
                user_row=user,
                support_items=items[:SUPPORT],
                support_labels=(rng.random(SUPPORT) < 0.5).astype(float),
                query_items=items[SUPPORT:],
                query_labels=(rng.random(QUERY) < 0.5).astype(float),
            )
        )
    return builder.build()


def test_meta_step_vectorized_speedup(benchmark):
    """One vectorized meta_step_corpus vs the per-view reference loop."""
    corpus = _corpus()
    ids = np.arange(corpus.n_views)
    vec = MAML(_model(), MAMLConfig(), seed=0)
    loop = MAML(_model(), MAMLConfig(), seed=0)
    vec.meta_step_corpus(corpus, ids)  # warm both paths once before timing
    oracles.fomaml_step(loop, corpus, ids)

    rounds = 5
    with Timer() as t_loop:
        for _ in range(rounds):
            oracles.fomaml_step(loop, corpus, ids)
    with Timer() as t_vec:
        for _ in range(rounds):
            vec.meta_step_corpus(corpus, ids)

    benchmark.pedantic(lambda: vec.meta_step_corpus(corpus, ids), rounds=5, iterations=1)

    speedup = t_loop.elapsed / max(t_vec.elapsed, 1e-9)
    benchmark.extra_info["n_tasks"] = N_TASKS
    benchmark.extra_info["loop_seconds_per_step"] = round(t_loop.elapsed / rounds, 5)
    benchmark.extra_info["vectorized_seconds_per_step"] = round(t_vec.elapsed / rounds, 5)
    benchmark.extra_info["meta_step_speedup"] = round(speedup, 2)
    benchmark.extra_info["tasks_per_second"] = round(
        N_TASKS * rounds / max(t_vec.elapsed, 1e-9), 1
    )
    print(
        f"\nmeta_step over {N_TASKS} tasks: loop {t_loop.elapsed / rounds:.4f}s, "
        f"vectorized {t_vec.elapsed / rounds:.4f}s ({speedup:.1f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR


def test_adapt_corpus_vectorized_speedup(benchmark):
    """Serving-time multi-user fine-tuning: adapt_corpus vs a per-view loop."""
    corpus = _corpus(seed=1)
    maml = MAML(_model(), MAMLConfig(), seed=0)
    steps = 5
    maml.adapt_corpus(corpus, steps=steps)  # warm up
    oracles.adapt_view(maml, corpus, 0, steps=steps)

    rounds = 3
    with Timer() as t_loop:
        for _ in range(rounds):
            serial = [
                oracles.adapt_view(maml, corpus, view, steps=steps)
                for view in range(corpus.n_views)
            ]
    with Timer() as t_vec:
        for _ in range(rounds):
            batched = maml.adapt_corpus(corpus, steps=steps)

    # Same fast weights either way (the speedup does not change the math).
    for fast, ref in zip(batched, serial):
        for name in ref:
            np.testing.assert_allclose(fast[name], ref[name], rtol=1e-8, atol=1e-10)

    benchmark.pedantic(
        lambda: maml.adapt_corpus(corpus, steps=steps), rounds=3, iterations=1
    )
    speedup = t_loop.elapsed / max(t_vec.elapsed, 1e-9)
    benchmark.extra_info["n_users"] = N_TASKS
    benchmark.extra_info["finetune_steps"] = steps
    benchmark.extra_info["adapt_corpus_speedup"] = round(speedup, 2)
    benchmark.extra_info["users_per_second"] = round(
        N_TASKS * rounds / max(t_vec.elapsed, 1e-9), 1
    )
    print(
        f"\nadapt_corpus over {N_TASKS} users: loop {t_loop.elapsed / rounds:.4f}s, "
        f"vectorized {t_vec.elapsed / rounds:.4f}s ({speedup:.1f}x)"
    )
    assert speedup >= SPEEDUP_FLOOR
