"""Fused multi-domain CVAE training vs the sequential per-domain loop.

MetaDPA's block 1 trains one Dual-CVAE per source domain; the fused trainer
stacks the k models on a leading domain axis and runs every branch of every
domain in one numpy pass per step (`repro.cvae.trainer
.MultiDomainCVAETrainer`), with per-domain Adam state and clipping on the
same stacked axis.  This benchmark measures that fusion against the
sequential per-domain reference loop of ``tests/oracles.py`` at k ∈ {2, 3},
asserts the >=3x acceptance bar at k=3, and double-checks the numerics (both
paths must produce matching generated matrices — the speedup must not change
the math).

Results land in ``BENCH_*.json`` via the shared conftest harness.
"""

from __future__ import annotations

import os

import numpy as np

from repro.cvae.augment import DiversePreferenceAugmenter
from repro.cvae.cache import AugmentationCache
from repro.cvae.trainer import MultiDomainCVAETrainer, TrainerConfig
from repro.data.generator import (
    DomainSpec,
    GeneratorConfig,
    SyntheticMultiDomainGenerator,
)
from repro.utils.timing import Timer

import oracles

# Simulator-scale domains (tens of items, ~1e2 users): the regime every
# repo experiment runs in, and the one the paper's 300-epoch size-32
# minibatch loop spends its wall clock in.
N_USERS = 110
N_ITEMS = 25
VOCAB = 40
EPOCHS = 50
#: evaluation is monitoring, not training — keep a couple of eval points so
#: both paths pay it, without letting it dominate the measured loop.
EVAL_EVERY = 10
ROUNDS = 3
# >=3x locally at k=3; CI sets BENCH_SPEEDUP_FLOOR lower because shared
# runners' timing noise can halve micro-benchmark ratios.
SPEEDUP_FLOOR = float(os.environ.get("BENCH_SPEEDUP_FLOOR", 3.0))


def _dataset(k: int):
    generator = SyntheticMultiDomainGenerator(
        GeneratorConfig(latent_dim=4, vocab_size=VOCAB, n_topics=5, review_length=10),
        seed=7,
    )
    return generator.generate(
        sources=[
            DomainSpec(
                name=f"Src{i}",
                n_users=N_USERS,
                n_items=N_ITEMS + 5 * i,
                shared_user_frac=0.6,
            )
            for i in range(k)
        ],
        targets=[
            DomainSpec(
                name="Tgt", n_users=N_USERS, n_items=N_ITEMS,
                is_target=True, cold_user_frac=0.3,
            )
        ],
    )


def _augmenter(dataset) -> DiversePreferenceAugmenter:
    return DiversePreferenceAugmenter(
        dataset,
        "Tgt",
        trainer_config=TrainerConfig(epochs=EPOCHS, eval_every=EVAL_EVERY),
        seed=0,
    )


def _best_fit_times(dataset, rounds: int = ROUNDS) -> tuple[float, float]:
    """Best-of-N training wall times (sequential, fused).

    Best-of-n because single-core shared runners inject multiplicative
    noise; the minimum is the cleanest estimate of the true cost.  Fresh
    trainers every round — training mutates the models.
    """
    best_seq = best_fused = float("inf")
    for _ in range(rounds):
        trainers = _augmenter(dataset)._build_trainers()
        with Timer() as t_seq:
            for trainer in trainers:
                oracles.train_sequential(trainer)
        best_seq = min(best_seq, t_seq.elapsed)

        trainers = _augmenter(dataset)._build_trainers()
        with Timer() as t_fused:
            MultiDomainCVAETrainer(trainers).train()
        best_fused = min(best_fused, t_fused.elapsed)
    return best_seq, best_fused


def _record(benchmark, k, seq, fused):
    speedup = seq / max(fused, 1e-9)
    benchmark.extra_info["k"] = k
    benchmark.extra_info["epochs"] = EPOCHS
    benchmark.extra_info["sequential_seconds"] = round(seq, 4)
    benchmark.extra_info["fused_seconds"] = round(fused, 4)
    benchmark.extra_info["fused_speedup"] = round(speedup, 2)
    print(
        f"\nk={k} Dual-CVAE fit over {EPOCHS} epochs: "
        f"sequential {seq:.3f}s, fused {fused:.3f}s ({speedup:.2f}x)"
    )
    return speedup


def test_fused_training_speedup_k2(benchmark):
    dataset = _dataset(2)
    seq, fused = _best_fit_times(dataset)
    benchmark.pedantic(
        lambda: MultiDomainCVAETrainer(
            _augmenter(dataset)._build_trainers()
        ).train(),
        rounds=2,
        iterations=1,
    )
    speedup = _record(benchmark, 2, seq, fused)
    # k=2 fuses less work per pass; it must still clearly win.
    assert speedup >= min(SPEEDUP_FLOOR, 1.5)


def test_fused_training_speedup_k3(benchmark):
    dataset = _dataset(3)
    seq, fused = _best_fit_times(dataset)

    # The speedup must be a pure re-batching: both paths produce matching
    # augmented matrices (fresh augmenters; the timed ones were consumed).
    out_seq = oracles.fit_generate_sequential(_augmenter(dataset))
    out_fused = _augmenter(dataset).fit_generate()
    max_diff = max(
        float(np.max(np.abs(a - b)))
        for a, b in zip(out_seq.matrices, out_fused.matrices)
    )
    assert max_diff < 5e-3, f"fused and sequential matrices diverged ({max_diff})"

    benchmark.pedantic(
        lambda: MultiDomainCVAETrainer(
            _augmenter(dataset)._build_trainers()
        ).train(),
        rounds=2,
        iterations=1,
    )
    speedup = _record(benchmark, 3, seq, fused)
    benchmark.extra_info["max_matrix_diff"] = max_diff
    assert speedup >= SPEEDUP_FLOOR


def test_augmentation_cache_hit_speedup(benchmark, tmp_path):
    """A warm cache turns the whole k-CVAE fit into one npz read."""
    dataset = _dataset(3)
    cache = AugmentationCache(tmp_path / "aug")

    def run():
        augmenter = _augmenter(dataset)
        augmenter.cache = cache
        augmenter._cache_token = "bench"
        return augmenter.fit_generate()

    with Timer() as t_miss:
        run()  # cold: trains k CVAEs, writes the entry
    with Timer() as t_hit:
        out = run()  # warm: disk read only
    benchmark.pedantic(run, rounds=3, iterations=1)

    speedup = t_miss.elapsed / max(t_hit.elapsed, 1e-9)
    benchmark.extra_info["miss_seconds"] = round(t_miss.elapsed, 4)
    benchmark.extra_info["hit_seconds"] = round(t_hit.elapsed, 4)
    benchmark.extra_info["cache_hit_speedup"] = round(speedup, 1)
    print(
        f"\naugmentation cache: miss {t_miss.elapsed:.3f}s, "
        f"hit {t_hit.elapsed:.4f}s ({speedup:.0f}x)"
    )
    assert out.k == 3
    assert speedup >= 5.0
