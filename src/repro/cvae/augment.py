"""Diverse preference augmentation (paper Sec. IV-B).

After the k Dual-CVAEs are trained, each one's content-encoder →
target-decoder path is run on the content of *every* user in the target
domain, producing k continuous rating vectors per user.  Those vectors,
together with the original binary ratings, become the label sets of the
augmented meta-learning tasks (Eq. 10).

The k Dual-CVAEs always train fused: their parameters are stacked along a
leading domain axis and all k train in one numpy pass per step
(:class:`~repro.cvae.trainer.MultiDomainCVAETrainer`), whatever k, item
widths and decoder output activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.cvae.model import CVAEConfig
from repro.cvae.trainer import DualCVAETrainer, MultiDomainCVAETrainer, TrainerConfig
from repro.data.domain import Domain, MultiDomainDataset
from repro.utils.rng import spawn_rngs

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (cache stores us)
    from repro.cvae.cache import AugmentationCache


@dataclass
class AugmentedRatings:
    """k generated rating matrices for one target domain.

    ``matrices[j]`` has shape ``(n_target_users, n_target_items)`` with
    entries in [0, 1]; ``source_names[j]`` records which source domain's
    Dual-CVAE generated it.
    """

    target_name: str
    source_names: list[str]
    matrices: list[np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        if len(self.source_names) != len(self.matrices):
            raise ValueError("one source name per generated matrix")
        shapes = {m.shape for m in self.matrices}
        if len(shapes) > 1:
            raise ValueError(f"inconsistent matrix shapes: {shapes}")

    @property
    def k(self) -> int:
        return len(self.matrices)

    def for_user(self, user_row: int) -> list[np.ndarray]:
        """The k generated rating vectors of one user."""
        return [m[user_row] for m in self.matrices]


class DiversePreferenceAugmenter:
    """Trains k Dual-CVAEs (one per source domain) and generates ratings.

    Usage::

        augmenter = DiversePreferenceAugmenter(dataset, "Books", seed=0)
        augmenter.fit()
        augmented = augmenter.generate()

    All k CVAEs train jointly on a stacked domain axis.  An optional
    :class:`~repro.cvae.cache.AugmentationCache` short-circuits
    :meth:`fit_generate` entirely when an identical augmentation (same
    target, seed, CVAE hyper-parameters and dataset ``cache_token``) was
    computed before.
    """

    def __init__(
        self,
        dataset: MultiDomainDataset,
        target_name: str,
        cvae_config_overrides: dict | None = None,
        trainer_config: TrainerConfig | None = None,
        seed: int = 0,
        cache: "AugmentationCache | None" = None,
        cache_token: str = "",
    ):
        if target_name not in dataset.targets:
            raise KeyError(f"unknown target domain {target_name!r}")
        self.dataset = dataset
        self.target_name = target_name
        self._overrides = dict(cvae_config_overrides or {})
        self._trainer_config = trainer_config or TrainerConfig()
        self._seed = seed
        self.cache = cache
        self._cache_token = cache_token
        #: ``None`` until a cache-aware :meth:`fit_generate` ran; then True
        #: for a cache hit (no training happened) and False for a miss.
        self.cache_hit: bool | None = None
        #: number of Dual-CVAE trainings this augmenter actually ran.
        self.n_trained = 0
        self.trainers: list[DualCVAETrainer] = []

    def _build_trainers(self) -> list[DualCVAETrainer]:
        pairs = self.dataset.pairs_for_target(self.target_name)
        rngs = spawn_rngs(self._seed, len(pairs))
        trainers = []
        for pair, rng in zip(pairs, rngs):
            config = CVAEConfig(
                n_items_source=pair.ratings_source.shape[1],
                n_items_target=pair.ratings_target.shape[1],
                content_dim=pair.content_source.shape[1],
                **self._overrides,
            )
            trainers.append(
                DualCVAETrainer(
                    pair,
                    cvae_config=config,
                    trainer_config=self._trainer_config,
                    seed=int(rng.integers(0, 2**31 - 1)),
                )
            )
        return trainers

    def fit(self) -> "DiversePreferenceAugmenter":
        """Train one Dual-CVAE per (source → target) pair, all k in one
        stacked pass per step.

        The k models stay statistically independent: fusing only changes
        how the arithmetic is batched, not what is computed.
        """
        trainers = self._build_trainers()
        MultiDomainCVAETrainer(trainers).train()
        self.trainers = trainers
        self.n_trained += len(trainers)
        return self

    def generate(self) -> AugmentedRatings:
        """Generate the k diverse rating matrices for all target users."""
        if not self.trainers:
            raise RuntimeError("call fit() before generate()")
        target: Domain = self.dataset.targets[self.target_name]
        matrices = [
            trainer.model.generate_from_content(target.user_content)
            for trainer in self.trainers
        ]
        return AugmentedRatings(
            target_name=self.target_name,
            source_names=[t.pair.source_name for t in self.trainers],
            matrices=matrices,
        )

    def cache_key(self) -> str | None:
        """The content key this augmentation is stored under, if caching."""
        if self.cache is None:
            return None
        return self.cache.key(
            self.target_name,
            self._seed,
            self._overrides,
            self._trainer_config,
            token=self._cache_token,
        )

    def _cached_entry_matches(self, cached: AugmentedRatings) -> bool:
        """Guard against key collisions / shared caches across datasets.

        A hit must describe *this* dataset: one matrix of exactly the
        target's shape per source domain.  Anything else (a cache shared
        between benchmarks without distinct ``cache_token`` values) is
        treated as a miss and recomputed rather than trained on.
        """
        target = self.dataset.targets[self.target_name]
        expected_sources = [
            pair.source_name for pair in self.dataset.pairs_for_target(self.target_name)
        ]
        return (
            cached.target_name == self.target_name
            and cached.source_names == expected_sources
            and all(
                matrix.shape == (target.n_users, target.n_items)
                for matrix in cached.matrices
            )
        )

    def fit_generate(self) -> AugmentedRatings:
        """:meth:`fit` then :meth:`generate`, via the cache when attached."""
        key = self.cache_key()
        if key is not None:
            cached = self.cache.load(key)
            if cached is not None and self._cached_entry_matches(cached):
                self.cache_hit = True
                return cached
            self.cache_hit = False
        augmented = self.fit().generate()
        if key is not None:
            self.cache.save(key, augmented)
        return augmented


def rating_diversity(augmented: AugmentedRatings) -> float:
    """Mean pairwise L2 distance between the k generated rating matrices.

    This is the quantity the ME constraint is supposed to increase; the
    ablation benchmarks report it to show β2's effect directly.  One
    broadcasted pairwise pass replaces the former O(k²) Python pair loop.
    Returns 0.0 when k < 2.
    """
    mats = augmented.matrices
    k = len(mats)
    if k < 2:
        return 0.0
    stacked = np.stack(mats).astype(np.float64)  # (k, users, items)
    # Index only the k(k-1)/2 distinct pairs — a full (k, k, ...) broadcast
    # would square the peak memory for the redundant triangle + diagonal.
    left, right = np.triu_indices(k, 1)
    diff = stacked[left] - stacked[right]  # (pairs, users, items)
    per_user = np.sqrt((diff * diff).sum(axis=2))  # (pairs, users)
    return float(per_user.mean(axis=1).mean())
