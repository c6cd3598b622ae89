"""Augmentation cache: keys, durability, and grid-runner integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cvae.augment import AugmentedRatings, DiversePreferenceAugmenter
from repro.cvae.cache import AugmentationCache
from repro.cvae.trainer import TrainerConfig
from repro.runner import GridSpec, grid_status, run_grid
from repro.runner.spec import DatasetSpec
from repro.runner.store import RunStore


def _augmented(seed=0, k=2, users=5, items=4) -> AugmentedRatings:
    rng = np.random.default_rng(seed)
    return AugmentedRatings(
        target_name="Tgt",
        source_names=[f"Src{j}" for j in range(k)],
        matrices=[rng.random((users, items)).astype(np.float32) for _ in range(k)],
    )


class TestCacheStore:
    def test_round_trip(self, tmp_path):
        cache = AugmentationCache(tmp_path / "aug")
        out = _augmented()
        key = cache.key("Tgt", 7, {"beta1": 0.1}, TrainerConfig(epochs=3))
        assert cache.load(key) is None
        cache.save(key, out)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.target_name == out.target_name
        assert loaded.source_names == out.source_names
        for a, b in zip(loaded.matrices, out.matrices):
            np.testing.assert_array_equal(a, b)
        assert len(cache) == 1

    def test_key_depends_on_every_ingredient(self):
        base = dict(
            target_name="Tgt",
            seed=7,
            cvae_overrides={"beta1": 0.1},
            trainer_config=TrainerConfig(epochs=3),
            token="ds-a",
        )
        key = AugmentationCache.key(**base)
        assert key == AugmentationCache.key(**base)  # stable
        for change in (
            {"target_name": "Other"},
            {"seed": 8},
            {"cvae_overrides": {"beta1": 0.2}},
            {"trainer_config": TrainerConfig(epochs=4)},
            {"token": "ds-b"},
        ):
            assert AugmentationCache.key(**{**base, **change}) != key

    def test_key_ignores_eval_every(self):
        """Evaluation frequency is monitoring-only: it must not bust the cache."""
        a = AugmentationCache.key("Tgt", 0, None, TrainerConfig(eval_every=1))
        b = AugmentationCache.key("Tgt", 0, None, TrainerConfig(eval_every=7))
        assert a == b

    def test_key_insensitive_to_override_order(self):
        a = AugmentationCache.key(
            "Tgt", 0, {"beta1": 0.1, "latent_dim": 4}, TrainerConfig()
        )
        b = AugmentationCache.key(
            "Tgt", 0, {"latent_dim": 4, "beta1": 0.1}, TrainerConfig()
        )
        assert a == b

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = AugmentationCache(tmp_path)
        key = cache.key("Tgt", 0, None, TrainerConfig())
        cache.save(key, _augmented())
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[: 40])  # truncate mid-archive
        assert cache.load(key) is None
        path.write_bytes(b"not an npz at all")
        assert cache.load(key) is None

    def test_nan_entry_is_a_miss(self, tmp_path):
        cache = AugmentationCache(tmp_path)
        out = _augmented()
        out.matrices[0][0, 0] = np.nan
        key = cache.key("Tgt", 0, None, TrainerConfig())
        cache.save(key, out)
        assert cache.load(key) is None


class TestAugmenterCaching:
    def test_hit_skips_training_and_reproduces_matrices(self, tiny_dataset, tmp_path):
        cache = AugmentationCache(tmp_path / "aug")
        kwargs = dict(
            trainer_config=TrainerConfig(epochs=6), seed=3, cache=cache,
            cache_token="tiny",
        )
        first = DiversePreferenceAugmenter(tiny_dataset, "Tgt", **kwargs)
        out_first = first.fit_generate()
        assert first.cache_hit is False
        assert first.n_trained == len(tiny_dataset.sources)

        second = DiversePreferenceAugmenter(tiny_dataset, "Tgt", **kwargs)
        out_second = second.fit_generate()
        assert second.cache_hit is True
        assert second.n_trained == 0
        assert second.trainers == []  # no models were built, let alone trained
        for a, b in zip(out_first.matrices, out_second.matrices):
            np.testing.assert_array_equal(a, b)

    def test_different_seed_misses(self, tiny_dataset, tmp_path):
        cache = AugmentationCache(tmp_path / "aug")
        config = TrainerConfig(epochs=5)
        DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=config, seed=0, cache=cache
        ).fit_generate()
        other = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=config, seed=1, cache=cache
        )
        other.fit_generate()
        assert other.cache_hit is False
        assert len(cache) == 2

    def test_mismatched_cached_entry_is_recomputed(self, tiny_dataset, tmp_path):
        """A colliding entry from another dataset must not be served."""
        cache = AugmentationCache(tmp_path / "aug")
        config = TrainerConfig(epochs=5)
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=config, seed=0, cache=cache
        )
        # Poison the exact key with an entry of the wrong shape/sources.
        cache.save(augmenter.cache_key(), _augmented(k=1, users=3, items=2))
        out = augmenter.fit_generate()
        assert augmenter.cache_hit is False
        assert augmenter.n_trained == len(tiny_dataset.sources)
        target = tiny_dataset.targets["Tgt"]
        assert out.matrices[0].shape == (target.n_users, target.n_items)

    def test_no_cache_means_no_bookkeeping(self, tiny_dataset):
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=TrainerConfig(epochs=5), seed=0
        )
        augmenter.fit_generate()
        assert augmenter.cache_hit is None


class TestGridIntegration:
    """A warm grid run retrains zero Dual-CVAEs, visibly in grid status."""

    @pytest.fixture(scope="class")
    def metadpa_spec(self):
        return GridSpec(
            methods=[{
                "name": "MetaDPA",
                "cvae_epochs": 5,
                "meta_epochs": 1,
                "finetune_steps": 1,
                "cvae_hidden_dim": 16,
                "latent_dim": 4,
            }],
            targets=["Books"],
            scenarios=["warm-start"],
            seeds=[0],
            dataset=DatasetSpec(user_base=60, item_base=40, seed=1),
        )

    def test_warm_rerun_retrains_zero_cvaes(self, metadpa_spec, tmp_path):
        run_dir = tmp_path / "grid"
        report = run_grid(metadpa_spec, run_dir, workers=1)
        assert report.ok, report.failures

        store = RunStore(run_dir)
        cell = metadpa_spec.expand()[0]
        first = store.load_cell(cell.key)
        assert first.extras["augmentation_cache"] == "miss"
        assert first.extras["cvae_trainings"] > 0

        status = grid_status(run_dir)
        assert status.n_augmentations_cached == 1
        assert status.augmentation_misses == 1

        # resume=False recomputes the cell; the augmentation must come from
        # the cache with zero Dual-CVAE trainings.
        report = run_grid(metadpa_spec, run_dir, workers=1, resume=False)
        assert report.ok, report.failures
        second = store.load_cell(cell.key)
        assert second.extras["augmentation_cache"] == "hit"
        assert second.extras["cvae_trainings"] == 0

        status = grid_status(run_dir)
        assert status.n_augmentations_cached == 1
        assert status.augmentation_hits == 1
        assert "augmentation cache: 1 entry" in status.format_table()

        # identical metrics either way: the cache changes cost, not results
        np.testing.assert_allclose(second.metrics.ndcg, first.metrics.ndcg)
        np.testing.assert_allclose(second.metrics.auc, first.metrics.auc)
