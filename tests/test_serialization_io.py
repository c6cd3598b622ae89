"""Persistence: parameter archives, dataset archives, schedulers, reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.io import load_dataset, save_dataset
from repro.nn import Adam, load_params, save_params

from nn_extras import SGD, CosineDecay, StepDecay, WarmupLinear
from oracles import predict


def params_equal(a, b, atol: float = 0.0) -> bool:
    """Whether two parameter dicts have identical keys and close values."""
    if set(a) != set(b):
        return False
    return all(np.allclose(a[name], b[name], atol=atol) for name in a)


class TestParamsSerialization:
    def test_roundtrip(self, tmp_path):
        params = {
            "enc.0.W": np.random.default_rng(0).normal(size=(4, 3)),
            "enc.0.b": np.zeros(3),
        }
        path = tmp_path / "weights.npz"
        save_params(path, params, config={"latent_dim": 3})
        loaded, config = load_params(path)
        assert params_equal(params, loaded)
        assert config == {"latent_dim": 3}

    def test_roundtrip_without_config(self, tmp_path):
        params = {"x": np.arange(5.0)}
        path = tmp_path / "w.npz"
        save_params(path, params)
        loaded, config = load_params(path)
        assert config is None
        assert params_equal(params, loaded)

    def test_params_equal_detects_differences(self):
        a = {"x": np.ones(3)}
        assert not params_equal(a, {"x": np.zeros(3)})
        assert not params_equal(a, {"y": np.ones(3)})
        assert params_equal(a, {"x": np.ones(3) + 1e-12}, atol=1e-9)

    def test_model_roundtrip(self, tmp_path):
        from repro.meta.model import PreferenceModel, PreferenceModelConfig

        model = PreferenceModel(
            PreferenceModelConfig(content_dim=5, embed_dim=3, hidden_dims=(4,))
        )
        params = model.init_params(0)
        save_params(tmp_path / "m.npz", params)
        loaded, _ = load_params(tmp_path / "m.npz")
        rng = np.random.default_rng(1)
        cu, ci = rng.random((3, 5)), rng.random((3, 5))
        np.testing.assert_allclose(
            predict(model, params, cu, ci), predict(model, loaded, cu, ci)
        )

    def test_save_returns_resolved_path_and_appends_suffix(self, tmp_path):
        params = {"x": np.ones(3)}
        returned = save_params(tmp_path / "model.weights", params)
        assert returned == tmp_path / "model.weights.npz"
        assert returned.exists()
        returned = save_params(tmp_path / "plain.npz", params)
        assert returned == tmp_path / "plain.npz"

    def test_save_is_atomic_no_temp_leftovers(self, tmp_path):
        save_params(tmp_path / "w.npz", {"x": np.arange(4.0)})
        leftovers = [p for p in tmp_path.iterdir() if p.name != "w.npz"]
        assert leftovers == []


class TestMmapLoading:
    @staticmethod
    def _params():
        rng = np.random.default_rng(0)
        return {
            "enc.W": rng.normal(size=(16, 8)),
            "small": np.arange(6, dtype=np.float32),
            "fortran": np.asfortranarray(rng.normal(size=(5, 4))),
            "flags": np.array([1, 0, 1], dtype=np.uint8),
        }

    def test_mmap_roundtrip_bitwise(self, tmp_path):
        params = self._params()
        path = save_params(tmp_path / "w.npz", params, config={"k": 2})
        mapped, config = load_params(path, mmap_mode="r")
        assert config == {"k": 2}
        for name, value in params.items():
            assert isinstance(mapped[name], np.memmap), name
            np.testing.assert_array_equal(value, mapped[name])
            assert mapped[name].dtype == value.dtype

    def test_mmap_preserves_memory_order(self, tmp_path):
        path = save_params(tmp_path / "w.npz", self._params())
        mapped, _ = load_params(path, mmap_mode="r")
        assert mapped["fortran"].flags.f_contiguous
        assert mapped["enc.W"].flags.c_contiguous

    def test_mmap_is_read_only(self, tmp_path):
        path = save_params(tmp_path / "w.npz", self._params())
        mapped, _ = load_params(path, mmap_mode="r")
        with pytest.raises(ValueError):
            mapped["small"][0] = 99.0

    def test_copy_on_write_does_not_touch_artifact(self, tmp_path):
        path = save_params(tmp_path / "w.npz", self._params())
        cow, _ = load_params(path, mmap_mode="c")
        cow["small"][0] = 99.0
        fresh, _ = load_params(path, mmap_mode="r")
        assert fresh["small"][0] == 0.0

    def test_rejects_writable_modes(self, tmp_path):
        path = save_params(tmp_path / "w.npz", self._params())
        with pytest.raises(ValueError, match="mmap_mode"):
            load_params(path, mmap_mode="r+")

    def test_compressed_archive_falls_back_to_eager(self, tmp_path):
        # np.savez_compressed members cannot be mapped; the loader must
        # still return correct (eager) arrays rather than fail.
        params = self._params()
        path = tmp_path / "c.npz"
        np.savez_compressed(path, **params)
        loaded, config = load_params(path, mmap_mode="r")
        assert config is None
        for name, value in params.items():
            assert not isinstance(loaded[name], np.memmap)
            np.testing.assert_array_equal(value, loaded[name])


class TestDatasetIO:
    def test_roundtrip(self, tmp_path, tiny_dataset):
        path = tmp_path / "dataset.npz"
        save_dataset(path, tiny_dataset)
        loaded = load_dataset(path)
        assert loaded.source_names() == tiny_dataset.source_names()
        assert loaded.target_names() == tiny_dataset.target_names()
        original = tiny_dataset.targets["Tgt"]
        restored = loaded.targets["Tgt"]
        np.testing.assert_array_equal(original.ratings, restored.ratings)
        np.testing.assert_allclose(original.user_content, restored.user_content)
        np.testing.assert_array_equal(original.user_ids, restored.user_ids)
        assert restored.has_reviews()
        np.testing.assert_allclose(original.review_counts, restored.review_counts)

    def test_pairs_restored(self, tmp_path, tiny_dataset):
        path = tmp_path / "dataset.npz"
        save_dataset(path, tiny_dataset)
        loaded = load_dataset(path)
        for key, pair in tiny_dataset.pairs.items():
            restored = loaded.pairs[key]
            np.testing.assert_array_equal(
                pair.shared_user_ids, restored.shared_user_ids
            )
            np.testing.assert_array_equal(
                pair.ratings_target, restored.ratings_target
            )

    def test_vocab_restored(self, tmp_path, tiny_dataset):
        path = tmp_path / "d.npz"
        save_dataset(path, tiny_dataset)
        loaded = load_dataset(path)
        np.testing.assert_allclose(
            loaded.vocab.topic_word, tiny_dataset.vocab.topic_word
        )


class TestSchedulers:
    @staticmethod
    def _optimizer():
        return Adam({"x": np.zeros(1)}, lr=0.1)

    def test_step_decay(self):
        opt = self._optimizer()
        sched = StepDecay(opt, step_size=2, gamma=0.5)
        rates = [sched.step() for _ in range(4)]
        assert rates[0] == pytest.approx(0.1)   # epoch 1
        assert rates[1] == pytest.approx(0.05)  # epoch 2
        assert rates[3] == pytest.approx(0.025)
        assert opt.lr == rates[-1]

    def test_cosine_decay_monotone_to_min(self):
        opt = self._optimizer()
        sched = CosineDecay(opt, total_epochs=10, min_lr=1e-4)
        rates = [sched.step() for _ in range(12)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(1e-4, rel=1e-6)

    def test_warmup_then_decay(self):
        opt = self._optimizer()
        sched = WarmupLinear(opt, warmup_epochs=3, total_epochs=10, min_lr=1e-4)
        rates = [sched.step() for _ in range(10)]
        assert rates[0] < rates[2]
        assert rates[2] == pytest.approx(0.1)
        assert rates[-1] == pytest.approx(1e-4, rel=1e-4)

    def test_validation(self):
        opt = self._optimizer()
        with pytest.raises(ValueError):
            StepDecay(opt, step_size=0)
        with pytest.raises(ValueError):
            CosineDecay(opt, total_epochs=0)
        with pytest.raises(ValueError):
            WarmupLinear(opt, warmup_epochs=5, total_epochs=5)

    def test_sgd_uses_scheduled_rate(self):
        params = {"x": np.array([1.0])}
        opt = SGD(params, lr=1.0)
        sched = StepDecay(opt, step_size=1, gamma=0.1)
        sched.step()
        opt.step({"x": np.array([1.0])})
        # After one decay the rate is 0.1, so x moves by exactly 0.1.
        assert params["x"][0] == pytest.approx(0.9)
