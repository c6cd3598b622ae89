"""Dual-CVAE: gradient correctness, training dynamics, augmentation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cvae.augment import AugmentedRatings, DiversePreferenceAugmenter, rating_diversity
from repro.cvae.model import CVAEConfig, DualCVAE
from repro.cvae.trainer import DualCVAETrainer, TrainerConfig

from gradcheck import numerical_gradient, relative_error
from oracles import cvae_loss_and_grads


def _tiny_config(**overrides) -> CVAEConfig:
    defaults = dict(
        n_items_source=7,
        n_items_target=6,
        content_dim=5,
        latent_dim=3,
        hidden_dim=8,
        beta1=0.1,
        beta2=1.0,
    )
    defaults.update(overrides)
    return CVAEConfig(**defaults)


def _tiny_batch(n=4, config=None, seed=0):
    config = config or _tiny_config()
    rng = np.random.default_rng(seed)
    rs = (rng.random((n, config.n_items_source)) < 0.3).astype(float)
    rt = (rng.random((n, config.n_items_target)) < 0.3).astype(float)
    xs = rng.random((n, config.content_dim))
    xt = rng.random((n, config.content_dim))
    return rs, rt, xs, xt


class TestCVAEConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _tiny_config(latent_dim=0)
        with pytest.raises(ValueError):
            _tiny_config(beta1=-1.0)
        with pytest.raises(ValueError):
            _tiny_config(out_activation="relu")
        with pytest.raises(ValueError):
            _tiny_config(content_dim=0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"beta1": float("nan")},
            {"beta2": float("inf")},
            {"infonce_temperature": 0.0},
            {"infonce_temperature": -1.0},
            {"infonce_temperature": float("nan")},
        ],
    )
    def test_non_finite_constraint_settings_rejected(self, setting):
        """Each of these used to build; a zero temperature then trained to
        non-finite matrices without an error, and a NaN one failed ``fit``
        with a misleading hyper-parameter mismatch."""
        with pytest.raises(ValueError, match=next(iter(setting))):
            _tiny_config(**setting)


class TestDualCVAEForward:
    def test_param_namespaces(self):
        model = DualCVAE(_tiny_config(), rng=0)
        prefixes = {name.split(".")[0] for name in model.params}
        assert prefixes == {
            "enc_s", "enc_x_s", "dec_s", "crit_s",
            "enc_t", "enc_x_t", "dec_t", "crit_t",
        }

    def test_encode_shapes(self):
        config = _tiny_config()
        model = DualCVAE(config, rng=0)
        rs, rt, xs, xt = _tiny_batch(config=config)
        mu, log_var, _ = model.encode("s", rs, xs)
        assert mu.shape == (4, config.latent_dim)
        assert log_var.shape == (4, config.latent_dim)

    def test_generate_from_content_range(self):
        config = _tiny_config()
        model = DualCVAE(config, rng=0)
        _, _, _, xt = _tiny_batch(config=config)
        out = model.generate_from_content(xt)
        assert out.shape == (4, config.n_items_target)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_softmax_output_option(self):
        config = _tiny_config(out_activation="softmax")
        model = DualCVAE(config, rng=0)
        _, _, _, xt = _tiny_batch(config=config)
        out = model.generate_from_content(xt)
        # float32 end-to-end: sums match 1 to single-precision rounding.
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_params_and_outputs_are_float32(self):
        """Parameters, reference gradients and generations stay float32."""
        config = _tiny_config()
        model = DualCVAE(config, rng=0)
        assert all(v.dtype == np.float32 for v in model.params.values())
        batch = _tiny_batch(config=config)
        losses, grads = cvae_loss_and_grads(model, *batch, rng=0)
        assert all(g.dtype == np.float32 for g in grads.values())
        out = model.generate_from_content(batch[3])
        assert out.dtype == np.float32


class TestDualCVAEGradients:
    """The scalar reference loss: gradients against numerical differentiation.

    The reparameterization noise is frozen by seeding the same generator, so
    the loss is a deterministic function of the parameters.  The fused
    model's own check is ``test_cvae_fused.TestFusedGradients``.
    """

    @pytest.mark.parametrize("beta1,beta2", [(0.0, 0.0), (0.1, 1.0)])
    def test_grads_match_numerical(self, beta1, beta2):
        config = _tiny_config(beta1=beta1, beta2=beta2)
        # float64: finite differences at eps=1e-5 would drown in float32
        # rounding; the shipped model trains in float32.
        model = DualCVAE(config, rng=0, dtype=np.float64)
        batch = _tiny_batch(config=config)

        def loss_fn():
            losses, _ = cvae_loss_and_grads(model, *batch, rng=np.random.default_rng(42))
            return losses["total"]

        _, grads = cvae_loss_and_grads(model, *batch, rng=np.random.default_rng(42))
        # Spot-check a few parameters from different components.
        for name in ["enc_s.0.W", "enc_x_t.0.b", "dec_t.0.W", "dec_s.2.b"]:
            p = model.params[name]

            def loss_given(p_new, name=name):
                saved = model.params[name]
                model.params[name] = p_new
                value = loss_fn()
                model.params[name] = saved
                return value

            num = numerical_gradient(loss_given, p.copy(), eps=1e-5)
            assert relative_error(grads[name], num) < 5e-3, name

    def test_critic_grads_only_with_me(self):
        config = _tiny_config(beta2=0.0)
        model = DualCVAE(config, rng=0)
        _, grads = cvae_loss_and_grads(model, *_tiny_batch(config=config), rng=0)
        crit_norm = sum(
            float(np.abs(g).sum()) for n, g in grads.items() if n.startswith("crit")
        )
        assert crit_norm == 0.0

    def test_loss_terms_present(self):
        model = DualCVAE(_tiny_config(), rng=0)
        losses, _ = cvae_loss_and_grads(model, *_tiny_batch(), rng=0)
        assert set(losses) == {
            "elbo_recon", "kl", "mse", "cross_recon", "mdi", "me", "total",
        }
        assert losses["total"] == pytest.approx(
            losses["elbo_recon"]
            + losses["kl"]
            + losses["mse"]
            + losses["cross_recon"]
            + 0.1 * losses["mdi"]
            + 1.0 * losses["me"]
        )

    def test_grads_cover_all_params(self):
        model = DualCVAE(_tiny_config(), rng=0)
        _, grads = cvae_loss_and_grads(model, *_tiny_batch(), rng=0)
        assert set(grads) == set(model.params)


class TestTrainer:
    def test_training_reduces_loss(self, tiny_dataset):
        pair = tiny_dataset.pairs[("SrcA", "Tgt")]
        trainer = DualCVAETrainer(
            pair, trainer_config=TrainerConfig(epochs=40), seed=0
        )
        history = trainer.train()
        assert history.train_loss[-1] < history.train_loss[0]
        assert len(history.train_loss) == 40
        assert len(history.eval_loss) == 40

    def test_config_mismatch_rejected(self, tiny_dataset):
        pair = tiny_dataset.pairs[("SrcA", "Tgt")]
        bad = CVAEConfig(
            n_items_source=3, n_items_target=3, content_dim=3
        )
        with pytest.raises(ValueError):
            DualCVAETrainer(pair, cvae_config=bad)

    def test_trainer_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(eval_fraction=1.0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"lr": 0.0},
            {"weight_decay": float("nan")},
            {"weight_decay": -1e-5},
            {"grad_clip": float("nan")},
            {"grad_clip": 0.0},
        ],
    )
    def test_non_finite_or_non_positive_settings_rejected(self, setting):
        """A NaN learning rate used to train to NaN matrices, and a NaN
        clip norm silently turned clipping off."""
        with pytest.raises(ValueError, match=next(iter(setting))):
            TrainerConfig(**setting)


class TestAugmentation:
    @pytest.fixture(scope="class")
    def augmented(self, tiny_dataset):
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=TrainerConfig(epochs=30), seed=0
        )
        return augmenter, augmenter.fit_generate()

    def test_one_matrix_per_source(self, tiny_dataset, augmented):
        _, out = augmented
        assert out.k == len(tiny_dataset.sources)
        assert set(out.source_names) == set(tiny_dataset.sources)

    def test_matrix_shapes_and_range(self, tiny_dataset, augmented):
        _, out = augmented
        target = tiny_dataset.targets["Tgt"]
        for matrix in out.matrices:
            assert matrix.shape == (target.n_users, target.n_items)
            assert np.all((matrix >= 0.0) & (matrix <= 1.0))

    def test_for_user(self, augmented):
        _, out = augmented
        vectors = out.for_user(0)
        assert len(vectors) == out.k

    def test_diversity_positive(self, augmented):
        _, out = augmented
        assert rating_diversity(out) > 0.0

    def test_diversity_zero_for_single_source(self, augmented):
        _, out = augmented
        single = AugmentedRatings(
            target_name=out.target_name,
            source_names=out.source_names[:1],
            matrices=out.matrices[:1],
        )
        assert rating_diversity(single) == 0.0

    def test_generate_before_fit_raises(self, tiny_dataset):
        augmenter = DiversePreferenceAugmenter(tiny_dataset, "Tgt", seed=0)
        with pytest.raises(RuntimeError):
            augmenter.generate()

    def test_unknown_target_raises(self, tiny_dataset):
        with pytest.raises(KeyError):
            DiversePreferenceAugmenter(tiny_dataset, "Nope", seed=0)

    def test_validation_of_matrices(self):
        with pytest.raises(ValueError):
            AugmentedRatings(
                target_name="T",
                source_names=["a"],
                matrices=[np.zeros((2, 2)), np.zeros((2, 2))],
            )
        with pytest.raises(ValueError):
            AugmentedRatings(
                target_name="T",
                source_names=["a", "b"],
                matrices=[np.zeros((2, 2)), np.zeros((3, 2))],
            )


class TestMEConstraintEffect:
    """The ME constraint measurably changes what the decoders generate.

    Note: in this reproduction the ME term *aligns* each target decoder with
    its own source's reconstruction (maximizing their mutual information, as
    Eq. 7 specifies), which at simulator scale tends to trade raw
    cross-source L2 diversity for source-specific structure.  The functional
    consequence — the Fig. 5 accuracy ordering — is benchmarked separately;
    here we pin that β2 actually flows into the generations.
    """

    def _generate(self, dataset, beta2: float):
        augmenter = DiversePreferenceAugmenter(
            dataset,
            "Tgt",
            cvae_config_overrides={"beta2": beta2},
            trainer_config=TrainerConfig(epochs=60),
            seed=0,
        )
        return augmenter.fit_generate()

    def test_beta2_changes_generations(self, tiny_dataset):
        without = self._generate(tiny_dataset, 0.0)
        with_me = self._generate(tiny_dataset, 4.0)
        delta = np.abs(without.matrices[0] - with_me.matrices[0]).mean()
        assert delta > 1e-3

    def test_diversity_positive_under_me(self, tiny_dataset):
        out = self._generate(tiny_dataset, 1.0)
        assert rating_diversity(out) > 0.0
