"""Preference model, MAML and the MetaDPA recommender."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.splits import Scenario
from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpusBuilder, pack_content
from repro.meta.maml import MAML, MAMLConfig, subsample_support
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.meta.trainer import MetaDPA, MetaDPAConfig, _sharpen_per_user

from gradcheck import numerical_gradient, relative_error


def _model(content_dim=6, dtype=np.float64) -> PreferenceModel:
    # float64 by default here: numerical-gradient checks (and the exact
    # zero-step identity below) need more headroom than the float32 the
    # meta stack trains in.
    return PreferenceModel(
        PreferenceModelConfig(
            content_dim=content_dim, embed_dim=4, hidden_dims=(5,), dtype=dtype
        )
    )


def _batch(n=8, content_dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.random((n, content_dim)),
        rng.random((n, content_dim)),
        (rng.random(n) < 0.5).astype(float),
    )


class TestPreferenceModel:
    def test_forward_shape_and_range(self):
        model = _model()
        params = model.init_params(0)
        cu, ci, _ = _batch()
        preds, _ = model.forward(params, cu, ci)
        assert preds.shape == (8,)
        assert np.all((preds > 0) & (preds < 1))

    def test_loss_grads_match_numerical(self):
        model = _model()
        params = model.init_params(1)
        cu, ci, labels = _batch()
        _, grads = model.loss_and_grads(params, cu, ci, labels)
        for name in ["user_embed.0.W", "item_embed.0.b", "mlp.0.W", "mlp.2.b"]:
            def loss(p, name=name):
                saved = params[name]
                params[name] = p
                value = model.loss_and_grads(params, cu, ci, labels)[0]
                params[name] = saved
                return value

            num = numerical_gradient(loss, params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name

    def test_decision_params_are_mlp(self):
        model = _model()
        params = model.init_params(0)
        decision = model.decision_params(params)
        assert decision
        assert all(name.startswith("mlp.") for name in decision)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreferenceModelConfig(content_dim=0)
        with pytest.raises(ValueError):
            PreferenceModelConfig(content_dim=4, hidden_dims=(0,))

    def test_soft_labels_accepted(self):
        model = _model()
        params = model.init_params(0)
        cu, ci, _ = _batch()
        soft = np.linspace(0.1, 0.9, 8)
        loss, _ = model.loss_and_grads(params, cu, ci, soft)
        assert np.isfinite(loss)


def _corpus(n_tasks=1, content_dim=6, seed=0):
    """``n_tasks`` tasks of 6 support and 4 query rows, one user each."""
    rng = np.random.default_rng(seed)
    builder = TaskCorpusBuilder(
        pack_content(rng.random((n_tasks, content_dim)), rng.random((40, content_dim)))
    )
    for user in range(n_tasks):
        items = rng.choice(40, size=10, replace=False)
        builder.add_task(
            PreferenceTask(
                user_row=user,
                support_items=items[:6],
                support_labels=(rng.random(6) < 0.5).astype(float),
                query_items=items[6:],
                query_labels=(rng.random(4) < 0.5).astype(float),
            )
        )
    return builder.build()


class TestMAML:
    def test_adapt_changes_params_leaves_meta(self):
        maml = MAML(_model(), MAMLConfig(), seed=0)
        before = {k: v.copy() for k, v in maml.params.items()}
        (fast,) = maml.adapt_corpus(_corpus())
        assert any(not np.allclose(fast[k], before[k]) for k in fast)
        for name in maml.params:
            np.testing.assert_array_equal(maml.params[name], before[name])

    def test_local_only_decision_freezes_embeddings(self):
        maml = MAML(_model(), MAMLConfig(local_only_decision=True), seed=0)
        (fast,) = maml.adapt_corpus(_corpus())
        for name in fast:
            if not name.startswith("mlp."):
                np.testing.assert_array_equal(fast[name], maml.params[name])
        assert any(
            not np.allclose(fast[n], maml.params[n]) for n in fast if n.startswith("mlp.")
        )

    def test_meta_step_updates_params(self):
        maml = MAML(_model(), MAMLConfig(), seed=0)
        before = {k: v.copy() for k, v in maml.params.items()}
        loss = maml.meta_step_corpus(_corpus(n_tasks=2, seed=1), np.array([0, 1]))
        assert np.isfinite(loss)
        assert any(not np.allclose(maml.params[k], before[k]) for k in before)

    def test_fit_reduces_loss(self):
        maml = MAML(_model(), MAMLConfig(outer_lr=5e-3), seed=0)
        history = maml.fit(_corpus(n_tasks=12), epochs=30)
        assert history[-1] < history[0]

    def test_empty_batch_rejected(self):
        """An empty meta-batch raises and leaves params and Adam untouched."""
        maml = MAML(_model(), seed=0)
        before = {k: v.copy() for k, v in maml.params.items()}
        with pytest.raises(ValueError, match="empty task batch"):
            maml.meta_step_corpus(_corpus(), np.array([], dtype=np.int64))
        assert maml._optimizer._t == 0
        for name, value in before.items():
            np.testing.assert_array_equal(maml.params[name], value)
        with pytest.raises(ValueError):
            maml.fit(_corpus(), epochs=0)

    def test_refresh_rejects_non_finite_update(self):
        """A NaN label reaching a refresh raises and leaves params untouched."""
        maml = MAML(_model(), seed=0)
        corpus = _corpus()
        builder = TaskCorpusBuilder(corpus.content)
        row, s_items, s_labels, q_items, q_labels = corpus.view_arrays(0)
        s_labels = s_labels.copy()
        s_labels[0] = np.nan
        builder.add_task(PreferenceTask(int(row), s_items, s_labels, q_items, q_labels))
        before = {k: v.copy() for k, v in maml.params.items()}
        with pytest.raises(ValueError, match="non-finite"):
            maml.refresh_from(builder.build(), meta_lr=0.5)
        for name, value in before.items():
            np.testing.assert_array_equal(maml.params[name], value)

    def test_finetune_steps_override(self):
        maml = MAML(_model(), MAMLConfig(inner_steps=1), seed=0)
        corpus = _corpus()
        (zero,) = maml.adapt_corpus(corpus, steps=0)
        for name in zero:
            np.testing.assert_array_equal(zero[name], maml.params[name])
        (many,) = maml.adapt_corpus(corpus, steps=4)
        assert any(not np.allclose(many[k], maml.params[k]) for k in many)

    def test_corpus_entry_points_validate_inputs(self):
        """Chunk sizes must be positive and the corpus must carry content."""
        maml = MAML(_model(), seed=0)
        corpus = _corpus()
        with pytest.raises(ValueError, match="max_chunk"):
            maml.adapt_corpus(corpus, max_chunk=0)
        with pytest.raises(ValueError, match="max_chunk"):
            maml.refresh_from(corpus, max_chunk=0)
        builder = TaskCorpusBuilder(None)
        builder.add_task(
            PreferenceTask(0, np.array([1]), np.array([1.0]), np.array([2]), np.array([0.0]))
        )
        bare = builder.build()
        with pytest.raises(ValueError, match="no content"):
            maml.adapt_corpus(bare)
        with pytest.raises(ValueError, match="no content"):
            maml.refresh_from(bare)
        with pytest.raises(ValueError, match="no content"):
            maml.meta_step_corpus(bare, np.array([0]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MAMLConfig(inner_lr=0.0)
        with pytest.raises(ValueError):
            MAMLConfig(inner_steps=0)

    @pytest.mark.parametrize(
        "setting",
        [
            {"inner_lr": float("nan")},
            {"outer_lr": float("nan")},
            {"outer_lr": float("inf")},
            {"grad_clip": float("nan")},
            {"grad_clip": 0.0},
        ],
    )
    def test_non_finite_or_non_positive_settings_rejected(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            MAMLConfig(**setting)


class TestSubsampleSupport:
    def _task(self):
        return PreferenceTask(
            user_row=0,
            support_items=np.arange(12),
            support_labels=np.array([1.0] * 6 + [0.0] * 6),
            query_items=np.array([20, 21]),
            query_labels=np.array([1.0, 0.0]),
        )

    def test_limits_positives(self):
        small = subsample_support(self._task(), np.random.default_rng(0), max_positives=3)
        assert (small.support_labels > 0.5).sum() == 3
        assert (small.support_labels < 0.5).sum() <= 6

    def test_preserves_query(self):
        task = self._task()
        small = subsample_support(task, np.random.default_rng(0))
        np.testing.assert_array_equal(small.query_items, task.query_items)

    def test_sampled_items_come_from_original(self):
        task = self._task()
        small = subsample_support(task, np.random.default_rng(0))
        assert set(small.support_items.tolist()) <= set(task.support_items.tolist())

    def test_labels_consistent_with_source(self):
        task = self._task()
        small = subsample_support(task, np.random.default_rng(1))
        for item, label in zip(small.support_items, small.support_labels):
            original = task.support_labels[task.support_items == item][0]
            assert original == label


class TestSharpen:
    def test_full_range_per_user(self):
        matrix = np.array([[0.4, 0.5, 0.45], [0.2, 0.2, 0.8]])
        out = _sharpen_per_user(matrix)
        np.testing.assert_allclose(out.min(axis=1), 0.0)
        np.testing.assert_allclose(out.max(axis=1), 1.0)

    def test_order_preserved(self):
        row = np.array([[0.41, 0.47, 0.43]])
        out = _sharpen_per_user(row)
        assert np.argsort(out[0]).tolist() == np.argsort(row[0]).tolist()

    def test_constant_row_safe(self):
        out = _sharpen_per_user(np.full((1, 4), 0.5))
        assert np.isfinite(out).all()


class TestMetaDPAEndToEnd:
    @pytest.fixture(scope="class")
    def fitted(self, bench_experiment):
        config = MetaDPAConfig(cvae_epochs=40, meta_epochs=2)
        method = MetaDPA(config, seed=0)
        method.fit(bench_experiment.ctx)
        return method

    def test_fit_produces_augmentations(self, fitted, bench_experiment):
        assert fitted.augmented is not None
        assert fitted.augmented.k == len(bench_experiment.dataset.sources)

    def test_score_shapes(self, fitted, bench_experiment):
        scenario = Scenario.C_U
        tasks = bench_experiment.task_sets[scenario]
        inst = bench_experiment.instances[scenario][0]
        task = next(t for t in tasks if t.user_row == inst.user_row)
        scores = fitted.score(task, inst)
        assert scores.shape == inst.candidates.shape
        assert np.isfinite(scores).all()

    def test_score_without_task(self, fitted, bench_experiment):
        inst = bench_experiment.instances[Scenario.WARM][0]
        scores = fitted.score(None, inst)
        assert scores.shape == inst.candidates.shape

    def test_score_before_fit_raises(self, bench_experiment):
        method = MetaDPA(seed=0)
        inst = bench_experiment.instances[Scenario.WARM][0]
        with pytest.raises(RuntimeError):
            method.score(None, inst)

    def test_no_augmentation_variant(self, bench_experiment):
        config = MetaDPAConfig(use_augmentation=False, meta_epochs=1)
        method = MetaDPA(config, seed=0)
        method.fit(bench_experiment.ctx)
        assert method.augmented is None

    def test_deterministic_given_seed(self, bench_experiment):
        def run():
            config = MetaDPAConfig(cvae_epochs=5, meta_epochs=1)
            m = MetaDPA(config, seed=9)
            m.fit(bench_experiment.ctx)
            inst = bench_experiment.instances[Scenario.WARM][0]
            return m.score(None, inst)

        np.testing.assert_allclose(run(), run())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MetaDPAConfig(meta_epochs=0)
        with pytest.raises(ValueError):
            MetaDPAConfig(augmentation_weight=2.0)
