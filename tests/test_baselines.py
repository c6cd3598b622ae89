"""Baselines: gradient correctness of custom backward passes, fit/score contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CATN, CoNN, DAML, MeLU, MetaCF, NeuMF, Popularity, TDAR
from repro.baselines.base import domain_triples, train_supervised, warm_triples
from repro.data.splits import Scenario

from gradcheck import numerical_gradient, relative_error

ALL = [Popularity, NeuMF, MeLU, MetaCF, CoNN, DAML, TDAR, CATN]

FAST_KWARGS = {
    NeuMF: dict(epochs=2),
    MeLU: dict(meta_epochs=1),
    MetaCF: dict(meta_epochs=1),
    CoNN: dict(epochs=1),
    DAML: dict(epochs=1),
    TDAR: dict(epochs=1),
    CATN: dict(epochs=1),
    Popularity: {},
}


def _fast(cls, seed=0):
    return cls(seed=seed, **FAST_KWARGS[cls])


@pytest.fixture(scope="module")
def fitted_methods(bench_experiment):
    methods = {}
    for cls in ALL:
        method = _fast(cls)
        method.fit(bench_experiment.ctx)
        methods[cls.__name__] = method
    return methods


class TestFitScoreContract:
    @pytest.mark.parametrize("cls", ALL)
    def test_score_shape_and_finite(self, cls, fitted_methods, bench_experiment):
        method = fitted_methods[cls.__name__]
        for scenario in Scenario:
            instances = bench_experiment.instances[scenario]
            if not instances:
                continue
            inst = instances[0]
            task = next(
                (t for t in bench_experiment.task_sets[scenario] if t.user_row == inst.user_row),
                None,
            )
            scores = method.score(task, inst)
            assert scores.shape == inst.candidates.shape
            assert np.isfinite(scores).all()

    @pytest.mark.parametrize("cls", ALL)
    def test_score_before_fit_raises(self, cls, bench_experiment):
        inst = bench_experiment.instances[Scenario.WARM][0]
        with pytest.raises(RuntimeError):
            _fast(cls).score(None, inst)

    @pytest.mark.parametrize("cls", [Popularity, NeuMF, CoNN, CATN])
    def test_deterministic(self, cls, bench_experiment):
        inst = bench_experiment.instances[Scenario.WARM][0]

        def run():
            method = _fast(cls, seed=3)
            method.fit(bench_experiment.ctx)
            return method.score(None, inst)

        np.testing.assert_allclose(run(), run())

    def test_score_batch_alignment_validated(self, fitted_methods, bench_experiment):
        method = fitted_methods["Popularity"]
        inst = bench_experiment.instances[Scenario.WARM][0]
        with pytest.raises(ValueError):
            method.score_batch([None, None], [inst])


class TestPopularity:
    def test_ranks_by_visible_counts(self, bench_experiment):
        method = Popularity().fit(bench_experiment.ctx)
        counts = bench_experiment.ctx.visible_ratings.sum(axis=0)
        inst = bench_experiment.instances[Scenario.WARM][0]
        np.testing.assert_array_equal(method.score(None, inst), counts[inst.candidates])

    def test_new_items_have_zero_popularity(self, bench_experiment):
        method = Popularity().fit(bench_experiment.ctx)
        assert method._scores[bench_experiment.splits.new_items].sum() == 0.0


class TestNeuMFGradients:
    def test_grads_match_numerical(self, bench_experiment):
        method = NeuMF(embed_dim=4, hidden_dims=(6,), seed=0)
        domain = bench_experiment.domain
        method._build(domain.n_users, domain.n_items, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        users = rng.integers(0, domain.n_users, size=6)
        items = rng.integers(0, domain.n_items, size=6)
        labels = (rng.random(6) < 0.5).astype(float)
        _, grads = method._loss_grads(method.params, users, items, labels)
        for name in ["head.w", "mlp.0.W", "user_gmf.E", "item_mlp.E"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._loss_grads(method.params, users, items, labels)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name


class TestDAMLGradients:
    def test_grads_match_numerical(self):
        method = DAML(embed_dim=4, hidden_dims=(5,), seed=0)
        method._build(content_dim=7, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        cu = rng.random((5, 7))
        ci = rng.random((5, 7))
        labels = (rng.random(5) < 0.5).astype(float)
        _, grads = method._loss_grads(method.params, cu, ci, labels)
        for name in ["Wu", "bi", "att_w", "fm_alpha", "mlp.0.W"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._loss_grads(method.params, cu, ci, labels)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name


class TestTDARGradients:
    def test_bce_grads_match_numerical(self):
        method = TDAR(embed_dim=4, seed=0)
        method._build(content_dim=6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        cu = rng.random((5, 6))
        ci = rng.random((5, 6))
        labels = (rng.random(5) < 0.5).astype(float)
        _, grads = method._bce_grads(method.params, cu, ci, labels)
        for name in ["Wu", "Wi", "bu", "bias"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._bce_grads(method.params, cu, ci, labels)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name

    def test_align_grads_match_numerical(self):
        method = TDAR(embed_dim=4, seed=0)
        method._build(content_dim=6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(2)
        ct = rng.random((4, 6))
        cs = rng.random((4, 6))
        _, grads = method._align_grads(method.params, ct, cs)
        for name in ["Wu", "bu"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._align_grads(method.params, ct, cs)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name


class TestCATNGradients:
    def test_grads_match_numerical(self):
        method = CATN(n_aspects=4, scale=2.0, seed=0)
        method._build(content_dim=6, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        cu = rng.random((5, 6))
        ci = rng.random((5, 6))
        labels = (rng.random(5) < 0.5).astype(float)
        _, grads = method._bce_grads(method.params, cu, ci, labels)
        for name in ["Au", "Ai", "M", "bias"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._bce_grads(method.params, cu, ci, labels)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name


class TestMetaCFGradients:
    def test_grads_match_numerical(self):
        method = MetaCF(embed_dim=3, hidden_dims=(4,), seed=0)
        method._build(n_items=9, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        profile = np.array([0, 2, 5])
        items = np.array([1, 3, 5, 7])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        _, grads = method._loss_grads(method.params, profile, items, labels)
        for name in ["E", "mlp.0.W"]:
            def loss(p, name=name):
                saved = method.params[name]
                method.params[name] = p
                value = method._loss_grads(method.params, profile, items, labels)[0]
                method.params[name] = saved
                return value

            num = numerical_gradient(loss, method.params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name

    def test_profile_extension_adds_cooccurring(self, bench_experiment):
        method = MetaCF(meta_epochs=1, n_potential=2, seed=0)
        method.fit(bench_experiment.ctx)
        positives = np.array([int(bench_experiment.splits.existing_items[0])])
        extended = method._extend_profile(positives)
        assert extended.size >= positives.size
        assert positives[0] in extended


class TestMeLU:
    def test_finetuning_changes_scores(self, bench_experiment):
        method = MeLU(meta_epochs=1, finetune_steps=5, seed=0)
        method.fit(bench_experiment.ctx)
        scenario = Scenario.C_U
        inst = bench_experiment.instances[scenario][0]
        task = next(
            t for t in bench_experiment.task_sets[scenario] if t.user_row == inst.user_row
        )
        with_ft = method.score(task, inst)
        without_ft = method.score(None, inst)
        assert not np.allclose(with_ft, without_ft)

    def test_decision_only_by_default(self):
        method = MeLU()
        assert method.maml_config.local_only_decision


class TestBaseHelpers:
    def test_warm_triples_support_only(self, bench_experiment):
        users, items, labels = warm_triples(bench_experiment.ctx.warm_tasks)
        n_support = sum(t.n_support for t in bench_experiment.ctx.warm_tasks)
        assert users.size == items.size == labels.size == n_support

    def test_warm_triples_with_query(self, bench_experiment):
        _, _, labels = warm_triples(bench_experiment.ctx.warm_tasks, include_query=True)
        total = sum(
            t.n_support + t.n_query for t in bench_experiment.ctx.warm_tasks
        )
        assert labels.size == total

    def test_domain_triples_labels_match_matrix(self, bench_experiment):
        ratings = bench_experiment.domain.ratings
        users, items, labels = domain_triples(
            ratings, n_neg_per_pos=2, rng=np.random.default_rng(0), max_users=10
        )
        for u, i, y in zip(users[:50], items[:50], labels[:50]):
            assert ratings[u, i] == y

    def test_train_supervised_converges(self):
        params = {"x": np.array([0.0])}

        def loss_grad_fn(batch):
            diff = params["x"][0] - 3.0
            return diff * diff, {"x": np.array([2.0 * diff])}

        history = train_supervised(
            params, loss_grad_fn, n_samples=10, epochs=50, batch_size=5, lr=0.1
        )
        assert history[-1] < history[0]
        assert params["x"][0] == pytest.approx(3.0, abs=0.05)

    def test_train_supervised_validates(self):
        with pytest.raises(ValueError):
            train_supervised({}, lambda b: (0.0, {}), n_samples=0, epochs=1)
