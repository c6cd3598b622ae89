"""Stacked-vs-scalar equivalence: the batched paths ARE the per-task paths.

Property tests (hypothesis-driven shapes and seeds) asserting that every
stacked computation — layers, losses, :class:`PreferenceModel`, and the
packed MAML entry points ``meta_step_corpus``, ``adapt_corpus``,
``refresh_from`` — produces the same outputs, gradients and optimizer
states (to fp tolerance) as the per-view scalar reference in
``tests/oracles.py`` run one task at a time, and that the per-request
candidate-scoring kernel (one broadcast user row) matches the dense
per-row forward.  These are the acceptance tests of the
stacked-parameter redesign: any divergence means the vectorization changed
the math, not just the speed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import PreferenceTask
from repro.meta.corpus import PackedContent, TaskCorpusBuilder, pack_content
from repro.meta.maml import MAML, MAMLConfig
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.meta.serving import score_candidates
from repro.nn import (
    Adam,
    Dropout,
    Embedding,
    Linear,
    Relu,
    Sigmoid,
    Softmax,
    Tanh,
    binary_cross_entropy,
    mlp,
    stack_params,
)

import oracles
from nn_extras import LayerNorm

RTOL = 1e-9
ATOL = 1e-11

#: (T, batch, features) shape strategy shared by the layer properties.
shapes = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
)
seeds = st.integers(min_value=0, max_value=2**20)


def _assert_tree_close(actual, expected, **kw):
    assert set(actual) == set(expected)
    for name in expected:
        np.testing.assert_allclose(
            actual[name], expected[name], rtol=RTOL, atol=ATOL, err_msg=name, **kw
        )


def _check_layer(layer, params_list, xs, dys):
    """Stacked forward/backward == per-task forward/backward, per layer."""
    stacked = stack_params(params_list) if params_list[0] else {}
    y, cache = layer.forward(stacked, np.stack(xs))
    dx, grads = layer.backward(stacked, cache, np.stack(dys))
    for t, (params, x, dy) in enumerate(zip(params_list, xs, dys)):
        y_t, cache_t = layer.forward(params, x)
        dx_t, grads_t = layer.backward(params, cache_t, dy)
        np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)
        _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)


class TestLayerEquivalence:
    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_linear_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        layer = Linear(n_in, 3)
        params_list = [layer.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.normal(size=(batch, n_in)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 3)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_linear_shared_weight_broadcasts(self, shape, seed):
        """Unstacked W against (T, batch, in) inputs: per-task grads."""
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        layer = Linear(n_in, 3)
        params = layer.init_params(rng)
        xs = np.stack([rng.normal(size=(batch, n_in)) for _ in range(n_tasks)])
        dys = np.stack([rng.normal(size=(batch, 3)) for _ in range(n_tasks)])
        y, cache = layer.forward(params, xs)
        dx, grads = layer.backward(params, cache, dys)
        assert grads["W"].shape == (n_tasks, n_in, 3)
        for t in range(n_tasks):
            y_t, cache_t = layer.forward(params, xs[t])
            dx_t, grads_t = layer.backward(params, cache_t, dys[t])
            np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)
            _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_layernorm_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, dim = shape
        rng = np.random.default_rng(seed)
        layer = LayerNorm(dim)
        params_list = [
            {"gamma": rng.normal(size=dim), "beta": rng.normal(size=dim)}
            for _ in range(n_tasks)
        ]
        xs = [rng.normal(size=(batch, dim)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, dim)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_embedding_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, _ = shape
        rng = np.random.default_rng(seed)
        layer = Embedding(7, 3)
        params_list = [layer.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.integers(0, 7, size=batch) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 3)) for _ in range(n_tasks)]
        _check_layer(layer, params_list, xs, dys)

    def test_stacked_embedding_rejects_misaligned_indices(self):
        layer = Embedding(5, 2)
        stacked = stack_params(
            [layer.init_params(np.random.default_rng(s)) for s in range(3)]
        )
        with pytest.raises(ValueError, match="stacked embedding"):
            layer.forward(stacked, np.array([0, 1]))

    @pytest.mark.parametrize("layer_cls", [Relu, Sigmoid, Tanh, Softmax])
    def test_activations_elementwise_over_task_axis(self, layer_cls):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4, 5))
        dy = rng.normal(size=(3, 4, 5))
        layer = layer_cls()
        y, cache = layer.forward({}, x)
        dx, _ = layer.backward({}, cache, dy)
        for t in range(3):
            y_t, cache_t = layer.forward({}, x[t])
            dx_t, _ = layer.backward({}, cache_t, dy[t])
            np.testing.assert_allclose(y[t], y_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(dx[t], dx_t, rtol=RTOL, atol=ATOL)

    def test_dropout_identity_matches(self):
        x = np.ones((2, 3, 4))
        y, _ = Dropout(0.5).forward({}, x, train=False)
        np.testing.assert_array_equal(y, x)

    @given(shape=shapes, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_sequential_mlp_stacked_matches_per_task(self, shape, seed):
        n_tasks, batch, n_in = shape
        rng = np.random.default_rng(seed)
        net = mlp([n_in, 4, 2], activation="tanh", out_activation="sigmoid")
        params_list = [net.init_params(rng) for _ in range(n_tasks)]
        xs = [rng.normal(size=(batch, n_in)) for _ in range(n_tasks)]
        dys = [rng.normal(size=(batch, 2)) for _ in range(n_tasks)]
        _check_layer(net, params_list, xs, dys)


class TestLossEquivalence:
    @given(
        n_tasks=st.integers(1, 5),
        widths=st.lists(st.integers(1, 9), min_size=5, max_size=5),
        seed=seeds,
    )
    @settings(max_examples=30, deadline=None)
    def test_masked_per_task_bce_matches_scalar(self, n_tasks, widths, seed):
        """Padded+masked task rows reproduce each task's own scalar BCE."""
        rng = np.random.default_rng(seed)
        widths = widths[:n_tasks]
        max_w = max(widths)
        preds = rng.uniform(0.01, 0.99, size=(n_tasks, max_w))
        targets = rng.uniform(0.0, 1.0, size=(n_tasks, max_w))
        mask = np.zeros((n_tasks, max_w))
        for t, width in enumerate(widths):
            mask[t, :width] = 1.0
        losses, grads = binary_cross_entropy(preds, targets, mask=mask)
        for t, width in enumerate(widths):
            loss_t, grad_t = oracles.binary_cross_entropy(
                preds[t, :width], targets[t, :width]
            )
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(grads[t, :width], grad_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_array_equal(grads[t, width:], 0.0)

    def test_unmasked_matches_scalar(self):
        rng = np.random.default_rng(3)
        preds = rng.uniform(0.05, 0.95, size=(4, 6))
        targets = (rng.random((4, 6)) < 0.5).astype(float)
        losses, grads = binary_cross_entropy(preds, targets)
        for t in range(4):
            loss_t, grad_t = oracles.binary_cross_entropy(preds[t], targets[t])
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(grads[t], grad_t, rtol=RTOL, atol=ATOL)


def _model(content_dim: int = 5) -> PreferenceModel:
    # float64: these properties pin stacked == scalar at near-bitwise
    # tolerances, which the default float32 meta stack cannot express.
    return PreferenceModel(
        PreferenceModelConfig(
            content_dim=content_dim, embed_dim=3, hidden_dims=(4,), dtype=np.float64
        )
    )


def _items(rng: np.random.Generator, n_tasks: int, content_dim: int = 5):
    out = []
    for _ in range(n_tasks):
        n_s = int(rng.integers(1, 7))
        n_q = int(rng.integers(1, 5))
        out.append(
            oracles.TaskBatchItem(
                support_user=rng.random((n_s, content_dim)),
                support_item=rng.random((n_s, content_dim)),
                support_labels=(rng.random(n_s) < 0.5).astype(float),
                query_user=rng.random((n_q, content_dim)),
                query_item=rng.random((n_q, content_dim)),
                query_labels=(rng.random(n_q) < 0.5).astype(float),
            )
        )
    return out


class TestModelEquivalence:
    @given(n_tasks=st.integers(1, 5), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_stacked_loss_and_grads_match_per_task(self, n_tasks, seed):
        rng = np.random.default_rng(seed)
        model = _model()
        params_list = [model.init_params(int(rng.integers(0, 2**31))) for _ in range(n_tasks)]
        items = _items(rng, n_tasks)
        batch = oracles.TaskBatch.from_items(items)
        losses, grads = model.loss_and_grads(
            stack_params(params_list),
            batch.support_user,
            batch.support_item,
            batch.support_labels,
            mask=batch.support_mask,
        )
        for t, (params, item) in enumerate(zip(params_list, items)):
            loss_t, grads_t = model.loss_and_grads(
                params, item.support_user, item.support_item, item.support_labels
            )
            np.testing.assert_allclose(losses[t], loss_t, rtol=RTOL, atol=ATOL)
            _assert_tree_close({k: v[t] for k, v in grads.items()}, grads_t)


def _corpus(
    rng: np.random.Generator,
    n_tasks: int,
    content_dim: int = 5,
    k_views: int = 1,
    min_support: int = 0,
):
    """A float64 corpus of ragged tasks (support 0–6, query 1–4 rows), each
    with ``k_views`` augmented rating views."""
    n_users, n_items = 8, 20
    builder = TaskCorpusBuilder(
        pack_content(
            rng.random((n_users, content_dim)),
            rng.random((n_items, content_dim)),
            dtype=np.float64,
        )
    )
    for _ in range(n_tasks):
        n_s = int(rng.integers(min_support, 7))
        n_q = int(rng.integers(1, 5))
        items = rng.choice(n_items, size=n_s + n_q, replace=False)
        base = builder.add_task(
            PreferenceTask(
                user_row=int(rng.integers(0, n_users)),
                support_items=items[:n_s],
                support_labels=(rng.random(n_s) < 0.5).astype(float),
                query_items=items[n_s:],
                query_labels=(rng.random(n_q) < 0.5).astype(float),
            )
        )
        for _ in range(k_views):
            builder.add_rating_view(base, rng.random(n_items))
    return builder.build()


def _assert_scores_match_dense(maml, content, states, instances):
    """Kernel scores == the dense forward over repeated user rows."""
    for state, instance in zip(states, instances):
        params = state if state is not None else maml.params
        scores = score_candidates(maml, content, params, instance)
        users = np.repeat(
            content.user[instance.user_row][None, :], instance.candidates.size, axis=0
        )
        expected = oracles.predict(
            maml.model, params, users, content.item[instance.candidates]
        )
        np.testing.assert_allclose(scores, expected, rtol=1e-8, atol=1e-10)


class TestMAMLEquivalence:
    @given(
        n_tasks=st.integers(1, 6),
        local_only=st.booleans(),
        grad_clip=st.sampled_from([0.01, 5.0]),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_meta_step_vectorized_matches_loop(self, n_tasks, local_only, grad_clip, seed):
        """Packed ``meta_step_corpus`` == the per-view oracle loop: same
        losses, params and Adam moments after three steps (with and without
        the meta-gradient clip engaging)."""
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, n_tasks)
        ids = np.arange(corpus.n_views)
        config = MAMLConfig(
            inner_lr=0.1,
            inner_steps=2,
            outer_lr=1e-2,
            grad_clip=grad_clip,
            local_only_decision=local_only,
        )
        vec = MAML(_model(), config, seed=seed)
        ref = MAML(_model(), config, seed=seed)
        for _ in range(3):
            np.testing.assert_allclose(
                vec.meta_step_corpus(corpus, ids),
                oracles.fomaml_step(ref, corpus, ids),
                rtol=RTOL,
                atol=ATOL,
            )
        _assert_tree_close(vec.params, ref.params)
        _assert_tree_close(vec._optimizer._m, ref._optimizer._m)
        _assert_tree_close(vec._optimizer._v, ref._optimizer._v)
        assert vec._optimizer._t == ref._optimizer._t

    @given(
        n_tasks=st.integers(1, 6),
        steps=st.integers(0, 3),
        local_only=st.booleans(),
        seed=seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_adapt_many_matches_adapt(self, n_tasks, steps, local_only, seed):
        """Adapting many views in one width-chunked ``adapt_corpus`` call,
        empty-support views included, == Eq. (1) run on each view alone."""
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, n_tasks)
        maml = MAML(
            _model(),
            MAMLConfig(inner_lr=0.1, local_only_decision=local_only),
            seed=seed,
        )
        fasts = maml.adapt_corpus(corpus, steps=steps, max_chunk=3)
        assert len(fasts) == corpus.n_views
        for view, fast in enumerate(fasts):
            _assert_tree_close(fast, oracles.adapt_view(maml, corpus, view, steps=steps))

    @given(
        n_tasks=st.integers(1, 6),
        steps=st.integers(0, 3),
        local_only=st.booleans(),
        seed=seeds,
    )
    @settings(max_examples=20, deadline=None)
    def test_refresh_from_matches_oracle(self, n_tasks, steps, local_only, seed):
        """The streaming Reptile step == the oracle's per-view Reptile mean,
        over a random subset of views."""
        rng = np.random.default_rng(seed)
        corpus = _corpus(rng, n_tasks)
        ids = rng.permutation(corpus.n_views)[: int(rng.integers(1, corpus.n_views + 1))]
        config = MAMLConfig(inner_lr=0.1, local_only_decision=local_only)
        packed = MAML(_model(), config, seed=seed)
        ref = MAML(_model(), config, seed=seed)
        rms = packed.refresh_from(
            corpus, view_ids=ids, meta_lr=0.5, steps=steps, max_chunk=3
        )
        expected = oracles.reptile_step(ref, corpus, ids, meta_lr=0.5, steps=steps)
        np.testing.assert_allclose(rms, expected, rtol=RTOL, atol=ATOL)
        _assert_tree_close(packed.params, ref.params)

    @given(n_tasks=st.integers(2, 5), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_stacked_candidate_scoring_matches_per_state(self, n_tasks, seed):
        """Distinct per-user fast weights: the scoring kernel's broadcast
        ``(1, C)`` user row matches each state's dense per-row forward."""
        rng = np.random.default_rng(seed)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=seed)
        states = maml.adapt_corpus(
            _corpus(rng, n_tasks, k_views=0, min_support=1), steps=2
        )
        content = PackedContent(
            user=rng.random((n_tasks + 2, 5)), item=rng.random((20, 5))
        )
        instances = [
            EvalInstance(
                user_row=t,
                pos_item=int(rng.integers(0, 20)),
                neg_items=rng.choice(20, size=int(rng.integers(1, 8)), replace=False),
            )
            for t in range(n_tasks)
        ]
        _assert_scores_match_dense(maml, content, states, instances)

    def test_scoring_with_skewed_group_sizes_matches(self):
        """One huge shared-params group + small per-user groups.

        Six un-adapted requests with wide pools share the meta-parameters
        next to three adapted users with narrow pools and one
        single-candidate request.  Each request is scored on its own, so
        its scores match its own dense forward whatever shares the batch.
        """
        rng = np.random.default_rng(7)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=7)
        adapted = maml.adapt_corpus(_corpus(rng, 3, k_views=0, min_support=1), steps=2)
        content = PackedContent(user=rng.random((10, 5)), item=rng.random((50, 5)))
        states = [None] * 6 + adapted + [None]
        instances = [
            EvalInstance(u, int(rng.integers(0, 50)), rng.choice(50, 40, replace=False))
            for u in range(6)
        ] + [
            EvalInstance(6 + t, int(rng.integers(0, 50)), rng.choice(50, 4, replace=False))
            for t in range(3)
        ] + [EvalInstance(9, 3, np.array([], dtype=int))]
        _assert_scores_match_dense(maml, content, states, instances)

    def test_adapt_corpus_states_do_not_pin_chunks(self):
        """Cached per-user fast weights own one row each (no chunk views)."""
        rng = np.random.default_rng(0)
        maml = MAML(_model(), MAMLConfig(inner_lr=0.1), seed=0)
        states = maml.adapt_corpus(_corpus(rng, 4, min_support=1), steps=1)
        for state in states:
            assert state.flat.ndim == 1 and state.flat.base is None
            for name, value in state.items():
                assert value is maml.params.get(name) or value.base is state.flat, name


class TestStackedOptimizer:
    def test_stacked_adam_equals_independent_adams(self):
        """One Adam over stacked params == T Adams over the per-task dicts."""
        rng = np.random.default_rng(0)
        per_task = [{"W": rng.normal(size=(3, 2))} for _ in range(4)]
        stacked = stack_params(per_task)
        opt_stacked = Adam(stacked, lr=0.05)
        opts = [Adam(p, lr=0.05) for p in per_task]
        for step in range(5):
            grads = [{"W": rng.normal(size=(3, 2))} for _ in range(4)]
            opt_stacked.step({"W": np.stack([g["W"] for g in grads])})
            for opt, grad in zip(opts, grads):
                opt.step(grad)
        for t, params in enumerate(per_task):
            np.testing.assert_allclose(
                stacked["W"][t], params["W"], rtol=RTOL, atol=ATOL
            )
