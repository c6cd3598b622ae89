"""Sequential/mlp composition and optimizer behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Linear, Relu, Sequential, clip_grad_norm, mlp
from repro.nn.optim import add_grads

from gradcheck import numerical_gradient, relative_error
from nn_extras import SGD

RNG = np.random.default_rng(0)


class TestSequential:
    def test_param_namespacing(self):
        net = Sequential([Linear(3, 4), Relu(), Linear(4, 2)])
        params = net.init_params(RNG)
        assert set(params) == {"0.W", "0.b", "2.W", "2.b"}

    def test_forward_backward_roundtrip(self):
        net = Sequential([Linear(3, 4), Relu(), Linear(4, 2)])
        params = net.init_params(np.random.default_rng(1))
        x = RNG.normal(size=(6, 3))
        y, cache = net.forward(params, x)
        assert y.shape == (6, 2)
        proj = RNG.normal(size=y.shape)
        dx, grads = net.backward(params, cache, proj)
        assert set(grads) == set(params)

        num_dx = numerical_gradient(
            lambda xin: float((net.forward(params, xin)[0] * proj).sum()), x.copy()
        )
        assert relative_error(dx, num_dx) < 1e-5

    def test_gradcheck_all_params(self):
        net = mlp([3, 5, 2], activation="tanh", out_activation="sigmoid")
        params = net.init_params(np.random.default_rng(2))
        x = RNG.normal(size=(4, 3))
        y, cache = net.forward(params, x)
        proj = RNG.normal(size=y.shape)
        _, grads = net.backward(params, cache, proj)
        for name in params:
            def loss(p, name=name):
                saved = params[name]
                params[name] = p
                out = float((net.forward(params, x)[0] * proj).sum())
                params[name] = saved
                return out

            num = numerical_gradient(loss, params[name].copy())
            assert relative_error(grads[name], num) < 1e-4, name


class TestMlpBuilder:
    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            mlp([4])

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            mlp([2, 2], activation="swish")
        with pytest.raises(ValueError):
            mlp([2, 2], out_activation="gelu")

    def test_out_activation_bounds_output(self):
        net = mlp([3, 4, 2], out_activation="sigmoid")
        params = net.init_params(RNG)
        y, _ = net.forward(params, RNG.normal(size=(10, 3)) * 10)
        assert np.all((y > 0) & (y < 1))

    def test_dropout_layers_inserted(self):
        net = mlp([3, 4, 4, 2], dropout=0.5)
        from repro.nn.layers import Dropout

        assert any(isinstance(layer, Dropout) for layer in net.layers)


class TestOptimizers:
    @staticmethod
    def _quadratic_problem():
        """min ||x - target||^2 via the optimizer API."""
        target = np.array([1.0, -2.0, 3.0])
        params = {"x": np.zeros(3)}

        def grads():
            return {"x": 2.0 * (params["x"] - target)}

        return params, grads, target

    def test_sgd_converges(self):
        params, grads, target = self._quadratic_problem()
        opt = SGD(params, lr=0.1)
        for _ in range(200):
            opt.step(grads())
        np.testing.assert_allclose(params["x"], target, atol=1e-4)

    def test_sgd_momentum_converges(self):
        params, grads, target = self._quadratic_problem()
        opt = SGD(params, lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.step(grads())
        np.testing.assert_allclose(params["x"], target, atol=1e-3)

    def test_adam_converges(self):
        params, grads, target = self._quadratic_problem()
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step(grads())
        np.testing.assert_allclose(params["x"], target, atol=1e-3)

    def test_weight_decay_shrinks(self):
        params = {"x": np.array([10.0])}
        opt = SGD(params, lr=0.1, weight_decay=1.0)
        opt.step({"x": np.array([0.0])})
        assert abs(params["x"][0]) < 10.0

    def test_invalid_hyperparams(self):
        with pytest.raises(ValueError):
            SGD({}, lr=0.0)
        with pytest.raises(ValueError):
            SGD({}, lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adam({}, lr=0.1, betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            SGD({}, lr=0.1, weight_decay=-1.0)

    def test_adam_updates_only_given_grads(self):
        params = {"a": np.ones(2), "b": np.ones(2)}
        opt = Adam(params, lr=0.1)
        opt.step({"a": np.ones(2)})
        assert not np.allclose(params["a"], 1.0)
        np.testing.assert_allclose(params["b"], 1.0)


class TestGradUtils:
    def test_clip_noop_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])

    def test_clip_scales_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0, rel=1e-6)

    def test_clip_global_across_keys(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clip_grad_norm(grads, 1.0)
        total = np.sqrt(sum(float((g**2).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_clip_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            clip_grad_norm({}, 0.0)

    def test_add_grads_accumulates(self):
        into = {"a": np.array([1.0])}
        add_grads(into, {"a": np.array([2.0]), "b": np.array([3.0])}, scale=0.5)
        np.testing.assert_allclose(into["a"], [2.0])
        np.testing.assert_allclose(into["b"], [1.5])
