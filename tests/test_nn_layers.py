"""Layer forward/backward correctness, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dropout, Embedding, Linear, Relu, Sigmoid, Softmax, Tanh
from repro.nn.layers import sigmoid, softmax

import oracles
from gradcheck import numerical_gradient, relative_error
from nn_extras import LayerNorm

RNG = np.random.default_rng(0)


def _check_layer_grads(layer, x, tol=1e-5):
    """Check analytic parameter and input gradients against finite differences."""
    params = layer.init_params(np.random.default_rng(1))
    # Use a random projection as the downstream "loss" so dy is generic.
    y0, cache = layer.forward(params, x)
    proj = np.random.default_rng(2).normal(size=y0.shape)

    def loss_given_x(x_in):
        y, _ = layer.forward(params, x_in)
        return float((y * proj).sum())

    dy = proj
    dx, grads = layer.backward(params, cache, dy)

    num_dx = numerical_gradient(loss_given_x, x.astype(float).copy())
    assert relative_error(dx, num_dx) < tol, "input gradient mismatch"

    for name in params:
        def loss_given_p(p, name=name):
            saved = params[name]
            params[name] = p
            y, _ = layer.forward(params, x)
            params[name] = saved
            return float((y * proj).sum())

        num = numerical_gradient(loss_given_p, params[name].copy())
        assert relative_error(grads[name], num) < tol, f"grad mismatch for {name}"


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3)
        params = layer.init_params(RNG)
        y, _ = layer.forward(params, np.ones((5, 4)))
        assert y.shape == (5, 3)

    def test_forward_matches_matmul(self):
        layer = Linear(3, 2)
        params = {"W": np.arange(6).reshape(3, 2).astype(float), "b": np.array([1.0, -1.0])}
        x = np.array([[1.0, 0.0, 2.0]])
        y, _ = layer.forward(params, x)
        np.testing.assert_allclose(y, x @ params["W"] + params["b"])

    def test_gradients(self):
        _check_layer_grads(Linear(4, 3), RNG.normal(size=(6, 4)))

    def test_no_bias(self):
        layer = Linear(4, 3, bias=False)
        params = layer.init_params(RNG)
        assert "b" not in params
        _check_layer_grads(Linear(4, 3, bias=False), RNG.normal(size=(5, 4)))

    @settings(max_examples=40, deadline=None)
    @given(
        tasks=st.one_of(st.none(), st.integers(1, 4)),
        c=st.integers(1, 9),
        e=st.integers(1, 5),
        dtype=st.sampled_from([np.float32, np.float64]),
        use_out=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_one_row_weight_gradient_matches_matmul(
        self, tasks, c, e, dtype, use_out, seed
    ):
        """A one-row input's weight gradient, a broadcast multiply, has
        the K=1 matmul's values: stacked ``(T, 1, C)`` and unstacked
        ``(1, C)`` inputs, float32 and float64, with and without ``out``."""
        rng = np.random.default_rng(seed)
        lead = () if tasks is None else (tasks,)
        x = rng.normal(size=(*lead, 1, c)).astype(dtype)
        x[rng.random(x.shape) < 0.3] = 0.0  # zero content: the signed-zero case
        dy = rng.normal(size=(*lead, 1, e)).astype(dtype)
        want = np.matmul(x.swapaxes(-1, -2), dy)
        out = {"W": np.empty_like(want), "b": np.empty((*lead, e), dtype)} if use_out else None
        layer = Linear(c, e)
        _, grads = layer.backward(
            layer.init_params(rng), x, dy, need_input_grad=False, out=out
        )
        assert grads["W"].dtype == want.dtype and grads["W"].shape == want.shape
        assert np.array_equal(grads["W"], want)
        if use_out:
            assert grads["W"] is out["W"]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)


class TestEmbedding:
    def test_lookup(self):
        layer = Embedding(10, 4)
        params = layer.init_params(RNG)
        idx = np.array([0, 3, 3, 9])
        y, _ = layer.forward(params, idx)
        np.testing.assert_allclose(y, params["E"][idx])

    def test_backward_scatter_adds(self):
        layer = Embedding(5, 2)
        params = layer.init_params(RNG)
        idx = np.array([1, 1, 3])
        _, cache = layer.forward(params, idx)
        dy = np.ones((3, 2))
        _, grads = layer.backward(params, cache, dy)
        # Row 1 hit twice, row 3 once, others zero.
        np.testing.assert_allclose(grads["E"][1], [2.0, 2.0])
        np.testing.assert_allclose(grads["E"][3], [1.0, 1.0])
        np.testing.assert_allclose(grads["E"][0], [0.0, 0.0])

    def test_out_of_range_raises(self):
        layer = Embedding(5, 2)
        params = layer.init_params(RNG)
        with pytest.raises(IndexError):
            layer.forward(params, np.array([5]))
        with pytest.raises(IndexError):
            layer.forward(params, np.array([-1]))

    def test_2d_indices(self):
        layer = Embedding(6, 3)
        params = layer.init_params(RNG)
        idx = np.array([[0, 1], [2, 3]])
        y, _ = layer.forward(params, idx)
        assert y.shape == (2, 2, 3)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [Relu, Sigmoid, Tanh, Softmax])
    def test_gradients(self, layer_cls):
        _check_layer_grads(layer_cls(), RNG.normal(size=(5, 4)))

    def test_relu_zeroes_negatives(self):
        y, _ = Relu().forward({}, np.array([[-1.0, 2.0]]))
        np.testing.assert_allclose(y, [[0.0, 2.0]])

    def test_sigmoid_range_and_stability(self):
        x = np.array([[-1000.0, 0.0, 1000.0]])
        y, _ = Sigmoid().forward({}, x)
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert np.isfinite(y).all()
        np.testing.assert_allclose(y[0, 1], 0.5)

    def test_softmax_rows_sum_to_one(self):
        y, _ = Softmax().forward({}, RNG.normal(size=(4, 7)) * 50)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.isfinite(y).all()

    def test_tanh_matches_numpy(self):
        x = RNG.normal(size=(3, 3))
        y, _ = Tanh().forward({}, x)
        np.testing.assert_allclose(y, np.tanh(x))


class TestDropout:
    def test_identity_at_eval(self):
        x = RNG.normal(size=(4, 4))
        y, _ = Dropout(0.5).forward({}, x, train=False)
        np.testing.assert_array_equal(y, x)

    def test_training_masks_and_scales(self):
        x = np.ones((200, 50))
        layer = Dropout(0.5)
        y, mask = layer.forward({}, x, rng=np.random.default_rng(0), train=True)
        kept = y != 0
        # Kept entries are scaled by 1/keep.
        np.testing.assert_allclose(y[kept], 2.0)
        assert 0.4 < kept.mean() < 0.6

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.3)
        x = np.ones((10, 10))
        y, cache = layer.forward({}, x, rng=np.random.default_rng(1), train=True)
        dy = np.ones_like(y)
        dx, _ = layer.backward({}, cache, dy)
        np.testing.assert_array_equal(dx == 0, y == 0)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestLayerNorm:
    def test_normalizes(self):
        layer = LayerNorm(8)
        params = layer.init_params(RNG)
        y, _ = layer.forward(params, RNG.normal(size=(5, 8)) * 10 + 3)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-2)

    def test_gradients(self):
        _check_layer_grads(LayerNorm(6), RNG.normal(size=(4, 6)), tol=1e-4)


class TestStandaloneFunctions:
    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "dtype", [np.float16, np.float32, np.float64, np.int64, np.int8, np.bool_]
    )
    def test_sigmoid_is_bitwise_the_two_division_form(self, dtype):
        if np.dtype(dtype).kind == "f":
            special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30, 800.0, -800.0]
            x = np.concatenate([special, RNG.normal(scale=8.0, size=2000)]).astype(dtype)
        elif np.dtype(dtype).kind == "b":
            x = np.array([True, False])
        else:
            info = np.iinfo(dtype)
            x = np.array([0, 1, -1, 5, -5, 30, -30, info.max, info.min], dtype=dtype)
        got, want = sigmoid(x), oracles.sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        bits = f"u{got.dtype.itemsize}"
        assert np.array_equal(got.view(bits), want.view(bits))

    def test_softmax_invariant_to_shift(self):
        x = RNG.normal(size=(2, 5))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), atol=1e-12)
