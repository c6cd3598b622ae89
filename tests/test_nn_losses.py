"""Loss values and gradients, including hypothesis property tests.

Each test runs the kernel ``src/`` runs: the per-slice BCE (a 1-D call is
one slice) and the stacked KL and InfoNCE kernels, a single batch being a
stack of one.  ``tests/oracles.py`` holds the scalar forms these kernels
are compared against.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import binary_cross_entropy, gaussian_kl_to_code_stacked, info_nce_stacked

import oracles
from gradcheck import numerical_gradient, relative_error
from nn_extras import mse_loss

RNG = np.random.default_rng(0)


def _kl(mu, log_var, code, row_mask=None):
    """The stacked KL kernel on one ``(batch, latent)`` batch."""
    mask = None if row_mask is None else row_mask[None]
    kl, gm, gv, gc = gaussian_kl_to_code_stacked(mu[None], log_var[None], code[None], mask)
    return kl[0], gm[0], gv[0], gc[0]


def _info_nce(a, b, **kw):
    """The stacked InfoNCE kernel on one ``(batch, dim)`` pair."""
    losses, ga, gb = info_nce_stacked(a[None], b[None], **kw)
    return losses[0], ga[0], gb[0]


class TestBCE:
    def test_perfect_prediction_near_zero(self):
        loss, _ = binary_cross_entropy(np.array([0.999999, 1e-6]), np.array([1.0, 0.0]))
        assert loss < 1e-4

    def test_uniform_prediction(self):
        loss, _ = binary_cross_entropy(np.full(4, 0.5), np.array([1.0, 0.0, 1.0, 0.0]))
        assert loss == pytest.approx(np.log(2.0))

    def test_gradient_matches_numerical(self):
        pred = RNG.uniform(0.05, 0.95, size=(6,))
        target = RNG.uniform(0.0, 1.0, size=(6,))
        loss, grad = binary_cross_entropy(pred, target)
        num = numerical_gradient(lambda p: binary_cross_entropy(p, target)[0], pred.copy())
        assert relative_error(grad, num) < 1e-5

    def test_soft_labels_supported(self):
        loss, grad = binary_cross_entropy(np.array([0.3]), np.array([0.3]))
        # Gradient is zero at pred == soft target.
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_weighting(self):
        pred = np.array([0.2, 0.8])
        target = np.array([1.0, 1.0])
        full, _ = binary_cross_entropy(pred, target)
        masked, grad = binary_cross_entropy(pred, target, mask=np.array([1.0, 0.0]))
        assert masked != full
        assert grad[1] == 0.0
        # A masked element leaves the mean: the loss is the first element's.
        assert masked == binary_cross_entropy(pred[:1], target[:1])[0]

    def test_clipping_handles_extremes(self):
        loss, grad = binary_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()

    @given(
        arrays(float, 8, elements=st.floats(0.01, 0.99)),
        arrays(float, 8, elements=st.floats(0.0, 1.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, pred, target):
        loss, _ = binary_cross_entropy(pred, target)
        # BCE with soft targets is bounded below by the target entropy >= 0.
        assert loss >= -1e-9

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("shape", [(13,), (4, 9)], ids=["1d", "tasks"])
    def test_float32_slices_match_scalar_bitwise(self, shape, masked):
        """Every slice is the scalar BCE of its real elements, in the
        input's dtype: float32 in, float32 gradient out."""
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.01, 0.99, size=shape).astype(np.float32)
        target = (rng.random(shape) < 0.5).astype(np.float32)
        widths = np.full(shape[:-1], shape[-1])
        mask = None
        if masked:
            widths = rng.integers(1, shape[-1] + 1, size=shape[:-1])
            mask = (np.arange(shape[-1]) < widths[..., None]).astype(np.float32)
        losses, grad = binary_cross_entropy(pred, target, mask=mask)
        assert grad.dtype == np.float32 and losses.dtype == np.float32
        assert losses.shape == shape[:-1] and grad.shape == shape
        for index in np.ndindex(*shape[:-1]):
            width = int(widths[index])
            loss_t, grad_t = oracles.binary_cross_entropy(
                pred[index][:width], target[index][:width]
            )
            np.testing.assert_array_equal(grad[index][:width], grad_t)
            np.testing.assert_array_equal(grad[index][width:], 0.0)
            if masked:
                # A padded row sums its zeros in a different order than the
                # truncated one, so only the rounding may differ.
                np.testing.assert_allclose(losses[index], loss_t, rtol=1e-6)
            else:
                assert float(losses[index]) == np.float32(loss_t)


class TestMSE:
    def test_zero_at_equal(self):
        x = RNG.normal(size=(3, 3))
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_value(self):
        loss, _ = mse_loss(np.array([2.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(2.0)

    def test_gradient(self):
        pred = RNG.normal(size=(4, 2))
        target = RNG.normal(size=(4, 2))
        _, grad = mse_loss(pred, target)
        num = numerical_gradient(lambda p: mse_loss(p, target)[0], pred.copy())
        assert relative_error(grad, num) < 1e-5


class TestGaussianKL:
    """The KL kernel against the standard-normal prior (a zero code)."""

    def test_zero_at_standard_normal(self):
        mu = np.zeros((3, 4))
        log_var = np.zeros((3, 4))
        kl, gm, gv, _ = _kl(mu, log_var, np.zeros_like(mu))
        assert kl == pytest.approx(0.0)
        np.testing.assert_allclose(gm, 0.0)
        np.testing.assert_allclose(gv, 0.0)

    def test_positive_otherwise(self):
        kl, _, _, _ = _kl(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
        assert kl > 0.0

    def test_gradients(self):
        # Ragged: the last row is padding and must carry no gradient.
        mu = RNG.normal(size=(4, 3))
        log_var = RNG.normal(size=(4, 3)) * 0.5
        code = np.zeros_like(mu)
        row_mask = np.array([1.0, 1.0, 1.0, 0.0])
        _, gm, gv, _ = _kl(mu, log_var, code, row_mask)
        num_m = numerical_gradient(lambda m: _kl(m, log_var, code, row_mask)[0], mu.copy())
        num_v = numerical_gradient(lambda v: _kl(mu, v, code, row_mask)[0], log_var.copy())
        assert relative_error(gm[:3], num_m[:3]) < 1e-5
        assert relative_error(gv[:3], num_v[:3]) < 1e-5
        np.testing.assert_array_equal(gm[3], 0.0)
        np.testing.assert_array_equal(gv[3], 0.0)


class TestGaussianKLToCode:
    def test_reduces_to_standard_at_zero_code(self):
        mu = RNG.normal(size=(3, 4))
        log_var = RNG.normal(size=(3, 4)) * 0.3
        kl_code, *_ = _kl(mu, log_var, np.zeros_like(mu))
        kl_std = 0.5 * (np.exp(log_var) + mu * mu - log_var - 1.0).sum() / mu.shape[0]
        assert kl_code == pytest.approx(kl_std)

    def test_zero_when_posterior_equals_prior(self):
        code = RNG.normal(size=(2, 3))
        kl, gm, gv, gc = _kl(code.copy(), np.zeros((2, 3)), code)
        assert kl == pytest.approx(0.0)
        np.testing.assert_allclose(gm, 0.0, atol=1e-12)
        np.testing.assert_allclose(gc, 0.0, atol=1e-12)

    def test_gradients(self):
        mu = RNG.normal(size=(3, 4))
        log_var = RNG.normal(size=(3, 4)) * 0.3
        code = RNG.normal(size=(3, 4))
        _, gm, gv, gc = _kl(mu, log_var, code)
        num_m = numerical_gradient(lambda m: _kl(m, log_var, code)[0], mu.copy())
        num_v = numerical_gradient(lambda v: _kl(mu, v, code)[0], log_var.copy())
        num_c = numerical_gradient(lambda c: _kl(mu, log_var, c)[0], code.copy())
        assert relative_error(gm, num_m) < 1e-5
        assert relative_error(gv, num_v) < 1e-5
        assert relative_error(gc, num_c) < 1e-5


class TestInfoNCE:
    def test_single_pair_is_zero(self):
        a = RNG.normal(size=(1, 4))
        loss, ga, gb = _info_nce(a, a.copy())
        assert loss == 0.0
        np.testing.assert_allclose(ga, 0.0)

    def test_aligned_batches_score_low(self):
        a = RNG.normal(size=(16, 8))
        loss_aligned, _, _ = _info_nce(a, a + 0.01 * RNG.normal(size=a.shape))
        b_shuffled = a[RNG.permutation(16)]
        loss_shuffled, _, _ = _info_nce(a, b_shuffled)
        assert loss_aligned < loss_shuffled

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            _info_nce(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("normalize", [True, False])
    def test_gradients(self, normalize):
        # Moderate magnitudes and temperature 1.0 keep the softmax away from
        # saturation, where the numerical clip inside log() would flatten
        # the finite-difference estimate.
        a = 0.5 * RNG.normal(size=(5, 3))
        b = 0.5 * RNG.normal(size=(5, 3))
        kw = dict(temperature=1.0, normalize=normalize)
        _, ga, gb = _info_nce(a, b, **kw)
        num_a = numerical_gradient(lambda x: _info_nce(x, b, **kw)[0], a.copy())
        num_b = numerical_gradient(lambda x: _info_nce(a, x, **kw)[0], b.copy())
        assert relative_error(ga, num_a) < 1e-4
        assert relative_error(gb, num_b) < 1e-4

    def test_normalized_logits_bounded(self):
        # Huge-magnitude inputs stay stable with cosine similarities.
        a = RNG.normal(size=(8, 4)) * 1e6
        b = RNG.normal(size=(8, 4)) * 1e6
        loss, ga, gb = _info_nce(a, b, normalize=True)
        assert np.isfinite(loss)
        assert np.isfinite(ga).all() and np.isfinite(gb).all()
