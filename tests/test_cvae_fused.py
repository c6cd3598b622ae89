"""Fused multi-domain CVAE training == the sequential reference.

The fused trainer stacks k Dual-CVAEs on a leading domain axis and pads
their item axes to a common width; everything here pins that this is a pure
re-batching of the arithmetic: forwards, per-term losses, gradients, Adam
trajectories and full ``fit_generate`` matrices all match the scalar
per-domain oracle (``tests/oracles.py``) to float32 rounding, for any k,
item widths and decoder output activation, and the padded parameter regions
never leave zero.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cvae.augment import DiversePreferenceAugmenter
from repro.cvae.model import _COMPONENTS, CVAEConfig, DualCVAE, FusedDualCVAE, _unpad_component
from repro.cvae.trainer import DualCVAETrainer, MultiDomainCVAETrainer, TrainerConfig
from repro.data.domain import DomainPair
from repro.nn.optim import Adam, StackedAdam, clip_grad_norm
from repro.nn.losses import info_nce_stacked
from repro.nn.stacking import ParamLayout

from gradcheck import numerical_gradient, relative_error
from oracles import (
    batch_rows,
    clip_grad_norm_grouped,
    cvae_loss_and_grads,
    cvae_loss_only,
    fit_generate_sequential,
    info_nce,
    train_sequential,
)

LOSS_TERMS = ("elbo_recon", "kl", "mse", "cross_recon", "mdi", "me", "total")


def _models(
    widths_s, widths_t, latent=3, hidden=8, content=5, beta1=0.1, beta2=1.0,
    out_activation="sigmoid", dtype=np.float32,
):
    return [
        DualCVAE(
            CVAEConfig(
                n_items_source=ws,
                n_items_target=wt,
                content_dim=content,
                latent_dim=latent,
                hidden_dim=hidden,
                beta1=beta1,
                beta2=beta2,
                out_activation=out_activation,
            ),
            rng=100 + i,
            dtype=dtype,
        )
        for i, (ws, wt) in enumerate(zip(widths_s, widths_t))
    ]


def _domain_batches(models, sizes, seed=0):
    """Per-domain batches plus matching pre-drawn noise streams.

    The scalar model draws side-s then side-t noise from one generator per
    domain; drawing the same shapes in the same order from an identically
    seeded generator reproduces the stream exactly.
    """
    rng = np.random.default_rng(seed)
    batches, eps = [], []
    for i, model in enumerate(models):
        cfg = model.config
        b = sizes[i]
        batches.append((
            (rng.random((b, cfg.n_items_source)) < 0.3).astype(np.float32),
            (rng.random((b, cfg.n_items_target)) < 0.3).astype(np.float32),
            rng.random((b, cfg.content_dim)).astype(np.float32),
            rng.random((b, cfg.content_dim)).astype(np.float32),
        ))
        gen = _noise_rng(seed, i)
        eps.append((
            gen.normal(size=(b, cfg.latent_dim)).astype(np.float32),
            gen.normal(size=(b, cfg.latent_dim)).astype(np.float32),
        ))
    return batches, eps


def _fused_inputs(fused, batches, eps, sizes):
    k = fused.k
    batch = max(sizes)
    ratings = np.zeros((fused.n_stack, batch, fused.n_items_max), fused.dtype)
    content = np.zeros((fused.n_stack, batch, fused.content_dim), fused.dtype)
    eps_arr = np.zeros((fused.n_stack, batch, fused.latent_dim), fused.dtype)
    for i, ((rs, rt, xs, xt), (es, et)) in enumerate(zip(batches, eps)):
        b = sizes[i]
        ratings[i, :b, : rs.shape[1]] = rs
        ratings[k + i, :b, : rt.shape[1]] = rt
        content[i, :b] = xs
        content[k + i, :b] = xt
        eps_arr[i, :b] = es
        eps_arr[k + i, :b] = et
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    if np.all(sizes_arr == batch):
        row_mask = None
    else:
        mask = (np.arange(batch)[None, :] < sizes_arr[:, None]).astype(fused.dtype)
        row_mask = np.concatenate([mask, mask], axis=0)
    return ratings, content, eps_arr, row_mask, np.concatenate([sizes_arr, sizes_arr])


def _noise_rng(seed, i):
    """The generator :func:`_domain_batches` drew domain ``i``'s noise from."""
    return np.random.default_rng(1000 + seed * 97 + i)


def _scalar_reference(models, batches, sizes, seed=0):
    return [
        cvae_loss_and_grads(model, *batches[i], rng=_noise_rng(seed, i))
        for i, model in enumerate(models)
    ]


def _compare(fused, models, losses, grads, reference, atol=5e-5):
    k = fused.k
    for name in LOSS_TERMS:
        expected = np.array([reference[i][0][name] for i in range(k)])
        np.testing.assert_allclose(losses[name], expected, rtol=2e-4, atol=atol)
    for d in range(fused.n_stack):
        side = "s" if d < k else "t"
        model = models[d % k]
        n_items = int(fused.widths[d])
        for comp in _COMPONENTS:
            for name in fused._subs[comp]:
                got = _unpad_component(
                    comp, name, grads[f"{comp}.{name}"][d], n_items, fused.n_items_max
                )
                want = reference[d % k][1][f"{comp}_{side}.{name}"]
                np.testing.assert_allclose(got, want, rtol=2e-4, atol=atol)


widths = st.lists(st.integers(3, 9), min_size=2, max_size=3)


class TestFusedModelEquivalence:
    @given(
        ws=widths,
        extra_t=st.lists(st.integers(0, 5), min_size=3, max_size=3),
        batch=st.integers(2, 6),
        betas=st.sampled_from([(0.1, 1.0), (0.0, 1.0), (0.1, 0.0), (0.0, 0.0)]),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_full_batches_match_scalar(self, ws, extra_t, batch, betas, seed):
        wt = [w + e for w, e in zip(ws, extra_t)]
        models = _models(ws, wt, beta1=betas[0], beta2=betas[1])
        fused = FusedDualCVAE(models)
        sizes = [batch] * len(models)
        batches, eps = _domain_batches(models, sizes, seed=seed)
        inputs = _fused_inputs(fused, batches, eps, sizes)
        losses, grads = fused.loss_and_grads(*inputs[:3], row_mask=inputs[3], row_counts=inputs[4])
        _compare(fused, models, losses, grads, _scalar_reference(models, batches, sizes, seed=seed))

    @given(
        ws=widths,
        sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=20, deadline=None)
    def test_ragged_batches_match_scalar(self, ws, sizes, seed):
        k = min(len(ws), len(sizes))
        ws, sizes = ws[:k], sizes[:k]
        models = _models(ws, [w + 2 for w in ws])
        fused = FusedDualCVAE(models)
        batches, eps = _domain_batches(models, sizes, seed=seed)
        inputs = _fused_inputs(fused, batches, eps, sizes)
        losses, grads = fused.loss_and_grads(*inputs[:3], row_mask=inputs[3], row_counts=inputs[4])
        _compare(fused, models, losses, grads, _scalar_reference(models, batches, sizes, seed=seed))

    def test_loss_only_matches_loss_and_grads(self):
        """The forward half that evaluation runs reports exactly the training
        step's losses, and they match the scalar loss-only oracle."""
        models = _models([5, 7], [6, 4])
        fused = FusedDualCVAE(models)
        sizes = [4, 3]
        batches, eps = _domain_batches(models, sizes)
        inputs = _fused_inputs(fused, batches, eps, sizes)
        losses, _ = fused.loss_and_grads(*inputs[:3], row_mask=inputs[3], row_counts=inputs[4])
        only, _ = fused.forward(*inputs[:3], row_mask=inputs[3], row_counts=inputs[4])
        scalar = [
            cvae_loss_only(model, *batches[i], rng=_noise_rng(0, i))
            for i, model in enumerate(models)
        ]
        for name in LOSS_TERMS:
            np.testing.assert_array_equal(only[name], losses[name])
            expected = [scalar[i][name] for i in range(len(models))]
            np.testing.assert_allclose(only[name], expected, rtol=2e-4, atol=5e-5)

    def test_padded_regions_stay_zero_through_gradients(self):
        for out_activation in ("sigmoid", "softmax"):
            models = _models([4, 8], [6, 3], out_activation=out_activation)
            fused = FusedDualCVAE(models)
            sizes = [5, 3]
            batches, eps = _domain_batches(models, sizes)
            inputs = _fused_inputs(fused, batches, eps, sizes)
            _, grads = fused.loss_and_grads(
                *inputs[:3], row_mask=inputs[3], row_counts=inputs[4]
            )
            i_max = fused.n_items_max
            for d in range(fused.n_stack):
                n = int(fused.widths[d])
                assert np.all(grads["crit.0.W"][d, n:] == 0.0), out_activation
                assert np.all(grads["dec.2.W"][d, :, n:] == 0.0), out_activation
                assert np.all(grads["dec.2.b"][d, n:] == 0.0), out_activation
                assert np.all(grads["enc.0.W"][d, n:i_max] == 0.0), out_activation
                assert np.all(fused.params["crit.0.W"][d, n:] == 0.0)
                assert np.all(fused.params["enc.0.W"][d, n:i_max] == 0.0)

    def test_write_back_round_trip(self):
        models = _models([4, 8], [6, 3])
        before = [{n: v.copy() for n, v in m.params.items()} for m in models]
        fused = FusedDualCVAE(models)
        fused.write_back()
        for model, saved in zip(models, before):
            for name, value in saved.items():
                np.testing.assert_array_equal(model.params[name], value)

    def test_everything_is_float32(self):
        models = _models([4, 8], [6, 3])
        fused = FusedDualCVAE(models)
        assert fused.dtype == np.float32
        assert all(v.dtype == np.float32 for v in fused.params.values())
        sizes = [3, 3]
        batches, eps = _domain_batches(models, sizes)
        inputs = _fused_inputs(fused, batches, eps, sizes)
        losses, grads = fused.loss_and_grads(*inputs[:3], row_mask=inputs[3], row_counts=inputs[4])
        assert all(g.dtype == np.float32 for g in grads.values())
        assert all(v.dtype == np.float32 for v in losses.values())

    def test_mismatched_hyperparams_rejected(self):
        a = DualCVAE(CVAEConfig(4, 5, 3, latent_dim=3, hidden_dim=8), rng=0)
        b = DualCVAE(CVAEConfig(4, 5, 3, latent_dim=4, hidden_dim=8), rng=1)
        with pytest.raises(ValueError):
            FusedDualCVAE([a, b])

    def test_softmax_with_ragged_widths_rejected(self):
        """Ragged softmax decoders fuse: each branch normalizes over its own
        items, so padded columns are exactly 0 and real ones sum to 1."""
        models = _models([4, 6], [5, 7], out_activation="softmax")
        fused = FusedDualCVAE(models)
        x = np.random.default_rng(0).normal(
            size=(fused.n_stack, 3, fused.latent_dim + fused.content_dim)
        ).astype(np.float32)
        out = fused.branch.decoder(fused._subs["dec"], x)
        for d, n in enumerate(fused.widths):
            assert np.all(out[d, :, n:] == 0.0)
            np.testing.assert_allclose(out[d, :, :n].sum(axis=1), 1.0, atol=1e-6)


class TestStackedAdamEquivalence:
    """Flat stacked Adam against one :class:`Adam` per slice."""

    @staticmethod
    def _flat_stack(rng, n_stack=4):
        """A layout and its slice-major ``(D, P)`` buffer, as FusedDualCVAE
        builds them."""
        layout = ParamLayout([("E", (2, 4, 2)), ("W", (5, 3)), ("b", (3,))])
        flat = rng.normal(size=(n_stack, layout.size)).astype(np.float32)
        return layout, flat

    @staticmethod
    def _per_slice(layout, flat):
        """Independent per-slice parameter dicts (the per-model storage)."""
        return [
            {name: view.copy() for name, view in layout.views(row).items()}
            for row in flat
        ]

    @staticmethod
    def _grads(rng, layout, n_stack, scale=1.0):
        return {
            name: (rng.normal(size=(n_stack, *shape)) * scale).astype(np.float32)
            for name, _, _, shape in layout.entries
        }

    @staticmethod
    def _check(stacked, singles, **tol):
        for d, single in enumerate(singles):
            for name, value in single.items():
                np.testing.assert_allclose(
                    stacked.params[name][d], value, err_msg=f"slice {d} {name}", **tol
                )

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_matches_per_slice_adam(self, rng, weight_decay):
        n_stack = 4
        layout, flat = self._flat_stack(rng, n_stack)
        singles = self._per_slice(layout, flat)
        stacked_opt = StackedAdam(layout, flat, lr=1e-2, weight_decay=weight_decay)
        single_opts = [
            Adam(p, lr=1e-2, weight_decay=weight_decay) for p in singles
        ]
        active_schedule = [None, np.array([1, 1, 0, 1], bool), None,
                           np.array([0, 1, 1, 1], bool)]
        for active in active_schedule:
            grads = self._grads(rng, layout, n_stack)
            for d in range(n_stack):
                if active is not None and not active[d]:
                    continue
                single_opts[d].step(
                    {name: grads[name][d].copy() for name in grads}
                )
            stacked_opt.step(grads, active=active)
            self._check(stacked_opt, singles, rtol=1e-6, atol=1e-7)

    def test_flat_storage_matches_dict_storage(self, rng):
        """Updates land in the caller's buffer, and its named views track
        per-model Adam over separate dicts through a sit-out step."""
        n_stack = 3
        layout, flat = self._flat_stack(rng, n_stack)
        singles = self._per_slice(layout, flat)
        opt = StackedAdam(layout, flat, lr=3e-3, weight_decay=1e-5)
        single_opts = [Adam(p, lr=3e-3, weight_decay=1e-5) for p in singles]
        schedule = [None, None, np.array([1, 0, 1], bool), None]
        for active in schedule:
            grads = self._grads(rng, layout, n_stack)
            for d in range(n_stack):
                if active is None or active[d]:
                    single_opts[d].step({name: g[d].copy() for name, g in grads.items()})
            opt.step(grads, active=active)
        for name, view in layout.views(flat).items():
            assert np.shares_memory(opt.params[name], flat)
            for d in range(n_stack):
                np.testing.assert_allclose(
                    view[d], singles[d][name], rtol=1e-6, atol=1e-7
                )

    def test_clipped_step_matches_clip_then_step(self, rng):
        n_stack = 4
        group_index = np.array([0, 1, 0, 1])
        layout, flat = self._flat_stack(rng, n_stack)
        singles = self._per_slice(layout, flat)
        opt = StackedAdam(layout, flat, lr=1e-2, weight_decay=1e-5)
        single_opts = [Adam(p, lr=1e-2, weight_decay=1e-5) for p in singles]
        for scale in (4.0, 0.1, 4.0):  # alternate clipping / not clipping
            grads = self._grads(rng, layout, n_stack, scale=scale)
            clipped = {name: g.copy() for name, g in grads.items()}
            norms_ref = clip_grad_norm_grouped(clipped, 2.0, group_index)
            for d in range(n_stack):
                single_opts[d].step({name: g[d].copy() for name, g in clipped.items()})
            norms = opt.clipped_step(grads, 2.0, group_index)
            np.testing.assert_allclose(norms, norms_ref, rtol=1e-5)
        self._check(opt, singles, rtol=1e-5, atol=1e-6)

    def test_grouped_clip_matches_scalar_clip(self, rng):
        n_stack = 4
        group_index = np.array([0, 1, 0, 1])
        grads = {
            "W": rng.normal(size=(n_stack, 6, 4)).astype(np.float32) * 3.0,
            "b": rng.normal(size=(n_stack, 4)).astype(np.float32) * 3.0,
        }
        per_group = {
            g: {
                name: np.concatenate(
                    [value[d][None] for d in range(n_stack) if group_index[d] == g]
                )
                for name, value in grads.items()
            }
            for g in (0, 1)
        }
        norms = clip_grad_norm_grouped(grads, 2.0, group_index)
        for g in (0, 1):
            expected_norm = clip_grad_norm(per_group[g], 2.0)
            assert norms[g] == pytest.approx(expected_norm, rel=1e-5)
            rows = [d for d in range(n_stack) if group_index[d] == g]
            for name in grads:
                np.testing.assert_allclose(
                    grads[name][rows], per_group[g][name], rtol=1e-6, atol=1e-8
                )


class TestInfoNCEStacked:
    @given(batch=st.integers(2, 8), dim=st.integers(2, 5), seed=st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar_per_slice(self, batch, dim, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, batch, dim)).astype(np.float32)
        b = rng.normal(size=(3, batch, dim)).astype(np.float32)
        losses, da, db = info_nce_stacked(a, b, temperature=0.2)
        for d in range(3):
            loss, ga, gb = info_nce(a[d], b[d], temperature=0.2)
            np.testing.assert_allclose(losses[d], loss, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(da[d], ga, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(db[d], gb, rtol=1e-4, atol=1e-6)

    def test_masked_rows_match_truncated_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 6, 4)).astype(np.float32)
        b = rng.normal(size=(2, 6, 4)).astype(np.float32)
        sizes = [6, 3]
        mask = (np.arange(6)[None, :] < np.array(sizes)[:, None]).astype(np.float32)
        a[1, 3:] = 0.0
        b[1, 3:] = 0.0
        losses, da, db = info_nce_stacked(a, b, row_mask=mask)
        for d, size in enumerate(sizes):
            loss, ga, gb = info_nce(a[d, :size], b[d, :size])
            np.testing.assert_allclose(losses[d], loss, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(da[d, :size], ga, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(da[d, size:], 0.0, atol=1e-7)

    def test_single_real_row_gives_zero(self):
        a = np.ones((1, 4, 3), np.float32)
        b = np.ones((1, 4, 3), np.float32)
        mask = np.array([[1.0, 0.0, 0.0, 0.0]], np.float32)
        losses, da, db = info_nce_stacked(a, b, row_mask=mask)
        assert losses[0] == 0.0
        assert np.all(da == 0.0) and np.all(db == 0.0)


def _spy_on_fused_training(monkeypatch) -> list:
    """Record the trainer list of every ``MultiDomainCVAETrainer.train``."""
    calls = []
    train = MultiDomainCVAETrainer.train

    def spy(self):
        calls.append(list(self.trainers))
        return train(self)

    monkeypatch.setattr(MultiDomainCVAETrainer, "train", spy)
    return calls


def _random_pair(rng, name, n_users, n_source, n_target, content=5):
    return DomainPair(
        source_name=name,
        target_name="Tgt",
        shared_user_ids=np.arange(n_users),
        ratings_source=(rng.random((n_users, n_source)) < 0.3).astype(np.float32),
        ratings_target=(rng.random((n_users, n_target)) < 0.3).astype(np.float32),
        content_source=rng.random((n_users, content)).astype(np.float32),
        content_target=rng.random((n_users, content)).astype(np.float32),
    )


class TestFusedTrainerMatchesOracle:
    """The fused trainer against the sequential oracle, driven directly over
    every input the augmenter can hand it: any k, ragged item widths (k=1
    with unequal source and target widths included), ragged user counts, and
    both decoder output activations."""

    @given(
        widths=st.lists(
            st.tuples(st.integers(3, 12), st.integers(3, 12)), min_size=1, max_size=3
        ),
        users=st.lists(st.integers(6, 20), min_size=3, max_size=3),
        out_activation=st.sampled_from(["sigmoid", "softmax"]),
        batch_size=st.sampled_from([4, 8]),
        seed=st.integers(0, 50),
    )
    @example(
        widths=[(9, 5)], users=[12, 12, 12], out_activation="softmax",
        batch_size=4, seed=0,
    )
    @example(
        widths=[(4, 9), (7, 9), (12, 9)], users=[10, 17, 6],
        out_activation="softmax", batch_size=4, seed=1,
    )
    @settings(max_examples=12, deadline=None)
    def test_fused_matches_sequential(self, widths, users, out_activation, batch_size, seed):
        rng = np.random.default_rng(seed)
        pairs = [
            _random_pair(rng, f"Src{i}", users[i], ws, wt)
            for i, (ws, wt) in enumerate(widths)
        ]
        config = TrainerConfig(epochs=8, batch_size=batch_size, eval_every=2)

        def trainers():
            return [
                DualCVAETrainer(
                    pair,
                    cvae_config=CVAEConfig(
                        pair.ratings_source.shape[1], pair.ratings_target.shape[1], 5,
                        latent_dim=3, hidden_dim=8, out_activation=out_activation,
                    ),
                    trainer_config=config,
                    seed=seed + i,
                )
                for i, pair in enumerate(pairs)
            ]

        fused, sequential = trainers(), trainers()
        MultiDomainCVAETrainer(fused).train()
        for trainer in sequential:
            train_sequential(trainer)
        for tf, ts in zip(fused, sequential):
            content = tf.pair.content_target
            np.testing.assert_allclose(
                tf.model.generate_from_content(content),
                ts.model.generate_from_content(content),
                rtol=0, atol=5e-3,
            )
            np.testing.assert_allclose(
                tf.history.train_loss, ts.history.train_loss, rtol=1e-4, atol=1e-4
            )
            np.testing.assert_allclose(
                tf.history.eval_loss, ts.history.eval_loss, rtol=1e-4, atol=1e-4
            )
            for term in ts.history.terms:
                np.testing.assert_allclose(
                    tf.history.terms[term], ts.history.terms[term], rtol=1e-3, atol=1e-3
                )


class TestFusedGradients:
    """The fused model's own gradients against float64 finite differences,
    padded regions included (both sides are exactly 0 there)."""

    @pytest.mark.parametrize(
        "widths_s,widths_t,sizes", [([9], [5], [4]), ([4, 8], [6, 3], [4, 3])],
        ids=["k1", "k2-ragged"],
    )
    @pytest.mark.parametrize("out_activation", ["sigmoid", "softmax"])
    @pytest.mark.parametrize("betas", [(0.0, 0.0), (0.1, 1.0)], ids=["no-beta", "beta"])
    def test_grads_match_numerical(self, widths_s, widths_t, sizes, out_activation, betas):
        models = _models(
            widths_s, widths_t, beta1=betas[0], beta2=betas[1],
            out_activation=out_activation, dtype=np.float64,
        )
        fused = FusedDualCVAE(models)
        batches, eps = _domain_batches(models, sizes)
        ratings, content, eps_arr, row_mask, row_counts = _fused_inputs(
            fused, batches, eps, sizes
        )

        def total() -> float:
            losses, _ = fused.forward(
                ratings, content, eps_arr, row_mask=row_mask, row_counts=row_counts
            )
            return float(losses["total"].sum())

        _, grads = fused.loss_and_grads(
            ratings, content, eps_arr, row_mask=row_mask, row_counts=row_counts
        )
        for name in ("enc.0.W", "enc_x.0.b", "dec.0.W", "dec.2.W", "dec.2.b", "crit.0.W"):
            param = fused.params[name]

            def loss_given(value, param=param):
                saved = param.copy()
                param[...] = value
                out = total()
                param[...] = saved
                return out

            num = numerical_gradient(loss_given, param.copy(), eps=1e-5)
            assert relative_error(grads[name], num) < 5e-3, name


class TestFusedTrainerEquivalence:
    """End to end: the fused trainer reproduces k sequential runs."""

    @pytest.fixture(scope="class")
    def both_paths(self, tiny_dataset):
        config = TrainerConfig(epochs=25)
        sequential = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=config, seed=0
        )
        fused = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=config, seed=0
        )
        return (
            fit_generate_sequential(sequential),
            fused.fit_generate(),
            sequential,
            fused,
        )

    def test_fit_generate_matrices_match(self, both_paths):
        seq_out, fused_out, _, _ = both_paths
        assert seq_out.source_names == fused_out.source_names
        for a, b in zip(seq_out.matrices, fused_out.matrices):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-4)

    def test_model_parameters_match(self, both_paths):
        _, _, sequential, fused = both_paths
        for ts, tf in zip(sequential.trainers, fused.trainers):
            for name in ts.model.params:
                np.testing.assert_allclose(
                    ts.model.params[name], tf.model.params[name],
                    rtol=1e-3, atol=1e-4, err_msg=name,
                )

    def test_histories_match(self, both_paths):
        _, _, sequential, fused = both_paths
        for ts, tf in zip(sequential.trainers, fused.trainers):
            np.testing.assert_allclose(
                ts.history.train_loss, tf.history.train_loss, rtol=1e-4, atol=1e-4
            )
            np.testing.assert_allclose(
                ts.history.eval_loss, tf.history.eval_loss, rtol=1e-4, atol=1e-4
            )
            for term in ts.history.terms:
                np.testing.assert_allclose(
                    ts.history.terms[term], tf.history.terms[term],
                    rtol=1e-3, atol=1e-3,
                )

    def test_fused_is_the_default(self, tiny_dataset, monkeypatch):
        """The augmenter trains all k models in one fused trainer, and a
        lone trainer's ``train()`` is a one-domain fused trainer."""
        calls = _spy_on_fused_training(monkeypatch)
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=TrainerConfig(epochs=1)
        )
        augmenter.fit()
        assert calls == [augmenter.trainers]
        assert len(augmenter.trainers) == 2

        lone = DualCVAETrainer(
            tiny_dataset.pairs[("SrcA", "Tgt")], trainer_config=TrainerConfig(epochs=1)
        )
        history = lone.train()
        assert calls[-1] == [lone]
        assert history is lone.history and len(history.train_loss) == 1

    def test_softmax_override_falls_back_to_sequential(self, tiny_dataset, monkeypatch):
        """Softmax decoders over unequal item widths train fused too."""
        calls = _spy_on_fused_training(monkeypatch)
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt",
            cvae_config_overrides={"out_activation": "softmax"},
            trainer_config=TrainerConfig(epochs=1),
        )
        out = augmenter.fit_generate()
        assert calls == [augmenter.trainers]
        widths = {t.model.config.n_items_source for t in augmenter.trainers}
        widths |= {t.model.config.n_items_target for t in augmenter.trainers}
        assert len(widths) > 1
        for matrix in out.matrices:
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-5)

    def test_multi_domain_trainer_requires_shared_config(self, tiny_dataset):
        pairs = tiny_dataset.pairs_for_target("Tgt")
        trainers = [
            DualCVAETrainer(pairs[0], trainer_config=TrainerConfig(epochs=5)),
            DualCVAETrainer(pairs[1], trainer_config=TrainerConfig(epochs=6)),
        ]
        with pytest.raises(ValueError):
            MultiDomainCVAETrainer(trainers)


class TestEvalEvery:
    def test_sparse_eval_trace(self, tiny_dataset):
        pair = tiny_dataset.pairs[("SrcA", "Tgt")]
        trainer = DualCVAETrainer(
            pair, trainer_config=TrainerConfig(epochs=10, eval_every=4), seed=0
        )
        history = trainer.train()
        assert len(history.train_loss) == 10
        assert len(history.eval_loss) == 2  # epochs 4 and 8

    def test_eval_every_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(eval_every=0)

    def test_scalar_loss_only_matches_loss_and_grads(self, tiny_dataset):
        pair = tiny_dataset.pairs[("SrcA", "Tgt")]
        trainer = DualCVAETrainer(pair, seed=0)
        batch = batch_rows(trainer, trainer._eval_rows)
        losses = cvae_loss_only(trainer.model, *batch, rng=np.random.default_rng(0))
        full, _ = cvae_loss_and_grads(trainer.model, *batch, rng=np.random.default_rng(0))
        for term in LOSS_TERMS:
            assert losses[term] == pytest.approx(full[term], rel=1e-6)
