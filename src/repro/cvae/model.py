"""The Dual Conditional VAE (Fig. 1 of the paper).

Architecture per domain ``d ∈ {source, target}``:

- rating encoder ``E_d``: MLP on ``[r_d ; x_d]`` producing ``(mu_d, log_var_d)``,
- content encoder ``E^x_d``: MLP on ``x_d`` producing the dense code ``z^x_d``,
- decoder ``D_d``: MLP on ``[z ; x_d]`` producing reconstructed ratings in
  ``[0, 1]`` (sigmoid output — see note below),
- a linear critic projection ``P_d`` mapping the decoder output to the latent
  dimension, used only inside the ME InfoNCE term (the two domains have
  different item counts, so their outputs cannot be dotted directly).

Output-activation note: the paper states softmax on the decoder output; a
softmax over the item axis produces a distribution (Mult-VAE style) whose
entries are ~1/m and which cannot represent independent per-item
probabilities — unusable as soft labels for the downstream BCE meta-learner.
We default to sigmoid (independent per-item probabilities in [0, 1], exactly
the range the paper requires for augmented ratings) and keep softmax as an
option for ablation.

Training runs through :class:`FusedDualCVAE`, which stacks the branches of
one or more Dual-CVAEs and computes Eq. (8) for all of them in one pass.
Its gradients are derived by hand on top of :mod:`repro.nn`; the test suite
checks them against numerical differentiation of the fused loss, and checks
the fused loss against a scalar per-model reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.nn.layers import Softmax
from repro.nn.losses import (
    _EPS as _BCE_EPS,  # the fused BCE clips like binary_cross_entropy
    gaussian_kl_to_code_stacked,
    info_nce_stacked,
)
from repro.nn.module import Grads, Module, Params, mlp
from repro.nn.optim import require_finite
from repro.nn.stacking import ParamLayout, pad_axis, stack_params
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class CVAEConfig:
    """Hyper-parameters of one Dual-CVAE.

    ``beta1`` weighs the MDI constraint, ``beta2`` the ME constraint —
    matching Eq. (8).  The paper's grid search selects β1 = 0.1, β2 = 1.
    """

    n_items_source: int
    n_items_target: int
    content_dim: int
    latent_dim: int = 16
    hidden_dim: int = 64
    beta1: float = 0.1
    beta2: float = 1.0
    infonce_temperature: float = 0.1
    out_activation: str = "sigmoid"

    def __post_init__(self) -> None:
        if min(self.n_items_source, self.n_items_target, self.content_dim) <= 0:
            raise ValueError("dimensions must be positive")
        if self.latent_dim <= 0 or self.hidden_dim <= 0:
            raise ValueError("latent/hidden dims must be positive")
        # NaN passes a bare ``< 0`` check and trains every matrix to NaN; a
        # zero or negative temperature makes InfoNCE's logits non-finite.
        require_finite("beta1", self.beta1, positive=False)
        require_finite("beta2", self.beta2, positive=False)
        require_finite("infonce_temperature", self.infonce_temperature)
        if self.out_activation not in ("sigmoid", "softmax"):
            raise ValueError("out_activation must be 'sigmoid' or 'softmax'")


@dataclass
class _Branch:
    """The three networks of one domain branch."""

    encoder: Module
    content_encoder: Module
    decoder: Module
    critic: Module


def build_branch(
    n_items: int,
    content_dim: int,
    latent_dim: int,
    hidden_dim: int,
    out_activation: str,
) -> _Branch:
    """One domain branch's module set (shared by scalar and fused models)."""
    return _Branch(
        encoder=mlp(
            [n_items + content_dim, hidden_dim, 2 * latent_dim], activation="tanh"
        ),
        content_encoder=mlp([content_dim, hidden_dim, latent_dim], activation="tanh"),
        decoder=mlp(
            [latent_dim + content_dim, hidden_dim, n_items],
            activation="tanh",
            out_activation=out_activation,
        ),
        critic=mlp([n_items, latent_dim]),
    )


class DualCVAE:
    """A Dual-CVAE over one (source, target) domain pair.

    Parameters are stored flat in :attr:`params` with component prefixes
    (``enc_s.``, ``enc_x_s.``, ``dec_s.``, ``crit_s.`` and the ``_t``
    counterparts).  The model holds the parameters and the inference paths;
    training stacks it into a :class:`FusedDualCVAE` (alone or with the
    other source domains' models) and writes the result back.

    Parameters and activations default to ``float32`` — the matrices only
    ever hold ratings in [0, 1] and O(1) activations, and the narrower dtype
    halves the memory traffic of the training hot loop.  Pass
    ``dtype=np.float64`` for gradient checking against numerical
    differentiation, where float32 rounding would drown the finite
    differences.
    """

    def __init__(
        self,
        config: CVAEConfig,
        rng: int | np.random.Generator | None = 0,
        dtype: np.dtype | type = np.float32,
    ):
        self.config = config
        self.dtype = np.dtype(dtype)
        gen = ensure_rng(rng)
        c, latent, hidden = config.content_dim, config.latent_dim, config.hidden_dim

        def branch(n_items: int) -> _Branch:
            return build_branch(n_items, c, latent, hidden, config.out_activation)

        self._branches = {
            "s": branch(config.n_items_source),
            "t": branch(config.n_items_target),
        }
        self.params: Params = {}
        for side, br in self._branches.items():
            for prefix, module in self._components(side, br):
                for name, value in module.init_params(gen).items():
                    self.params[f"{prefix}.{name}"] = value.astype(self.dtype)

    @staticmethod
    def _components(side: str, br: _Branch) -> list[tuple[str, Module]]:
        return [
            (f"enc_{side}", br.encoder),
            (f"enc_x_{side}", br.content_encoder),
            (f"dec_{side}", br.decoder),
            (f"crit_{side}", br.critic),
        ]

    # ------------------------------------------------------------------
    # parameter plumbing
    # ------------------------------------------------------------------
    def _sub(self, prefix: str, params: Params | None = None) -> Params:
        src = self.params if params is None else params
        dot = prefix + "."
        return {k[len(dot):]: v for k, v in src.items() if k.startswith(dot)}

    # ------------------------------------------------------------------
    # forward pieces
    # ------------------------------------------------------------------
    def _cast(self, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        """Coerce inputs to the model dtype (no copy when already matching)."""
        return tuple(np.asarray(a, dtype=self.dtype) for a in arrays)

    def encode(
        self, side: str, ratings: np.ndarray, content: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, Any]:
        """Rating encoder: returns ``(mu, log_var, cache)``."""
        br = self._branches[side]
        ratings, content = self._cast(ratings, content)
        x = np.concatenate([ratings, content], axis=1)
        out, cache = br.encoder.forward(self._sub(f"enc_{side}"), x)
        latent = self.config.latent_dim
        return out[:, :latent], out[:, latent:], cache

    def encode_content(self, side: str, content: np.ndarray) -> np.ndarray:
        """Content encoder output ``z^x`` (no cache; inference only)."""
        br = self._branches[side]
        (content,) = self._cast(content)
        return br.content_encoder(self._sub(f"enc_x_{side}"), content)

    def decode(self, side: str, z: np.ndarray, content: np.ndarray) -> np.ndarray:
        """Decoder output (inference only)."""
        br = self._branches[side]
        z, content = self._cast(z, content)
        x = np.concatenate([z, content], axis=1)
        return br.decoder(self._sub(f"dec_{side}"), x)

    def generate_from_content(self, content: np.ndarray) -> np.ndarray:
        """The augmentation path (red line in Fig. 1): content → E^x_t → D_t.

        Returns a rating vector in [0, 1] for every row of ``content``.
        This is the only inference path used by diverse preference
        augmentation; it needs no ratings at all, which is what makes the
        augmentation applicable to *every* target-domain user.
        """
        z = self.encode_content("t", content)
        return self.decode("t", z, content)


# ----------------------------------------------------------------------
# Fused multi-domain model: k Dual-CVAEs stacked along a leading axis.
# ----------------------------------------------------------------------

def _pad_component(
    comp: str, sub: Params, n_items: int, n_items_max: int
) -> Params:
    """Pad one branch component's parameters to the common item width.

    Only three arrays touch an item axis: the encoder's first weight (its
    *rows* are ``[items ; content]``, so the item block is padded in place
    and the content block moves to offset ``n_items_max``), the decoder's
    last weight/bias (output columns) and the critic's weight (input rows).
    Zero padding is exact: padded rows/columns meet only zero-padded inputs
    and masked gradients, so they stay identically zero through training.
    """
    padded = dict(sub)
    if comp == "enc":
        weight = sub["0.W"]
        item_rows, content_rows = weight[:n_items], weight[n_items:]
        padded["0.W"] = np.concatenate(
            [pad_axis(item_rows, 0, n_items_max), content_rows], axis=0
        )
    elif comp == "dec":
        padded["2.W"] = pad_axis(sub["2.W"], 1, n_items_max)
        padded["2.b"] = pad_axis(sub["2.b"], 0, n_items_max)
    elif comp == "crit":
        padded["0.W"] = pad_axis(sub["0.W"], 0, n_items_max)
    return padded


def _unpad_component(
    comp: str, name: str, value: np.ndarray, n_items: int, n_items_max: int
) -> np.ndarray:
    """Inverse of :func:`_pad_component` for one parameter slice."""
    if comp == "enc" and name == "0.W":
        return np.concatenate([value[:n_items], value[n_items_max:]], axis=0)
    if comp == "dec" and name == "2.W":
        return value[:, :n_items]
    if comp == "dec" and name == "2.b":
        return value[:n_items]
    if comp == "crit" and name == "0.W":
        return value[:n_items]
    return value


_COMPONENTS = ("enc", "enc_x", "dec", "crit")


class FusedDualCVAE:
    """``k`` Dual-CVAEs trained as one stacked model.

    The 2k domain branches (k source + k target) share one architecture and
    differ only in item-axis width, so their parameters are padded to the
    widest axis and stacked along a leading ``[2k, ...]`` axis: slice ``d``
    in ``[0, k)`` is domain ``d``'s *source* branch, slice ``k + d`` its
    *target* branch.  One stacked forward/backward per step then trains
    every branch of every domain at once — encoders in one pass, all four
    decoder reconstructions of every domain in one pass (self and cross
    reconstructions ride a doubled batch axis).  ``k = 1`` is one Dual-CVAE
    trained as two stacked branches.

    Padding contract: inputs are zero-padded to the common item width,
    losses are masked, and a softmax decoder normalizes each branch over its
    own items only (:attr:`out_mask` is the softmax's ``valid`` mask), so
    padded output columns are exactly 0.  Padded parameter regions therefore
    receive exactly zero gradients and never drift from zero, and
    :meth:`write_back` recovers each scalar model's parameters by slicing.
    """

    def __init__(self, models: Sequence[DualCVAE]):
        if not models:
            raise ValueError("FusedDualCVAE needs at least one model")
        self.models = list(models)
        self.k = len(self.models)
        ref = self.models[0].config
        for model in self.models:
            cfg = model.config
            if (
                cfg.content_dim != ref.content_dim
                or cfg.latent_dim != ref.latent_dim
                or cfg.hidden_dim != ref.hidden_dim
                or cfg.beta1 != ref.beta1
                or cfg.beta2 != ref.beta2
                or cfg.infonce_temperature != ref.infonce_temperature
                or cfg.out_activation != ref.out_activation
            ):
                raise ValueError(
                    "fused training requires identical CVAE hyper-parameters "
                    "across domains (item counts may differ)"
                )
            if model.dtype != self.models[0].dtype:
                raise ValueError("fused training requires a uniform dtype")
        self.config = ref
        self.dtype = self.models[0].dtype
        self.latent_dim = ref.latent_dim
        self.content_dim = ref.content_dim

        widths = [m.config.n_items_source for m in self.models]
        widths += [m.config.n_items_target for m in self.models]
        self.widths = np.asarray(widths, dtype=np.int64)
        self.n_items_max = int(self.widths.max())
        self.n_stack = 2 * self.k
        cols = np.arange(self.n_items_max)
        self.out_mask = (
            cols[None, :] < self.widths[:, None]
        ).astype(self.dtype)[:, None, :]  # (2k, 1, n_items_max)
        self._widths_f = self.widths.astype(self.dtype)
        self.branch = build_branch(
            self.n_items_max,
            ref.content_dim,
            ref.latent_dim,
            ref.hidden_dim,
            ref.out_activation,
        )
        if ref.out_activation == "softmax":
            self.branch.decoder.layers[-1] = Softmax(valid=self.out_mask > 0)
        #: maps each stacked slice to its domain (source and target branches
        #: of one domain share a gradient-clipping group / Adam schedule).
        self.group_index = np.concatenate([np.arange(self.k), np.arange(self.k)])

        self.params: Params = {}
        for comp in _COMPONENTS:
            per_slice = []
            for d in range(self.n_stack):
                side = "s" if d < self.k else "t"
                model = self.models[d % self.k]
                sub = model._sub(f"{comp}_{side}")
                per_slice.append(
                    _pad_component(comp, sub, int(self.widths[d]), self.n_items_max)
                )
            for name, value in stack_params(per_slice).items():
                self.params[f"{comp}.{name}"] = value
        # Repack every parameter as a view into one contiguous slice-major
        # ``(2k, P)`` buffer: the stacked optimizer then updates the whole
        # model in a dozen vector ops, and per-domain gradient norms become
        # one contraction over the matching gradient buffer.
        self.layout = ParamLayout(
            (name, self.params[name].shape[1:]) for name in sorted(self.params)
        )
        self.flat_params = np.empty(
            (self.n_stack, self.layout.size), dtype=self.dtype
        )
        for name, view in self.layout.views(self.flat_params).items():
            view[...] = self.params[name]
            self.params[name] = view
        # Sub-dict views are stable: optimizers update arrays in place, so
        # both the per-component dicts and the per-layer split are built
        # once — the hot loop never rebuilds a parameter dict.
        self._subs = {comp: self._strip(comp) for comp in _COMPONENTS}
        self._layer_params = {
            comp: module.split(self._subs[comp])
            for comp, module in (
                ("enc", self.branch.encoder),
                ("enc_x", self.branch.content_encoder),
                ("dec", self.branch.decoder),
                ("crit", self.branch.critic),
            )
        }

    def _forward(self, comp: str, module, x: np.ndarray):
        """Sequential forward over prebuilt per-layer parameter dicts."""
        return module.forward_layers(self._layer_params[comp], x)

    def _backward(self, comp: str, module, caches, dy: np.ndarray, grads: Grads):
        """Sequential backward mirror of :meth:`_forward`; fills ``grads``."""
        grad_out, layer_grads = module.backward_layers(
            self._layer_params[comp], caches, dy
        )
        module.named_grads(layer_grads, f"{comp}.", grads)
        return grad_out

    def _strip(self, prefix: str) -> Params:
        dot = prefix + "."
        return {
            name[len(dot):]: value
            for name, value in self.params.items()
            if name.startswith(dot)
        }

    def _swap(self, x: np.ndarray) -> np.ndarray:
        """Exchange the source and target halves of the stack axis."""
        return np.concatenate([x[self.k:], x[:self.k]], axis=0)

    # ------------------------------------------------------------------
    def loss_and_grads(
        self,
        ratings: np.ndarray,
        content: np.ndarray,
        eps: np.ndarray,
        row_mask: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
    ) -> tuple[dict[str, np.ndarray], Grads]:
        """Per-domain losses of Eq. (8) and stacked gradients for one step:
        :meth:`forward`, then :meth:`backward` over its tape."""
        losses, tape = self.forward(
            ratings, content, eps, row_mask=row_mask, row_counts=row_counts
        )
        return losses, self.backward(tape)

    def forward(
        self,
        ratings: np.ndarray,
        content: np.ndarray,
        eps: np.ndarray,
        row_mask: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
    ) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """Per-domain losses of Eq. (8) for one stacked batch.

        Parameters
        ----------
        ratings:
            ``(2k, batch, n_items_max)`` zero-padded ratings (source
            branches first).
        content:
            ``(2k, batch, content_dim)`` user content per branch.
        eps:
            ``(2k, batch, latent)`` reparameterization noise, zero in
            padded rows.
        row_mask:
            ``(2k, batch)`` with 1 for real rows, or ``None`` when every
            slice fills the batch.
        row_counts:
            ``(2k,)`` real row counts (defaults to the full batch).

        Returns ``(losses, tape)``: every loss term is a ``(k,)`` array of
        per-domain values summed over the domain's two branches, and
        ``tape`` is what :meth:`backward` needs.  Evaluation stops here.
        """
        cfg = self.config
        k, latent = self.k, self.latent_dim
        batch = ratings.shape[1]
        if row_counts is None:
            row_counts = np.full(self.n_stack, batch, dtype=np.int64)
        counts_f = np.asarray(row_counts).astype(self.dtype)
        # max(count, 1): slices sitting a step out (count 0) produce fully
        # masked zeros, not 0/0.
        elem_counts = np.maximum(counts_f * self._widths_f, 1.0)

        # ---- encoders, reparameterization, content encoders -------------
        enc_in = np.concatenate([ratings, content], axis=2)
        enc_out, enc_cache = self._forward("enc", self.branch.encoder, enc_in)
        mu, log_var_raw = enc_out[..., :latent], enc_out[..., latent:]
        log_var = np.clip(log_var_raw, -8.0, 8.0)
        sigma = np.exp(0.5 * log_var)
        z = mu + sigma * eps
        zx, zx_cache = self._forward("enc_x", self.branch.content_encoder, content)

        # ---- decoders: self and cross reconstruction in one pass --------
        # Each branch decodes its own latent code (rows [:batch]) and its
        # partner branch's (rows [batch:]); both compare against the
        # branch's own ratings: the four reconstruction paths of Eq. (8).
        dec_in = np.concatenate(
            [
                np.concatenate([z, content], axis=2),
                np.concatenate([self._swap(z), content], axis=2),
            ],
            axis=1,
        )
        dec_out, dec_cache = self._forward("dec", self.branch.decoder, dec_in)
        dec_out = dec_out * self.out_mask
        out_self = dec_out[:, :batch]

        # ---- BCE over self and cross reconstructions in one pass --------
        # Both halves compare against the branch's own ratings with the
        # same per-slice normalization, so one clipped-log pass covers all
        # four reconstruction losses.
        target = np.concatenate([ratings, ratings], axis=1)
        pred = np.clip(dec_out, _BCE_EPS, 1.0 - _BCE_EPS)
        per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
        if row_mask is not None:
            elem_mask = self.out_mask * row_mask[:, :, None]
            mask2 = np.concatenate([elem_mask, elem_mask], axis=1)
        else:
            mask2 = self.out_mask  # broadcasts over the doubled batch
        per_elem = per_elem * mask2
        losses_self = (
            per_elem[:, :batch].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        losses_cross = (
            per_elem[:, batch:].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        kl_d, d_mu, d_log_var, d_zx = gaussian_kl_to_code_stacked(
            mu, log_var, zx, row_mask=row_mask, counts=counts_f
        )

        # ---- latent/content alignment MSE (Eq. 4) -----------------------
        diff = z - zx
        if row_mask is not None:
            diff = diff * row_mask[:, :, None]
        mse_counts = counts_f * np.asarray(latent, dtype=self.dtype)
        mse_counts = np.maximum(mse_counts, 1.0)
        mse_d = (diff * diff).reshape(self.n_stack, -1).sum(axis=1) / mse_counts

        # ---- MDI and ME InfoNCE terms (Eqs. 6-7) ------------------------
        # Latent codes and critic projections share the latent width, so
        # both contrastive terms ride one stacked call when both are on.
        # Each call returns its gradients too; the tape keeps them for the
        # backward half.
        mask_k = None if row_mask is None else row_mask[:k]
        mdi = me = np.zeros(k, dtype=self.dtype)
        d_mdi = d_me = crit_cache = None
        if cfg.beta2 > 0:
            proj, crit_cache = self._forward("crit", self.branch.critic, out_self)
        if cfg.beta1 > 0 and cfg.beta2 > 0:
            both, d_a, d_b = info_nce_stacked(
                np.concatenate([z[:k], proj[:k]], axis=0),
                np.concatenate([z[k:], proj[k:]], axis=0),
                row_mask=None if mask_k is None else np.tile(mask_k, (2, 1)),
                temperature=cfg.infonce_temperature,
            )
            mdi, me = both[:k], both[k:]
            d_mdi = np.concatenate([d_a[:k], d_b[:k]], axis=0)
            d_me = np.concatenate([d_a[k:], d_b[k:]], axis=0)
        elif cfg.beta1 > 0:
            mdi, d_zs, d_zt = info_nce_stacked(
                z[:k], z[k:], row_mask=mask_k, temperature=cfg.infonce_temperature
            )
            d_mdi = np.concatenate([d_zs, d_zt], axis=0)
        elif cfg.beta2 > 0:
            me, d_ps, d_pt = info_nce_stacked(
                proj[:k], proj[k:], row_mask=mask_k,
                temperature=cfg.infonce_temperature,
            )
            d_me = np.concatenate([d_ps, d_pt], axis=0)

        fold = lambda arr: arr[:k] + arr[k:]  # noqa: E731 — sum both branches
        losses = {
            "elbo_recon": fold(losses_self),
            "kl": fold(kl_d),
            "mse": fold(mse_d),
            "cross_recon": fold(losses_cross),
            "mdi": mdi,
            "me": me,
        }
        losses["total"] = (
            losses["elbo_recon"]
            + losses["kl"]
            + losses["mse"]
            + losses["cross_recon"]
            + cfg.beta1 * losses["mdi"]
            + cfg.beta2 * losses["me"]
        )
        tape = {
            "batch": batch,
            "eps": eps,
            "sigma": sigma,
            "clip_mask": np.abs(log_var_raw) < 8.0,
            "enc_cache": enc_cache,
            "zx_cache": zx_cache,
            "dec_cache": dec_cache,
            "crit_cache": crit_cache,
            "pred": pred,
            "target": target,
            "mask2": mask2,
            "elem_counts": elem_counts,
            "d_mu": d_mu,
            "d_log_var": d_log_var,
            "d_zx": d_zx,
            "diff": diff,
            "mse_counts": mse_counts,
            "d_mdi": d_mdi,
            "d_me": d_me,
        }
        return losses, tape

    def backward(self, tape: dict[str, Any]) -> Grads:
        """Stacked gradients of every domain's total loss, from a
        :meth:`forward` tape; padded parameter regions get exact zeros."""
        cfg = self.config
        batch, latent = tape["batch"], self.latent_dim
        pred, target = tape["pred"], tape["target"]
        d_bce = (pred - target) / (pred * (1.0 - pred))
        d_bce = d_bce * tape["mask2"]
        d_bce = d_bce / tape["elem_counts"][:, None, None]
        d_self, d_cross = d_bce[:, :batch], d_bce[:, batch:]

        diff, mse_counts = tape["diff"], tape["mse_counts"]
        d_z = 2.0 * diff / mse_counts[:, None, None]
        d_zx = tape["d_zx"] + (-2.0 * diff / mse_counts[:, None, None])
        if tape["d_mdi"] is not None:
            d_z = d_z + cfg.beta1 * tape["d_mdi"]

        grads: Grads = {}
        if tape["d_me"] is not None:
            d_out_crit = self._backward(
                "crit", self.branch.critic, tape["crit_cache"],
                cfg.beta2 * tape["d_me"], grads,
            )
            d_self = d_self + d_out_crit

        # ---- decoders -> latent codes -----------------------------------
        d_out = np.concatenate([d_self, d_cross], axis=1)
        d_dec_in = self._backward(
            "dec", self.branch.decoder, tape["dec_cache"], d_out, grads
        )
        d_z = d_z + d_dec_in[:, :batch, :latent] + self._swap(
            d_dec_in[:, batch:, :latent]
        )

        # ---- reparameterization -> encoders -----------------------------
        d_mu = tape["d_mu"] + d_z
        d_log_var = (
            tape["d_log_var"] + d_z * 0.5 * tape["sigma"] * tape["eps"]
        ) * tape["clip_mask"]
        d_enc_out = np.concatenate([d_mu, d_log_var], axis=2)
        self._backward("enc", self.branch.encoder, tape["enc_cache"], d_enc_out, grads)
        self._backward(
            "enc_x", self.branch.content_encoder, tape["zx_cache"], d_zx, grads
        )

        for name, value in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(value)
        return grads

    # ------------------------------------------------------------------
    def write_back(self) -> None:
        """Copy the trained stacked parameters back into the scalar models."""
        for d in range(self.n_stack):
            side = "s" if d < self.k else "t"
            model = self.models[d % self.k]
            n_items = int(self.widths[d])
            for comp in _COMPONENTS:
                for name in self._subs[comp]:
                    value = self.params[f"{comp}.{name}"][d]
                    model.params[f"{comp}_{side}.{name}"] = np.ascontiguousarray(
                        _unpad_component(comp, name, value, n_items, self.n_items_max)
                    )
