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

All gradients are derived by hand on top of :mod:`repro.nn`; the test suite
checks them against numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.nn.losses import (
    _EPS as _BCE_EPS,  # the fused BCE must round exactly like the scalar one
    binary_cross_entropy,
    gaussian_kl_to_code,
    gaussian_kl_to_code_stacked,
    info_nce,
    info_nce_stacked,
)
from repro.nn.module import Grads, Module, Params, mlp
from repro.nn.optim import add_grads
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
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("constraint weights must be non-negative")
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
    counterparts), so a single optimizer drives the whole model.

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

    @staticmethod
    def _merge(total: Grads, prefix: str, grads: Grads) -> None:
        add_grads(total, {f"{prefix}.{k}": v for k, v in grads.items()})

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

    # ------------------------------------------------------------------
    # training: loss and gradients for one batch of shared users
    # ------------------------------------------------------------------
    def loss_and_grads(
        self,
        ratings_source: np.ndarray,
        ratings_target: np.ndarray,
        content_source: np.ndarray,
        content_target: np.ndarray,
        rng: int | np.random.Generator | None = None,
    ) -> tuple[dict[str, float], Grads]:
        """Compute all five loss terms of Eq. (8) and their gradients.

        Returns ``(losses, grads)`` where ``losses`` holds each named term
        plus ``"total"`` and ``grads`` matches :attr:`params`.
        """
        gen = ensure_rng(rng)
        cfg = self.config
        grads: Grads = {}

        ratings_source, content_source = self._cast(ratings_source, content_source)
        ratings_target, content_target = self._cast(ratings_target, content_target)
        sides = {
            "s": (ratings_source, content_source),
            "t": (ratings_target, content_target),
        }
        state: dict[str, dict[str, Any]] = {}

        # ---- forward: encoders, reparameterization, content encoders ----
        for side, (ratings, content) in sides.items():
            br = self._branches[side]
            mu, log_var_raw, enc_cache = self.encode(side, ratings, content)
            log_var = np.clip(log_var_raw, -8.0, 8.0)
            clip_mask = np.abs(log_var_raw) < 8.0
            eps = gen.normal(size=mu.shape).astype(mu.dtype, copy=False)
            sigma = np.exp(0.5 * log_var)
            z = mu + sigma * eps
            zx, zx_cache = br.content_encoder.forward(
                self._sub(f"enc_x_{side}"), content
            )
            state[side] = {
                "ratings": ratings,
                "content": content,
                "mu": mu,
                "log_var": log_var,
                "clip_mask": clip_mask,
                "eps": eps,
                "sigma": sigma,
                "z": z,
                "zx": zx,
                "enc_cache": enc_cache,
                "zx_cache": zx_cache,
                # gradient accumulators
                "d_mu": np.zeros_like(mu),
                "d_log_var": np.zeros_like(log_var),
                "d_z": np.zeros_like(z),
                "d_zx": np.zeros_like(zx),
            }

        # ---- decoders: self reconstruction and cross reconstruction ----
        # self: D_s(z_s, x_s) vs r_s ;  cross: D_s(z_t, x_s) vs r_s
        recon: dict[tuple[str, str], dict[str, Any]] = {}
        for dec_side in ("s", "t"):
            for z_side in ("s", "t"):
                br = self._branches[dec_side]
                x_in = np.concatenate(
                    [state[z_side]["z"], state[dec_side]["content"]], axis=1
                )
                out, cache = br.decoder.forward(self._sub(f"dec_{dec_side}"), x_in)
                recon[(dec_side, z_side)] = {
                    "out": out,
                    "cache": cache,
                    "d_out": np.zeros_like(out),
                }

        losses: dict[str, float] = {}

        # ---- ELBO reconstruction (self paths) ----
        elbo_rec = 0.0
        for side in ("s", "t"):
            r = recon[(side, side)]
            loss, d_out = binary_cross_entropy(r["out"], state[side]["ratings"])
            elbo_rec += loss
            r["d_out"] += d_out
        losses["elbo_recon"] = elbo_rec

        # ---- content-conditioned KL (Eq. 3) ----
        kl_total = 0.0
        for side in ("s", "t"):
            st = state[side]
            kl, d_mu, d_log_var, d_code = gaussian_kl_to_code(
                st["mu"], st["log_var"], st["zx"]
            )
            kl_total += kl
            st["d_mu"] += d_mu
            st["d_log_var"] += d_log_var
            st["d_zx"] += d_code
        losses["kl"] = kl_total

        # ---- latent/content alignment MSE (Eq. 4) ----
        mse_total = 0.0
        for side in ("s", "t"):
            st = state[side]
            diff = st["z"] - st["zx"]
            n = diff.size
            mse_total += float((diff * diff).sum() / n)
            st["d_z"] += 2.0 * diff / n
            st["d_zx"] += -2.0 * diff / n
        losses["mse"] = mse_total

        # ---- cross-domain reconstruction (Eq. 5) ----
        rec_total = 0.0
        for dec_side, z_side in (("s", "t"), ("t", "s")):
            r = recon[(dec_side, z_side)]
            loss, d_out = binary_cross_entropy(r["out"], state[dec_side]["ratings"])
            rec_total += loss
            r["d_out"] += d_out
        losses["cross_recon"] = rec_total

        # ---- MDI: InfoNCE on latent codes (Eq. 6) ----
        if cfg.beta1 > 0:
            mdi, d_zs, d_zt = info_nce(
                state["s"]["z"], state["t"]["z"], temperature=cfg.infonce_temperature
            )
            losses["mdi"] = mdi
            state["s"]["d_z"] += cfg.beta1 * d_zs
            state["t"]["d_z"] += cfg.beta1 * d_zt
        else:
            losses["mdi"] = 0.0

        # ---- ME: InfoNCE on decoder outputs through critics (Eq. 7) ----
        if cfg.beta2 > 0:
            crit_caches = {}
            proj = {}
            for side in ("s", "t"):
                br = self._branches[side]
                p, cache = br.critic.forward(
                    self._sub(f"crit_{side}"), recon[(side, side)]["out"]
                )
                proj[side] = p
                crit_caches[side] = cache
            me, d_ps, d_pt = info_nce(
                proj["s"], proj["t"], temperature=cfg.infonce_temperature
            )
            losses["me"] = me
            for side, d_p in (("s", d_ps), ("t", d_pt)):
                br = self._branches[side]
                d_out, crit_grads = br.critic.backward(
                    self._sub(f"crit_{side}"), crit_caches[side], cfg.beta2 * d_p
                )
                self._merge(grads, f"crit_{side}", crit_grads)
                recon[(side, side)]["d_out"] += d_out
        else:
            losses["me"] = 0.0

        losses["total"] = (
            losses["elbo_recon"]
            + losses["kl"]
            + losses["mse"]
            + losses["cross_recon"]
            + cfg.beta1 * losses["mdi"]
            + cfg.beta2 * losses["me"]
        )

        # ---- backward: decoders → latent codes ----
        latent = cfg.latent_dim
        for (dec_side, z_side), r in recon.items():
            if not np.any(r["d_out"]):
                continue
            br = self._branches[dec_side]
            d_in, dec_grads = br.decoder.backward(
                self._sub(f"dec_{dec_side}"), r["cache"], r["d_out"]
            )
            self._merge(grads, f"dec_{dec_side}", dec_grads)
            state[z_side]["d_z"] += d_in[:, :latent]

        # ---- backward: reparameterization → encoders; content encoders ----
        for side in ("s", "t"):
            st = state[side]
            br = self._branches[side]
            # z = mu + exp(0.5*log_var) * eps
            d_mu = st["d_mu"] + st["d_z"]
            d_log_var = st["d_log_var"] + st["d_z"] * 0.5 * st["sigma"] * st["eps"]
            # The clip on log_var zeroes the gradient where it saturated.
            d_log_var = d_log_var * st["clip_mask"]
            d_enc_out = np.concatenate([d_mu, d_log_var], axis=1)
            _, enc_grads = br.encoder.backward(
                self._sub(f"enc_{side}"), st["enc_cache"], d_enc_out
            )
            self._merge(grads, f"enc_{side}", enc_grads)

            _, zx_grads = br.content_encoder.backward(
                self._sub(f"enc_x_{side}"), st["zx_cache"], st["d_zx"]
            )
            self._merge(grads, f"enc_x_{side}", zx_grads)

        # Ensure every parameter has a gradient entry (zero where unused).
        for name, value in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(value)
        return losses, grads

    def loss_only(
        self,
        ratings_source: np.ndarray,
        ratings_target: np.ndarray,
        content_source: np.ndarray,
        content_target: np.ndarray,
        rng: int | np.random.Generator | None = None,
    ) -> dict[str, float]:
        """All loss terms of Eq. (8) without any backward pass.

        Evaluation used to go through :meth:`loss_and_grads` and throw the
        gradients away — roughly doubling the cost of every monitoring pass.
        This is the forward-only path; it consumes the reparameterization
        noise in exactly the same order, so given the same ``rng`` it
        reproduces :meth:`loss_and_grads`'s loss values bit for bit.
        """
        gen = ensure_rng(rng)
        cfg = self.config
        ratings_source, content_source = self._cast(ratings_source, content_source)
        ratings_target, content_target = self._cast(ratings_target, content_target)
        sides = {
            "s": (ratings_source, content_source),
            "t": (ratings_target, content_target),
        }
        state: dict[str, dict[str, Any]] = {}
        for side, (ratings, content) in sides.items():
            br = self._branches[side]
            mu, log_var_raw, _ = self.encode(side, ratings, content)
            log_var = np.clip(log_var_raw, -8.0, 8.0)
            eps = gen.normal(size=mu.shape).astype(mu.dtype, copy=False)
            z = mu + np.exp(0.5 * log_var) * eps
            zx = br.content_encoder(self._sub(f"enc_x_{side}"), content)
            state[side] = {
                "ratings": ratings, "content": content,
                "mu": mu, "log_var": log_var, "z": z, "zx": zx,
            }

        recon = {
            (dec_side, z_side): self.decode(
                dec_side, state[z_side]["z"], state[dec_side]["content"]
            )
            for dec_side in ("s", "t")
            for z_side in ("s", "t")
        }

        losses: dict[str, float] = {}
        losses["elbo_recon"] = sum(
            binary_cross_entropy(recon[(side, side)], state[side]["ratings"])[0]
            for side in ("s", "t")
        )
        losses["kl"] = sum(
            gaussian_kl_to_code(
                state[side]["mu"], state[side]["log_var"], state[side]["zx"]
            )[0]
            for side in ("s", "t")
        )
        mse_total = 0.0
        for side in ("s", "t"):
            diff = state[side]["z"] - state[side]["zx"]
            mse_total += float((diff * diff).sum() / diff.size)
        losses["mse"] = mse_total
        losses["cross_recon"] = sum(
            binary_cross_entropy(
                recon[(dec_side, z_side)], state[dec_side]["ratings"]
            )[0]
            for dec_side, z_side in (("s", "t"), ("t", "s"))
        )
        if cfg.beta1 > 0:
            losses["mdi"] = info_nce(
                state["s"]["z"], state["t"]["z"], temperature=cfg.infonce_temperature
            )[0]
        else:
            losses["mdi"] = 0.0
        if cfg.beta2 > 0:
            proj = {
                side: self._branches[side].critic(
                    self._sub(f"crit_{side}"), recon[(side, side)]
                )
                for side in ("s", "t")
            }
            losses["me"] = info_nce(
                proj["s"], proj["t"], temperature=cfg.infonce_temperature
            )[0]
        else:
            losses["me"] = 0.0
        losses["total"] = (
            losses["elbo_recon"]
            + losses["kl"]
            + losses["mse"]
            + losses["cross_recon"]
            + cfg.beta1 * losses["mdi"]
            + cfg.beta2 * losses["me"]
        )
        return losses


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
    """``k`` Dual-CVAEs trained as one stacked model (the fused hot path).

    The 2k domain branches (k source + k target) share one architecture and
    differ only in item-axis width, so their parameters are padded to the
    widest axis and stacked along a leading ``[2k, ...]`` axis: slice ``d``
    in ``[0, k)`` is domain ``d``'s *source* branch, slice ``k + d`` its
    *target* branch.  One stacked forward/backward per step then trains
    every branch of every domain at once — encoders in one pass, all four
    decoder reconstructions of every domain in one pass (self and cross
    reconstructions ride a doubled batch axis) — instead of k sequential
    per-domain epoch loops.

    Padding contract: inputs are zero-padded to the common item width and
    losses are masked, so padded parameter regions receive exactly zero
    gradients and never drift from zero; :meth:`write_back` therefore
    recovers each scalar model's parameters by slicing.  Softmax output
    activations normalize over the item axis and would see the padded
    columns, so fusion requires sigmoid outputs (or equal widths).
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
        if ref.out_activation == "softmax" and len(set(widths)) > 1:
            raise ValueError(
                "softmax outputs normalize over the item axis and cannot be "
                "zero-padded; fuse only equal-width domains or use sigmoid"
            )
        self.n_stack = 2 * self.k
        self.branch = build_branch(
            self.n_items_max,
            ref.content_dim,
            ref.latent_dim,
            ref.hidden_dim,
            ref.out_activation,
        )
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
        # ``(2k, S)`` buffer: the stacked optimizer then updates the whole
        # model in a dozen vector ops, and per-domain gradient norms become
        # one contraction over the matching gradient buffer.
        layout = ParamLayout(
            (name, self.params[name].shape[1:]) for name in sorted(self.params)
        )
        self.flat_params = np.empty((self.n_stack, layout.size), dtype=self.dtype)
        for name, view in layout.views(self.flat_params).items():
            view[...] = self.params[name]
            self.params[name] = view
        self.flat_slices: dict[str, tuple[int, int, tuple[int, ...]]] = {
            name: (offset, size, (self.n_stack, *shape))
            for name, offset, size, shape in layout.entries
        }
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
        cols = np.arange(self.n_items_max)
        self.out_mask = (
            cols[None, :] < self.widths[:, None]
        ).astype(self.dtype)[:, None, :]  # (2k, 1, n_items_max)
        self._widths_f = self.widths.astype(self.dtype)

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
        """Per-domain losses of Eq. (8) and stacked gradients for one step.

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

        Returns ``(losses, grads)`` where every loss term is a ``(k,)``
        array of per-domain values summed over the domain's two branches,
        matching the scalar :meth:`DualCVAE.loss_and_grads` terms.
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

        # ---- forward: encoders, reparameterization, content encoders ----
        enc_in = np.concatenate([ratings, content], axis=2)
        enc_out, enc_cache = self._forward("enc", self.branch.encoder, enc_in)
        mu, log_var_raw = enc_out[..., :latent], enc_out[..., latent:]
        log_var = np.clip(log_var_raw, -8.0, 8.0)
        clip_mask = np.abs(log_var_raw) < 8.0
        sigma = np.exp(0.5 * log_var)
        z = mu + sigma * eps
        zx, zx_cache = self._forward("enc_x", self.branch.content_encoder, content)

        # ---- decoders: self and cross reconstruction in one pass --------
        # Each branch decodes its own latent code (rows [:batch]) and its
        # partner branch's (rows [batch:]); both compare against the
        # branch's own ratings, exactly the four paths of the scalar model.
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
        # same per-slice normalization, so one clipped-log pass covers the
        # four reconstruction losses of the scalar model.
        target = np.concatenate([ratings, ratings], axis=1)
        pred = np.clip(dec_out, _BCE_EPS, 1.0 - _BCE_EPS)
        per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
        d_bce = (pred - target) / (pred * (1.0 - pred))
        if row_mask is not None:
            elem_mask = self.out_mask * row_mask[:, :, None]
            mask2 = np.concatenate([elem_mask, elem_mask], axis=1)
        else:
            mask2 = self.out_mask  # broadcasts over the doubled batch
        per_elem = per_elem * mask2
        d_bce = d_bce * mask2
        d_bce = d_bce / elem_counts[:, None, None]
        losses_self = (
            per_elem[:, :batch].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        losses_cross = (
            per_elem[:, batch:].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        d_self, d_cross = d_bce[:, :batch], d_bce[:, batch:]
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
        d_z = 2.0 * diff / mse_counts[:, None, None]
        d_zx = d_zx + (-2.0 * diff / mse_counts[:, None, None])

        mask_k = None if row_mask is None else row_mask[:k]

        # ---- MDI and ME InfoNCE terms (Eqs. 6-7) ------------------------
        # Latent codes and critic projections share the latent width, so
        # both contrastive terms ride one stacked call when both are on.
        grads: Grads = {}
        d_proj = None
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
            d_z = d_z + cfg.beta1 * np.concatenate([d_a[:k], d_b[:k]], axis=0)
            d_proj = cfg.beta2 * np.concatenate([d_a[k:], d_b[k:]], axis=0)
        elif cfg.beta1 > 0:
            mdi, d_zs, d_zt = info_nce_stacked(
                z[:k], z[k:], row_mask=mask_k, temperature=cfg.infonce_temperature
            )
            d_z = d_z + cfg.beta1 * np.concatenate([d_zs, d_zt], axis=0)
            me = np.zeros(k, dtype=self.dtype)
        elif cfg.beta2 > 0:
            mdi = np.zeros(k, dtype=self.dtype)
            me, d_ps, d_pt = info_nce_stacked(
                proj[:k], proj[k:], row_mask=mask_k,
                temperature=cfg.infonce_temperature,
            )
            d_proj = cfg.beta2 * np.concatenate([d_ps, d_pt], axis=0)
        else:
            mdi = np.zeros(k, dtype=self.dtype)
            me = np.zeros(k, dtype=self.dtype)
        if cfg.beta2 > 0:
            d_out_crit = self._backward(
                "crit", self.branch.critic, crit_cache, d_proj, grads
            )
            d_self = d_self + d_out_crit

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

        # ---- backward: decoders -> latent codes -------------------------
        d_out = np.concatenate([d_self, d_cross], axis=1)
        d_dec_in = self._backward("dec", self.branch.decoder, dec_cache, d_out, grads)
        d_z = d_z + d_dec_in[:, :batch, :latent] + self._swap(
            d_dec_in[:, batch:, :latent]
        )

        # ---- backward: reparameterization -> encoders -------------------
        d_mu = d_mu + d_z
        d_log_var = (d_log_var + d_z * 0.5 * sigma * eps) * clip_mask
        d_enc_out = np.concatenate([d_mu, d_log_var], axis=2)
        self._backward("enc", self.branch.encoder, enc_cache, d_enc_out, grads)
        self._backward("enc_x", self.branch.content_encoder, zx_cache, d_zx, grads)

        for name, value in self.params.items():
            if name not in grads:
                grads[name] = np.zeros_like(value)
        return losses, grads

    def loss_only(
        self,
        ratings: np.ndarray,
        content: np.ndarray,
        eps: np.ndarray,
        row_mask: np.ndarray | None = None,
        row_counts: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """Per-domain loss terms without any backward pass (evaluation)."""
        cfg = self.config
        k, latent = self.k, self.latent_dim
        batch = ratings.shape[1]
        if row_counts is None:
            row_counts = np.full(self.n_stack, batch, dtype=np.int64)
        counts_f = np.asarray(row_counts).astype(self.dtype)
        elem_counts = np.maximum(counts_f * self._widths_f, 1.0)

        enc_in = np.concatenate([ratings, content], axis=2)
        enc_out, _ = self._forward("enc", self.branch.encoder, enc_in)
        mu, log_var_raw = enc_out[..., :latent], enc_out[..., latent:]
        log_var = np.clip(log_var_raw, -8.0, 8.0)
        z = mu + np.exp(0.5 * log_var) * eps
        zx, _ = self._forward("enc_x", self.branch.content_encoder, content)

        dec_in = np.concatenate(
            [
                np.concatenate([z, content], axis=2),
                np.concatenate([self._swap(z), content], axis=2),
            ],
            axis=1,
        )
        dec_out, _ = self._forward("dec", self.branch.decoder, dec_in)
        dec_out = dec_out * self.out_mask
        out_self = dec_out[:, :batch]

        target = np.concatenate([ratings, ratings], axis=1)
        pred = np.clip(dec_out, _BCE_EPS, 1.0 - _BCE_EPS)
        per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
        if row_mask is not None:
            elem_mask = self.out_mask * row_mask[:, :, None]
            per_elem = per_elem * np.concatenate([elem_mask, elem_mask], axis=1)
        else:
            per_elem = per_elem * self.out_mask
        losses_self = (
            per_elem[:, :batch].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        losses_cross = (
            per_elem[:, batch:].reshape(self.n_stack, -1).sum(axis=1) / elem_counts
        )
        kl_d, _, _, _ = gaussian_kl_to_code_stacked(
            mu, log_var, zx, row_mask=row_mask, counts=counts_f
        )
        diff = z - zx
        if row_mask is not None:
            diff = diff * row_mask[:, :, None]
        mse_counts = np.maximum(counts_f * np.asarray(latent, dtype=self.dtype), 1.0)
        mse_d = (diff * diff).reshape(self.n_stack, -1).sum(axis=1) / mse_counts

        mask_k = None if row_mask is None else row_mask[:k]
        if cfg.beta2 > 0:
            proj, _ = self._forward("crit", self.branch.critic, out_self)
        if cfg.beta1 > 0 and cfg.beta2 > 0:
            both, _, _ = info_nce_stacked(
                np.concatenate([z[:k], proj[:k]], axis=0),
                np.concatenate([z[k:], proj[k:]], axis=0),
                row_mask=None if mask_k is None else np.tile(mask_k, (2, 1)),
                temperature=cfg.infonce_temperature,
            )
            mdi, me = both[:k], both[k:]
        else:
            if cfg.beta1 > 0:
                mdi, _, _ = info_nce_stacked(
                    z[:k], z[k:], row_mask=mask_k,
                    temperature=cfg.infonce_temperature,
                )
            else:
                mdi = np.zeros(k, dtype=self.dtype)
            if cfg.beta2 > 0:
                me, _, _ = info_nce_stacked(
                    proj[:k], proj[k:], row_mask=mask_k,
                    temperature=cfg.infonce_temperature,
                )
            else:
                me = np.zeros(k, dtype=self.dtype)

        fold = lambda arr: arr[:k] + arr[k:]  # noqa: E731
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
        return losses

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
