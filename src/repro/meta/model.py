"""The preference prediction model of Eq. (11).

``f(θ_e, θ_l, c_u, c_i)``: two fully-connected embedding layers map the user
content vector ``c_u`` and the item content vector ``c_i`` into dense
embeddings ``x_u`` and ``x_i``; their concatenation feeds a multi-layer
neural network whose sigmoid head predicts the interaction probability.

The model is purely functional — every method takes the parameters as a
mapping — so MAML fast weights, fine-tuning and evaluation all reuse the
same forward code.  The parameters follow one layout,
:attr:`PreferenceModel.layout`: a static ``(name, offset, shape)`` table
(:class:`~repro.nn.stacking.ParamLayout`) holding ``user_embed.*``,
``item_embed.*`` and then the decision (``mlp.*``) layers as one contiguous
tail.  A plain dict works everywhere; a
:class:`~repro.nn.stacking.FlatParams` over that layout (MAML's
meta-parameters, its fast weights and every cached per-user state) keeps
each layer's views built once, so repeated passes over one parameter set
never re-split a dict by name, and a backward pass can write its gradients
straight into a flat gradient buffer.

It follows the stacked-parameter contract of :mod:`repro.nn`: parameters may
carry a leading task axis ``[T, ...]`` (possibly only for a subset of keys —
MeLU keeps embeddings global) against inputs of shape ``(T, batch, C)``, in
which case predictions are ``(T, batch)``, losses are per-task vectors and
gradients keep the task axis.  This is what lets MAML adapt a whole
meta-batch of tasks in one numpy pass.

The content inputs additionally support the *broadcast-user* form of the
packed corpus data path (:mod:`repro.meta.corpus`): user content of shape
``(T, 1, C)`` against item content ``(T, batch, C)``.  Each task's single
user row is embedded once and its embedding broadcast across the item rows
— the per-row copies of the dense layout (``np.repeat`` over the support
set) never exist, and the user-embedding GEMM shrinks by the batch width.
The backward pass sums the broadcast gradient over the item axis, which is
exactly the dense computation reassociated (identical to float rounding).

Scoring a candidate pool has its own inference pass,
:meth:`PreferenceModel.score_pool`: no caches and no backward, one user row
against the pool walked in blocks of :data:`SCORE_BLOCK` rows, each block's
layers written into scratch reused across blocks, and a pool of several
blocks split across lanes on the cores BLAS leaves idle.  Its scores are
bitwise those of :meth:`PreferenceModel.forward` on the whole pool; its
docstring gives the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.nn.layers import Linear, Tanh, sigmoid
from repro.nn.losses import binary_cross_entropy
from repro.nn.module import Grads, Module, Params, Sequential, mlp
from repro.nn.stacking import ParamLayout
from repro.utils.blas import run_lanes
from repro.utils.rng import ensure_rng

#: Tower indices into :attr:`PreferenceModel._keys`.
_USER, _ITEM, _MLP = 0, 1, 2

#: Candidate rows per block of :meth:`PreferenceModel.score_pool`; a multiple
#: of 4, which the exactness of its last layer needs.  Two lanes score a
#: 16k-candidate pool within noise of 2048-row blocks, on half the scratch.
SCORE_BLOCK = 1024


@dataclass(frozen=True)
class PreferenceModelConfig:
    """Sizes of the preference network.

    ``dtype`` is the parameter (and intended activation) dtype.  The meta
    stack runs float32 end to end — preference probabilities live in [0, 1]
    and the narrower dtype halves every GEMM's bandwidth; pass
    ``dtype=np.float64`` for gradient checking against numerical
    differentiation.
    """

    content_dim: int
    embed_dim: int = 32
    hidden_dims: tuple[int, ...] = (64, 32)
    dtype: np.dtype | type = np.float32

    def __post_init__(self) -> None:
        if self.content_dim <= 0 or self.embed_dim <= 0:
            raise ValueError("dimensions must be positive")
        if any(h <= 0 for h in self.hidden_dims):
            raise ValueError("hidden dims must be positive")


def _layer_shapes(layer: Module) -> dict[str, tuple[int, ...]]:
    """Parameter shapes of one layer of the preference network."""
    if isinstance(layer, Linear):
        shapes = {"W": (layer.in_features, layer.out_features)}
        if layer.use_bias:
            shapes["b"] = (layer.out_features,)
        return shapes
    return {}


def _joint(xu: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, bool]:
    """``[x_u; x_i]`` rows, and whether a single user row was broadcast.

    A per-task single user embedding ``(..., 1, E)`` against several item
    rows is broadcast across them as it is written into the joint array.
    """
    broadcast = (
        xu.ndim == xi.ndim
        and xu.ndim >= 2
        and xu.shape[-2] == 1
        and xi.shape[-2] != 1
    )
    e = xu.shape[-1]
    joint = np.empty(
        xi.shape[:-1] + (e + xi.shape[-1],), dtype=np.result_type(xu, xi)
    )
    joint[..., :e] = xu
    joint[..., e:] = xi
    return joint, broadcast


class PreferenceModel:
    """Content-based preference predictor with explicit gradients.

    Parameter names are prefixed ``user_embed.``, ``item_embed.`` and
    ``mlp.``; :meth:`decision_params` exposes the MeLU-style split between
    embedding parameters (kept global) and decision parameters (locally
    adapted), which callers may use for partial inner-loop updates.
    :attr:`layout` packs them in that order, so the decision parameters
    are one contiguous tail of a flat buffer.
    """

    def __init__(self, config: PreferenceModelConfig):
        self.config = config
        self.user_embed = Sequential([Linear(config.content_dim, config.embed_dim), Tanh()])
        self.item_embed = Sequential([Linear(config.content_dim, config.embed_dim), Tanh()])
        self.mlp = mlp(
            [2 * config.embed_dim, *config.hidden_dims, 1],
            activation="relu",
            out_activation="sigmoid",
        )
        self._towers = (
            ("user_embed", self.user_embed),
            ("item_embed", self.item_embed),
            ("mlp", self.mlp),
        )
        #: per tower, per layer: the layer's parameter names mapped to the
        #: model's (``{"W": "mlp.0.W", "b": "mlp.0.b"}``, ``{}`` for an
        #: activation).
        self._keys = tuple(
            tuple(
                {name: f"{prefix}.{i}.{name}" for name in _layer_shapes(layer)}
                for i, layer in enumerate(module.layers)
            )
            for prefix, module in self._towers
        )
        self.layout = ParamLayout(
            (f"{prefix}.{i}.{name}", shape)
            for prefix, module in self._towers
            for i, layer in enumerate(module.layers)
            for name, shape in _layer_shapes(layer).items()
        )

    # ------------------------------------------------------------------
    def init_params(self, rng: int | np.random.Generator | None = None) -> Params:
        gen = ensure_rng(rng)
        dtype = np.dtype(self.config.dtype)
        params: Params = {}
        for prefix, module in self._towers:
            for name, value in module.init_params(gen).items():
                params[f"{prefix}.{name}"] = value.astype(dtype)
        return params

    def decision_params(self, params: Params) -> list[str]:
        """Names of the decision-layer (MLP) parameters."""
        return [name for name in params if name.startswith("mlp.")]

    def _layers(self, params: Params, tower: int) -> list[Params]:
        """One tower's per-layer parameter dicts, each a view of ``params``.

        Built once per :class:`~repro.nn.stacking.FlatParams` (kept in its
        ``layer_cache``); a plain dict is bound by direct key lookups.
        """
        cache = getattr(params, "layer_cache", None)
        if cache is None:
            return self._bind(params, tower)
        layers = cache.get(tower)
        if layers is None:
            layers = cache[tower] = self._bind(params, tower)
        return layers

    def _bind(self, params: Params, tower: int) -> list[Params]:
        return [
            {name: params[full] for name, full in keys.items()}
            for keys in self._keys[tower]
        ]

    def _run(self, tower: int, params: Params, x: np.ndarray) -> tuple[np.ndarray, Any]:
        """One tower's forward pass."""
        return self._towers[tower][1].forward_layers(self._layers(params, tower), x)

    def _grads(
        self,
        tower: int,
        params: Params,
        cache: Any,
        dy: np.ndarray,
        out: Grads | None,
        need_input_grad: bool = True,
    ) -> tuple[np.ndarray | None, list[Grads]]:
        """One tower's backward pass, writing into ``out``'s views if given."""
        return self._towers[tower][1].backward_layers(
            self._layers(params, tower),
            cache,
            dy,
            need_input_grad=need_input_grad,
            out=None if out is None else self._layers(out, tower),
        )

    # ------------------------------------------------------------------
    def forward(
        self, params: Params, user_content: np.ndarray, item_content: np.ndarray
    ) -> tuple[np.ndarray, Any]:
        """Predict interaction probabilities for aligned (user, item) rows.

        Inputs of shape ``(batch, content_dim)`` give ``preds`` of shape
        ``(batch,)``; task-batched inputs ``(T, batch, content_dim)`` give
        ``(T, batch)`` — one independent model per task when the parameters
        are stacked, broadcasting for the parameters that are not.  User
        content ``(T, 1, C)`` against item content ``(T, batch, C)`` embeds
        each task's user once and broadcasts the embedding across the item
        rows (the packed-corpus form).
        """
        xu, cache_u = self._run(_USER, params, user_content)
        xi, cache_i = self._run(_ITEM, params, item_content)
        joint, user_broadcast = _joint(xu, xi)
        out, cache_m = self._run(_MLP, params, joint)
        return out[..., 0], (cache_u, cache_i, cache_m, user_broadcast)

    def backward(
        self,
        params: Params,
        cache: Any,
        d_preds: np.ndarray,
        out: Grads | None = None,
    ) -> Grads:
        """Gradients of a scalar loss given ``d loss / d preds``.

        With task-batched inputs the returned gradients carry the leading
        task axis (per-task gradients) for every parameter.  ``out`` (a
        :class:`~repro.nn.stacking.FlatParams` gradient buffer over this
        model's layout) receives the gradients in place and is returned.
        """
        cache_u, cache_i, cache_m, user_broadcast = cache
        d_joint, grads_m = self._grads(_MLP, params, cache_m, d_preds[..., None], out)
        e = self.config.embed_dim
        d_xu = d_joint[..., :e]
        if user_broadcast:
            d_xu = d_xu.sum(axis=-2, keepdims=True)
        # Content is not a parameter: neither embedding branch needs its
        # input gradient, which skips the content-wide dx GEMMs entirely.
        _, grads_u = self._grads(_USER, params, cache_u, d_xu, out, False)
        _, grads_i = self._grads(_ITEM, params, cache_i, d_joint[..., e:], out, False)
        if out is not None:
            return out
        grads: Grads = {}
        for (prefix, module), layer_grads in zip(
            self._towers, (grads_u, grads_i, grads_m)
        ):
            module.named_grads(layer_grads, f"{prefix}.", grads)
        return grads

    # -- inference over a candidate pool --------------------------------
    def _score_weights(self, params: Params) -> tuple:
        """``(user, item, head)``: each tower's ``(W, b)`` pairs in order.

        Bound once per :class:`~repro.nn.stacking.FlatParams` (kept in its
        ``layer_cache`` beside the per-layer views), per call for a dict.
        """
        cache = getattr(params, "layer_cache", None)
        weights = None if cache is None else cache.get("score")
        if weights is None:
            weights = tuple(
                tuple((layer["W"], layer["b"]) for layer in self._layers(params, t) if layer)
                for t in (_USER, _ITEM, _MLP)
            )
            if cache is not None:
                cache["score"] = weights
        return weights

    def score_pool(
        self,
        params: Params,
        user_content: np.ndarray,
        candidates: np.ndarray,
        item_content: np.ndarray,
        item_table: np.ndarray | None = None,
    ) -> np.ndarray:
        """Interaction probabilities of one user for a pool of candidate items.

        The inference pass of serving and evaluation: ``(n,)`` scores for
        the ``candidates`` rows, bit for bit what :meth:`forward` returns on
        the ``(1, C)`` user row against the gathered candidate content.
        ``item_table`` holds precomputed item-tower outputs
        (:meth:`precompute_item_embeddings`) to gather instead of running
        the item tower over ``item_content``.

        The user row is embedded once.  The pool is then walked in blocks of
        :data:`SCORE_BLOCK` rows (a one-row tail joins the block before it).
        A pool of two or more blocks is split across lanes
        (:func:`repro.utils.blas.run_lanes`: the calling thread plus helper
        threads on the cores BLAS leaves idle), each taking whole blocks
        from a shared counter.  Every lane allocates its scratch once: each
        block's GEMMs write into it, and biases and activations apply in
        place, so only the output vector grows with the pool, and each lane
        writes only its own blocks' rows of it.  The output bias and the
        sigmoid run once, after every lane has stopped.

        Blocking is exact, on any lane.  A row of an ``(m, K) @ (K, N)``
        GEMM is the same for every ``m >= 2``, and the other ops are
        elementwise.  The head's one-column last layer runs as a GEMV
        instead, whose rows this BLAS computes four at a time and the
        leftover rows another way; its rows match the whole pool's when
        every block starts at a multiple of 4, as blocks of ``SCORE_BLOCK``
        rows do.  ReLU runs as ``max(x, 0)``: on finite values it differs
        from the training forward's ``x * (x > 0)`` only in the sign of
        zeros, which neither a later sum nor the sigmoid can see.
        """
        user, item, head = self._score_weights(params)
        (wu, bu), = user
        xu = np.tanh(user_content @ wu + bu)
        e = xu.shape[-1]
        (wi, bi), = item
        live = item_table is None
        n = candidates.shape[0]
        rows = min(n, SCORE_BLOCK + 1)
        # One lane's scratch: a block of item rows (live tower only), and a
        # block of every head layer's input.  Dtypes chain as the forward's
        # do; ``np.promote_types`` costs a fraction of ``np.result_type``
        # on dtypes, which a one-block request would notice.
        xi_dtype = np.result_type(item_content, wi, bi) if live else item_table.dtype
        xi_width = wi.shape[1] if live else item_table.shape[1]
        layers = [(e + xi_width, np.promote_types(xu.dtype, xi_dtype))]
        for w, b in head:
            dtype = np.promote_types(np.promote_types(layers[-1][1], w.dtype), b.dtype)
            layers.append((w.shape[1], dtype))
        w_out, b_out = head[-1]
        out = np.empty((n, w_out.shape[1]), layers.pop()[1])
        bounds = [*range(0, max(n - 1, 1), SCORE_BLOCK), n]

        def lane(blocks: Iterable[int]) -> None:
            xi = np.empty((rows, xi_width), xi_dtype) if live else None
            joint, *hidden = [np.empty((rows, width), dtype) for width, dtype in layers]
            joint[:, :e] = xu
            # Rows are gathered by fancy indexing, not ``np.take(..., out=)``:
            # take buffers its output, and on an unaligned memory-mapped
            # table it first copies the whole table.
            for i in blocks:
                start, stop = bounds[i], bounds[i + 1]
                m = stop - start
                block = candidates[start:stop]
                x = joint[:m]
                if live:
                    y = xi[:m]
                    np.matmul(item_content[block], wi, out=y)
                    y += bi
                    np.tanh(y, out=y)
                    x[:, e:] = y
                else:
                    x[:, e:] = item_table[block]
                for (w, b), h in zip(head[:-1], hidden):
                    y = h[:m]
                    np.matmul(x, w, out=y)
                    y += b
                    np.maximum(y, 0, out=y)
                    x = y
                np.matmul(x, w_out, out=out[start:stop])

        run_lanes(lane, len(bounds) - 1)
        out += b_out
        return sigmoid(out[:, 0])

    # -- frozen-tower precompute ----------------------------------------
    def precompute_item_embeddings(
        self, params: Params, item_content: np.ndarray
    ) -> np.ndarray:
        """Item-tower outputs for every item row: ``(n_items, embed_dim)``.

        The item tower is user-invariant, so its output over the whole
        catalogue can be baked once (at save/refresh time) and served as a
        gather — see :mod:`repro.meta.serving`.  Returned float32
        C-contiguous, the layout the mmap artifact writer wants.
        """
        xi, _ = self._run(_ITEM, params, item_content)
        return np.ascontiguousarray(xi, dtype=np.float32)

    # -- frozen-embedding decision path ---------------------------------
    def embed_joint(
        self, params: Params, user_content: np.ndarray, item_content: np.ndarray
    ) -> np.ndarray:
        """The concatenated embedding ``[x_u; x_i]`` feeding the MLP head.

        With MeLU's decision-only inner loop the embedding layers are
        frozen, so this can be computed once per adaptation and reused for
        every inner step (see :meth:`decision_loss_and_grads`).  Accepts
        the broadcast-user form (``(T, 1, C)`` user content) like
        :meth:`forward`.
        """
        xu, _ = self._run(_USER, params, user_content)
        xi, _ = self._run(_ITEM, params, item_content)
        joint, _ = _joint(xu, xi)
        return joint

    def decision_loss_and_grads(
        self,
        params: Params,
        joint: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray | None = None,
        out: Grads | None = None,
    ) -> tuple[np.floating | np.ndarray, Grads]:
        """Loss and *decision-layer* gradients from a precomputed embedding.

        The counterpart of :meth:`loss_and_grads` for the restricted inner
        loop: only the MLP head runs forward/backward (the returned grads
        hold exactly the ``mlp.``-prefixed keys), skipping the frozen
        embedding layers entirely.  Numerically identical to the full pass
        restricted to those parameters.  ``out`` is a gradient buffer over
        the decision layers, as in :meth:`backward`.
        """
        pred_out, cache_m = self._run(_MLP, params, joint)
        preds = pred_out[..., 0]
        loss, d_preds = binary_cross_entropy(preds, labels, mask=mask)
        _, grads_m = self._grads(_MLP, params, cache_m, d_preds[..., None], out, False)
        if out is not None:
            return loss, out
        return loss, self.mlp.named_grads(grads_m, "mlp.")

    def loss_and_grads(
        self,
        params: Params,
        user_content: np.ndarray,
        item_content: np.ndarray,
        labels: np.ndarray,
        mask: np.ndarray | None = None,
        out: Grads | None = None,
    ) -> tuple[np.floating | np.ndarray, Grads]:
        """Mean BCE over the batch and gradients for every parameter.

        Labels may be soft (augmented ratings in [0, 1]).  An unbatched
        call returns the loss as a numpy scalar of the model's dtype.

        Task-batched inputs ``(T, batch, C)`` return per-task losses ``(T,)``
        and per-task gradients; each task's loss and gradient are normalized
        by that task's own element count.  ``mask`` (shape ``(T, batch)``,
        1 for real rows, 0 for padding) excludes padded rows from both.
        ``out`` is a gradient buffer, as in :meth:`backward`.
        """
        preds, cache = self.forward(params, user_content, item_content)
        loss, d_preds = binary_cross_entropy(preds, labels, mask=mask)
        return loss, self.backward(params, cache, d_preds, out=out)
