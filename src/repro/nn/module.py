"""Module base class and composition helpers.

A :class:`Module` is a stateless computation description.  Parameters are
plain dictionaries mapping parameter names to numpy arrays; this keeps
fast-weight updates (MAML), optimizer state, and (de)serialization trivial.

Contract
--------
``init_params(rng)``
    returns a fresh ``dict[str, np.ndarray]``.
``forward(params, x, *, rng=None, train=False)``
    returns ``(y, cache)``; ``cache`` is opaque and consumed by ``backward``.
``backward(params, cache, dy)``
    returns ``(dx, grads)`` where ``grads`` has exactly the keys of
    ``params``.

Stacked parameters
------------------
Every op additionally accepts *stacked* parameters carrying an optional
leading task axis ``[T, ...]`` (built with :mod:`repro.nn.stacking` helpers)
against inputs with a matching leading ``T`` axis, computing ``T``
independent versions of the layer in one numpy pass.  Stacked and unstacked
entries may be mixed in one dict — unstacked weights broadcast across tasks.
Gradient shapes follow the *inputs*: when the input is task-batched,
``backward`` returns per-task gradients ``[T, ...]`` for every parameter
(even shared unstacked ones); reduce with
:func:`repro.nn.optim.mean_task_grads` before stepping unstacked weights.
One deliberate exception: a *shared* (unstacked) ``Embedding`` table with
task-batched indices scatter-adds the gradient over every leading axis —
a per-task copy of a whole lookup table would be prohibitively large —
so its summed gradient must not go through ``mean_task_grads``; stack the
table per task if per-task gradients are required.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

Params = dict[str, np.ndarray]
Grads = dict[str, np.ndarray]


class Module:
    """Base class for all stateless layers and networks."""

    #: True for layers whose ``backward`` accepts ``need_input_grad=False``
    #: and can skip the input-gradient computation when it is discarded.
    skip_input_grad = False

    def init_params(self, rng: np.random.Generator) -> Params:
        raise NotImplementedError

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        raise NotImplementedError

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        raise NotImplementedError

    def __call__(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> np.ndarray:
        """Convenience inference-only forward that drops the cache."""
        y, _ = self.forward(params, x, rng=rng, train=train)
        return y


class Sequential(Module):
    """Chain of modules applied in order.

    Parameter keys of child ``i`` are prefixed with ``"{i}."`` so that the
    flattened dictionary stays collision-free, e.g. ``"0.W"``, ``"2.b"``.
    """

    def __init__(self, layers: Sequence[Module]):
        self.layers = list(layers)

    def init_params(self, rng: np.random.Generator) -> Params:
        params: Params = {}
        for i, layer in enumerate(self.layers):
            for name, value in layer.init_params(rng).items():
                params[f"{i}.{name}"] = value
        return params

    def split(self, params: Params) -> list[Params]:
        """Per-layer parameter dicts (``"0.W"`` → ``[{"W": ...}, ...]``).

        Callers that run many passes over one parameter set split it once
        and call :meth:`forward_layers` / :meth:`backward_layers`.
        """
        return [
            {
                name[len(prefix):]: value
                for name, value in params.items()
                if name.startswith(prefix)
            }
            for prefix in (f"{i}." for i in range(len(self.layers)))
        ]

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        return self.forward_layers(self.split(params), x, rng=rng, train=train)

    def forward_layers(
        self,
        layer_params: Sequence[Params],
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        """:meth:`forward` over already split per-layer parameter dicts."""
        caches = []
        out = x
        for layer, params in zip(self.layers, layer_params):
            out, cache = layer.forward(params, out, rng=rng, train=train)
            caches.append(cache)
        return out, caches

    def backward(
        self,
        params: Params,
        cache: Any,
        dy: np.ndarray,
        *,
        need_input_grad: bool = True,
    ) -> tuple[np.ndarray | None, Grads]:
        """Backward through the chain.

        ``need_input_grad=False`` tells the *first* layer its input
        gradient is discarded (layers advertising ``skip_input_grad`` then
        skip that GEMM entirely — e.g. an embedding branch over raw
        content, whose ``dx`` no caller consumes).
        """
        grad_out, layer_grads = self.backward_layers(
            self.split(params), cache, dy, need_input_grad=need_input_grad
        )
        return grad_out, self.named_grads(layer_grads)

    def backward_layers(
        self,
        layer_params: Sequence[Params],
        cache: Any,
        dy: np.ndarray,
        *,
        need_input_grad: bool = True,
        out: Sequence[Grads] | None = None,
    ) -> tuple[np.ndarray | None, list[Grads]]:
        """:meth:`backward` over split parameters; returns per-layer grads.

        With ``out`` (one dict of destination arrays per layer), layers
        that take an ``out`` argument write their gradients into it instead
        of allocating — a flat gradient buffer's views, for instance.
        """
        layer_grads: list[Grads] = [{} for _ in self.layers]
        grad_out = dy
        for i in reversed(range(len(self.layers))):
            layer = self.layers[i]
            kwargs = {}
            if i == 0 and not need_input_grad and layer.skip_input_grad:
                kwargs["need_input_grad"] = False
            if out is not None and out[i]:
                kwargs["out"] = out[i]
            grad_out, layer_grads[i] = layer.backward(
                layer_params[i], cache[i], grad_out, **kwargs
            )
        return grad_out, layer_grads

    @staticmethod
    def named_grads(
        layer_grads: Sequence[Grads], prefix: str = "", into: Grads | None = None
    ) -> Grads:
        """Per-layer gradients under their ``"{prefix}{i}.{name}"`` names.

        Last layer first — the order a backward pass produces them, which a
        global-norm clip summing over the dict depends on.
        """
        grads: Grads = {} if into is None else into
        for i in reversed(range(len(layer_grads))):
            for name, value in layer_grads[i].items():
                grads[f"{prefix}{i}.{name}"] = value
        return grads


def mlp(
    layer_sizes: Sequence[int],
    activation: str = "relu",
    out_activation: str | None = None,
    dropout: float = 0.0,
) -> Sequential:
    """Build a standard multi-layer perceptron.

    Parameters
    ----------
    layer_sizes:
        ``[in, hidden..., out]`` — at least two entries.
    activation:
        hidden activation, one of ``"relu"``, ``"tanh"``, ``"sigmoid"``.
    out_activation:
        optional activation after the last linear layer (``"sigmoid"``,
        ``"softmax"``, ``"tanh"``, ``"relu"`` or ``None`` for linear output).
    dropout:
        dropout probability applied after each hidden activation.
    """
    from repro.nn.layers import Dropout, Linear, Relu, Sigmoid, Softmax, Tanh

    if len(layer_sizes) < 2:
        raise ValueError("mlp needs at least an input and an output size")
    act_map = {"relu": Relu, "tanh": Tanh, "sigmoid": Sigmoid, "softmax": Softmax}
    if activation not in act_map:
        raise ValueError(f"unknown activation {activation!r}")
    if out_activation is not None and out_activation not in act_map:
        raise ValueError(f"unknown out_activation {out_activation!r}")

    layers: list[Module] = []
    n_linear = len(layer_sizes) - 1
    for i in range(n_linear):
        layers.append(Linear(layer_sizes[i], layer_sizes[i + 1]))
        is_last = i == n_linear - 1
        if not is_last:
            layers.append(act_map[activation]())
            if dropout > 0:
                layers.append(Dropout(dropout))
        elif out_activation is not None:
            layers.append(act_map[out_activation]())
    return Sequential(layers)
