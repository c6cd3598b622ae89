"""Core layers: Linear, Embedding, Dropout and activations.

Every layer follows the :class:`repro.nn.module.Module` contract; caches hold
exactly what the backward pass needs, nothing more.

All layers additionally honor the *stacked* contract: parameters may carry a
leading task axis ``[T, ...]`` (see :mod:`repro.nn.stacking`) and inputs a
matching leading ``T`` axis.  Stacked and unstacked weights broadcast against
each other, and whenever the *input* is task-batched the returned gradients
keep the task axis (per-task gradients), even for shared unstacked weights —
callers reduce over tasks themselves (e.g. a MAML outer step averages them).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.nn.init import kaiming_uniform, normal_init, zeros_init
from repro.nn.module import Grads, Module, Params


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with ``W: (in, out)``.

    Stacked form: ``W: (T, in, out)`` / ``b: (T, out)`` with inputs
    ``(T, batch, in)``; matmul broadcasting makes both the unstacked and the
    mixed (stacked input, shared weight) cases a single batched GEMM.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear sizes must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = bias

    def init_params(self, rng: np.random.Generator) -> Params:
        params = {"W": kaiming_uniform(rng, self.in_features, self.out_features)}
        if self.use_bias:
            params["b"] = zeros_init((self.out_features,))
        return params

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        y = x @ params["W"]
        if self.use_bias:
            b = params["b"]
            # A stacked bias (T, out) aligns with y (T, batch, out) via an
            # explicit batch axis; an unstacked bias broadcasts as-is.
            y = y + (b[..., None, :] if b.ndim > 1 else b)
        return y, x

    #: Sequential may skip this layer's input gradient when it is discarded.
    skip_input_grad = True

    def backward(
        self,
        params: Params,
        cache: Any,
        dy: np.ndarray,
        *,
        need_input_grad: bool = True,
        out: Grads | None = None,
    ) -> tuple[np.ndarray | None, Grads]:
        """``out`` (optional) holds the arrays to write the gradients into.

        A one-row input (the packed form's broadcast user row, ``(T, 1,
        C)``) makes ``grad W`` an outer product, run as a broadcast multiply
        (numpy's K=1 matmul is ~2.5x slower).  The values are equal; where
        zero content meets a negative upstream gradient the product is -0.0
        and the matmul +0.0, a sign no later op can see: the gradient
        reaches the parameters only through sums and squares.
        """
        x = cache
        grads: Grads = {} if out is None else out
        product = np.multiply if x.shape[-2] == 1 else np.matmul
        grads["W"] = product(x.swapaxes(-1, -2), dy, out=grads.get("W"))
        if self.use_bias:
            grads["b"] = np.add.reduce(dy, axis=-2, out=grads.get("b"))
        if not need_input_grad:
            # The input-gradient GEMM matches the weight-gradient GEMM in
            # cost; callers that discard dx (a network's first layer over
            # raw content) skip half the layer's backward work.
            return None, grads
        dx = dy @ np.swapaxes(params["W"], -1, -2)
        return dx, grads


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors.

    Forward takes an integer array of shape ``(batch,)`` or ``(batch, k)``
    and returns vectors of shape ``(batch, dim)`` or ``(batch, k, dim)``.

    Stacked form: ``E: (T, num_embeddings, dim)`` with indices ``(T, batch)``
    looks up each task in its own table and scatters gradients per task.  A
    shared (unstacked) table with task-batched indices keeps the historical
    behaviour of summing the gradient over every leading axis.
    """

    def __init__(self, num_embeddings: int, dim: int, std: float = 0.01):
        if num_embeddings <= 0 or dim <= 0:
            raise ValueError("Embedding sizes must be positive")
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.std = std

    def init_params(self, rng: np.random.Generator) -> Params:
        return {"E": normal_init(rng, (self.num_embeddings, self.dim), std=self.std)}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        idx = np.asarray(x, dtype=np.int64)
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        table = params["E"]
        if table.ndim == 3:
            if idx.ndim != 2 or idx.shape[0] != table.shape[0]:
                raise ValueError(
                    "stacked embedding expects indices of shape (T, batch) "
                    f"matching E's task axis, got {idx.shape} vs {table.shape}"
                )
            n_tasks = table.shape[0]
            return table[np.arange(n_tasks)[:, None], idx], idx
        return table[idx], idx

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        idx = cache
        grad_e = np.zeros_like(params["E"])
        if grad_e.ndim == 3:
            task_idx = np.broadcast_to(np.arange(grad_e.shape[0])[:, None], idx.shape)
            np.add.at(grad_e, (task_idx, idx), dy)
        else:
            np.add.at(grad_e, idx.reshape(-1), dy.reshape(-1, self.dim))
        # Indices are not differentiable; return a zero gradient placeholder.
        return np.zeros(idx.shape), {"E": grad_e}


class Dropout(Module):
    """Inverted dropout; identity when ``train=False`` or ``rng is None``."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p

    def init_params(self, rng: np.random.Generator) -> Params:
        return {}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        if not train or self.p == 0.0 or rng is None:
            return x, None
        keep = 1.0 - self.p
        mask = (rng.random(x.shape) < keep) / keep
        return x * mask, mask

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        if cache is None:
            return dy, {}
        return dy * cache, {}


class Relu(Module):
    """Rectified linear activation."""

    def init_params(self, rng: np.random.Generator) -> Params:
        return {}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        mask = x > 0
        return x * mask, mask

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        return dy * cache, {}


class Sigmoid(Module):
    """Logistic sigmoid, numerically stable in both tails."""

    def init_params(self, rng: np.random.Generator) -> Params:
        return {}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        y = sigmoid(x)
        return y, y

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        y = cache
        return dy * y * (1.0 - y), {}


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def init_params(self, rng: np.random.Generator) -> Params:
        return {}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        y = np.tanh(x)
        return y, y

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        y = cache
        return dy * (1.0 - y * y), {}


class Softmax(Module):
    """Softmax over the last axis.

    ``valid`` (boolean, broadcastable to the input) restricts it to the true
    entries, as :func:`softmax` does: the others output exactly 0, so no
    gradient flows back through them either.
    """

    def __init__(self, valid: np.ndarray | None = None):
        self.valid = valid

    def init_params(self, rng: np.random.Generator) -> Params:
        return {}

    def forward(
        self,
        params: Params,
        x: np.ndarray,
        *,
        rng: np.random.Generator | None = None,
        train: bool = False,
    ) -> tuple[np.ndarray, Any]:
        y = softmax(x, valid=self.valid)
        return y, y

    def backward(
        self, params: Params, cache: Any, dy: np.ndarray
    ) -> tuple[np.ndarray, Grads]:
        y = cache
        dot = (dy * y).sum(axis=-1, keepdims=True)
        return y * (dy - dot), {}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid usable outside the layer API.

    Branch-free: ``exp(-|x|)`` never overflows, and selecting the
    numerator (``1`` or ``exp(-|x|)``) before one division computes the
    same per-element values as the classic sign-split form (bit for bit)
    without its gather/scatter cost or a second division.  Preserves
    floating dtypes, so a float32 model stays float32 end to end.
    """
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def softmax(
    x: np.ndarray, axis: int = -1, valid: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax usable outside the layer API.

    ``valid`` (boolean, broadcastable to ``x``) restricts the softmax over
    ``axis`` to its true entries; the others get exactly 0, and a slice with
    no valid entry is all 0.  With every entry valid the result is bitwise
    the unmasked one: the mask multiplies by 1 and the denominator is at
    least 1, so the floor on it never applies.
    """
    if valid is None:
        shifted = x - x.max(axis=axis, keepdims=True)
        ex = np.exp(shifted)
        return ex / ex.sum(axis=axis, keepdims=True)
    info = np.finfo(x.dtype)
    shifted = np.where(valid, x, info.min)
    shifted = shifted - shifted.max(axis=axis, keepdims=True)
    ex = np.exp(shifted) * valid
    return ex / np.maximum(ex.sum(axis=axis, keepdims=True), info.tiny)
