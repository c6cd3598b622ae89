"""Optimizers operating on parameter dictionaries.

Optimizers mutate the parameter dict in place via :meth:`Optimizer.step` and
keep their own state (Adam moments) keyed by parameter name.

Every update is elementwise, so the optimizers are shape-agnostic: a stacked
parameter dict (leading task axis, see :mod:`repro.nn.stacking`) trains ``T``
independent copies in one step with per-copy Adam moments.  When a batched
backward pass returns *per-task* gradients for unstacked meta parameters,
reduce them first with :func:`mean_task_grads`.  :class:`StackedAdam` is
the flat form: ``D`` models in one slice-major buffer, each with its own
Adam state and step count.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Grads, Params
from repro.nn.stacking import ParamLayout


def require_finite(name: str, value: float, *, positive: bool = True) -> None:
    """Reject an optimization setting that is not finite, or not positive
    (negative, with ``positive=False``).

    NaN fails every comparison, so a bare ``value <= 0`` check lets it
    through: a NaN learning rate then turns every parameter into NaN, and a
    NaN clip norm silently turns clipping off.
    """
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


class Optimizer:
    """Base optimizer over a parameter dictionary."""

    def __init__(self, params: Params, lr: float, weight_decay: float = 0.0):
        require_finite("learning rate", lr)
        require_finite("weight decay", weight_decay, positive=False)
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, grads: Grads) -> None:
        raise NotImplementedError

    def _decayed(self, name: str, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            return grad + self.weight_decay * self.params[name]
        return grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Params,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, grads: Grads) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, grad in grads.items():
            grad = self._decayed(name, grad)
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(grad)
                v = np.zeros_like(grad)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[name] = m
            self._v[name] = v
            m_hat = m / bias1
            v_hat = v / bias2
            self.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StackedAdam(Optimizer):
    """Adam over ``D`` models stacked in one slice-major ``(D, P)`` buffer.

    ``flat`` row ``d`` holds every parameter of model ``d`` at ``layout``'s
    offsets, as :class:`~repro.cvae.model.FusedDualCVAE` builds it, and
    :attr:`params` maps each layout name to its ``(D, ...)`` view.  Each
    slice is an independent model trained with its *own* Adam state,
    including its own step counter, so ``D`` models whose batch schedules
    differ (some slices sit a step out) stay on the trajectory a per-model
    :class:`Adam` would have produced.  ``step`` takes an optional boolean
    ``active`` mask of shape ``(D,)``: inactive slices advance neither their
    moments nor their step count nor their weights.

    An update is ~a dozen whole-buffer vector ops against preallocated
    moment buffers, and :meth:`clipped_step` folds per-group gradient
    clipping into the same gathered pass.  The arithmetic keeps
    :class:`Adam`'s operation order, so the stacked and per-model updates
    agree element for element.
    """

    def __init__(
        self,
        layout: ParamLayout,
        flat: np.ndarray,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if flat.ndim != 2 or flat.shape[0] == 0 or flat.shape[1] != layout.size:
            raise ValueError(
                f"flat must be a slice-major (D >= 1, {layout.size}) buffer, "
                f"got shape {flat.shape}"
            )
        super().__init__(layout.views(flat), lr, weight_decay)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.layout = layout
        self.n_stack = flat.shape[0]
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._t = np.zeros(self.n_stack, dtype=np.int64)
        self._flat = flat
        self._m = np.zeros_like(flat)
        self._v = np.zeros_like(flat)
        self._buf = np.empty_like(flat)
        self._grad = np.empty_like(flat)

    def _normalize_active(self, active: np.ndarray | None) -> np.ndarray | None:
        if active is None:
            return None
        active = np.asarray(active, dtype=bool)
        if active.shape != (self.n_stack,):
            raise ValueError(f"active mask must have shape ({self.n_stack},)")
        return None if active.all() else active

    def step(self, grads: Grads, active: np.ndarray | None = None) -> None:
        """Advance every (active) slice one Adam step."""
        active = self._normalize_active(active)
        if active is not None and not active.any():
            return
        self._gather(grads)
        self._update(active)

    def clipped_step(
        self,
        grads: Grads,
        max_norm: float,
        group_index: np.ndarray,
        active: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-group clip + Adam step in one gathered pass.

        Slice ``d`` belongs to group ``group_index[d]``, and each group's
        gradient is clipped to a global L2 norm of ``max_norm`` taken over
        all of its slices, as :func:`clip_grad_norm` clips one model (the
        fused Dual-CVAE folds a domain's source and target branches into
        one group).  The norms come from a single contraction over the
        slice-major gradient buffer, accumulated in float64.  Returns the
        per-group pre-clip L2 norms.
        """
        require_finite("max_norm", max_norm)
        active = self._normalize_active(active)
        group_index = np.asarray(group_index, dtype=np.int64)
        self._gather(grads)
        sq = np.einsum("ij,ij->i", self._grad, self._grad).astype(np.float64)
        n_groups = int(group_index.max()) + 1
        group_sq = np.zeros(n_groups, dtype=np.float64)
        np.add.at(group_sq, group_index, sq)
        norms = np.sqrt(group_sq)
        scales = np.where(norms > max_norm, max_norm / (norms + 1e-12), 1.0)
        if np.any(scales < 1.0):
            per_slice = scales[group_index][:, None].astype(self._grad.dtype)
            self._grad *= per_slice
        if active is None or active.any():
            self._update(active)
        return norms

    def _gather(self, grads: Grads) -> None:
        for name, offset, size, _ in self.layout.entries:
            self._grad[:, offset : offset + size] = grads[name].reshape(
                self.n_stack, -1
            )

    def _update(self, active: np.ndarray | None) -> None:
        """In-place whole-model Adam over the flat buffers.

        Masked slices are handled by stash-and-restore: the update runs over
        the full buffer (allocation-free), then the few inactive rows are
        copied back — exactness for active slices is untouched and the cost
        is proportional to the (rare, small) inactive set.
        """
        stash = None
        if active is not None:
            idx = np.flatnonzero(~active)
            stash = (
                idx,
                self._flat[idx].copy(),
                self._m[idx].copy(),
                self._v[idx].copy(),
            )
            self._t += active
        else:
            self._t += 1
        t_min, t_max = int(self._t.min()), int(self._t.max())
        if t_min == t_max:
            bias1 = 1.0 - self.beta1**t_max
            bias2 = 1.0 - self.beta2**t_max
        else:
            # Never-stepped slices (t=0, only reachable while masked out)
            # use t=1 to avoid a 0/0; their update is restored away below.
            t_safe = np.maximum(self._t, 1)
            bias1 = (1.0 - self.beta1**t_safe).astype(self._flat.dtype)[:, None]
            bias2 = (1.0 - self.beta2**t_safe).astype(self._flat.dtype)[:, None]
        flat, m, v, buf, grad = self._flat, self._m, self._v, self._buf, self._grad
        if self.weight_decay:
            np.multiply(flat, self.weight_decay, out=buf)
            grad += buf
        # m = beta1*m + (1-beta1)*grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buf)
        m += buf
        # v = beta2*v + ((1-beta2)*grad)*grad  (scalar-Adam association)
        np.multiply(grad, 1.0 - self.beta2, out=buf)
        buf *= grad
        v *= self.beta2
        v += buf
        # param -= (lr * (m/bias1)) / (sqrt(v/bias2) + eps); grad is dead
        # and doubles as the denominator scratch.
        np.divide(v, bias2, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        np.divide(m, bias1, out=buf)
        buf *= self.lr
        buf /= grad
        flat -= buf
        if stash is not None:
            idx, flat_rows, m_rows, v_rows = stash
            self._flat[idx] = flat_rows
            self._m[idx] = m_rows
            self._v[idx] = v_rows


def clip_grad_norm(grads: Grads, max_norm: float) -> float:
    """Clip gradients in place to a global L2 norm; returns the pre-clip norm."""
    require_finite("max_norm", max_norm)
    total = 0.0
    for grad in grads.values():
        total += float((grad * grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


def mean_task_grads(grads: Grads) -> Grads:
    """Average per-task gradients ``[T, ...]`` over the leading task axis.

    This is the reduction between a task-batched backward pass (which keeps
    one gradient per task, matching FOMAML's per-task query gradients) and an
    optimizer step on the unstacked meta parameters.
    """
    return {name: np.asarray(grad).mean(axis=0) for name, grad in grads.items()}


def add_grads(into: Grads, grads: Grads, scale: float = 1.0) -> None:
    """Accumulate ``grads`` into ``into`` (in place), creating keys as needed."""
    for name, grad in grads.items():
        if name in into:
            into[name] = into[name] + scale * grad
        else:
            into[name] = scale * grad
