"""A minimal, from-scratch neural-network substrate on numpy.

The paper's reference implementation uses PyTorch; this package provides the
pieces MetaDPA actually needs, in a *pure functional* style:

- every :class:`~repro.nn.module.Module` is a stateless description of a
  computation.  Parameters live in plain ``dict[str, numpy.ndarray]`` objects
  created by :meth:`Module.init_params`.
- ``forward(params, x)`` returns ``(y, cache)`` and
  ``backward(params, cache, dy)`` returns ``(dx, grads)`` where ``grads`` has
  the same keys as ``params``.

Keeping parameters external makes meta-learning (MAML fast weights),
optimizers, and serialization straightforward: a fast-weight step is just
``{k: p[k] - lr * g[k]}``.
"""

from repro.nn.init import kaiming_uniform, normal_init, zeros_init
from repro.nn.layers import (
    Dropout,
    Embedding,
    Linear,
    Relu,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.losses import (
    binary_cross_entropy,
    gaussian_kl_to_code_stacked,
    info_nce_stacked,
)
from repro.nn.module import Module, Sequential, mlp
from repro.nn.optim import Adam, StackedAdam, clip_grad_norm, mean_task_grads
from repro.nn.stacking import pad_axis, stack_params
from repro.nn.serialization import load_params, save_params

__all__ = [
    "Module",
    "Sequential",
    "mlp",
    "Linear",
    "Embedding",
    "Dropout",
    "Relu",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "binary_cross_entropy",
    "gaussian_kl_to_code_stacked",
    "info_nce_stacked",
    "Adam",
    "StackedAdam",
    "clip_grad_norm",
    "mean_task_grads",
    "pad_axis",
    "stack_params",
    "kaiming_uniform",
    "normal_init",
    "zeros_init",
    "save_params",
    "load_params",
]
