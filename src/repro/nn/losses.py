"""Loss functions with analytic gradients: one kernel per loss term.

Every kernel works per slice of a leading stack axis, the way the fused
trainers run them, and returns ``(losses, grad)`` (or ``(losses, grad_a,
grad_b, ...)`` for several inputs): one loss per slice, and gradients with
respect to the inputs, each slice averaged the way its loss is.  A single
model is a stack of one.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import softmax

_EPS = 1e-12


def binary_cross_entropy(
    pred: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean binary cross-entropy over the trailing axis, per slice.

    ``pred`` holds probabilities in ``(0, 1)`` and ``target`` labels in
    ``[0, 1]``; targets may be *soft*, as MetaDPA's augmented ratings are.
    A 1-D call is one slice; ``(T, batch)`` inputs (any number of leading
    axes works) are ``T`` independent losses, each normalized by *that*
    slice's own element count.  ``mask`` (same shape, 1 for real elements,
    0 for padding) zeroes padded entries before normalizing, so ragged
    tasks padded to a common width keep their own losses and gradients.

    Returns ``(losses, grad)`` with ``losses`` of shape ``pred.shape[:-1]``
    (a scalar for a 1-D call) and ``grad`` of ``pred``'s shape and dtype.
    """
    pred = np.clip(pred, _EPS, 1.0 - _EPS)
    per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
    grad = (pred - target) / (pred * (1.0 - pred))
    if mask is None:
        counts = float(pred.shape[-1])
        return per_elem.sum(axis=-1) / counts, grad / counts
    per_elem = per_elem * mask
    grad = grad * mask
    counts = np.maximum(mask.sum(axis=-1), 1.0)
    return per_elem.sum(axis=-1) / counts, grad / counts[..., None]


def gaussian_kl_to_code_stacked(
    mu: np.ndarray,
    log_var: np.ndarray,
    code: np.ndarray,
    row_mask: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """KL of ``N(mu, exp(log_var))`` from ``N(code, I)``, per slice.

    This is the content-conditioned prior of Eq. (3) in the paper: the
    variational posterior of the rating encoder is pulled toward the content
    encoder's output ``code`` so that ratings can later be reconstructed from
    content alone.  A zero ``code`` is the standard-normal prior.

    Inputs are stacked ``(D, batch, latent)``; each slice's KL is the mean
    over its real rows (``counts``, default the ``row_mask`` sum or the
    padded batch size).  Padded rows (mask 0) carry neither loss nor
    gradient.  Returns ``(kl, grad_mu, grad_log_var, grad_code)`` with
    ``kl`` of shape ``(D,)``.
    """
    var = np.exp(log_var)
    diff = mu - code
    per_row = 0.5 * (var + diff * diff - log_var - 1.0)
    grad_mu = diff
    grad_code = -diff
    grad_log_var = 0.5 * (var - 1.0)
    if row_mask is not None:
        m = row_mask[..., None]
        per_row = per_row * m
        grad_mu = grad_mu * m
        grad_code = grad_code * m
        grad_log_var = grad_log_var * m
    if counts is None:
        if row_mask is not None:
            counts = row_mask.sum(axis=1)
        else:
            counts = np.full(mu.shape[0], float(mu.shape[1]), dtype=mu.dtype)
    counts = np.maximum(np.asarray(counts, dtype=mu.dtype), 1.0)
    kl = per_row.reshape(mu.shape[0], -1).sum(axis=1) / counts
    c = counts[:, None, None]
    return kl, grad_mu / c, grad_log_var / c, grad_code / c


def info_nce_stacked(
    a: np.ndarray,
    b: np.ndarray,
    row_mask: np.ndarray | None = None,
    temperature: float = 0.1,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric InfoNCE between aligned batches, per slice.

    Inputs are stacked ``(D, batch, dim)``.  Within a slice, row ``i`` of
    ``a`` and row ``i`` of ``b`` form the positive pair and every other row
    of the batch is a negative, in both directions.  Minimizing the loss
    *maximizes* a lower bound on the mutual information, ``I(a, b) >=
    log(batch) - loss`` (van den Oord et al., 2018), which is how both the
    MDI constraint (on latent codes) and the ME constraint (on decoder
    outputs) are realized in the paper.

    With ``normalize=True`` (the default) similarities are cosine rather
    than raw dot products.  This bounds the logits by ``1/temperature`` and
    keeps the constraint gradients commensurate with the reconstruction
    gradients; with raw dot products the InfoNCE terms can grow without
    bound and, after global gradient clipping, starve every other loss term.

    ``row_mask`` ``(D, batch)`` marks real rows; padded rows are excluded
    from the contrastive softmax and receive zero gradients.  A slice with
    fewer than two real rows carries no contrastive signal: its loss is 0
    and its gradients are zero.

    Returns ``(losses, grad_a, grad_b)`` with ``losses`` of shape ``(D,)``.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    n_stack, batch, _ = a.shape

    if normalize:
        norm_a = np.maximum(np.linalg.norm(a, axis=2, keepdims=True), 1e-8)
        norm_b = np.maximum(np.linalg.norm(b, axis=2, keepdims=True), 1e-8)
        a_hat = a / norm_a
        b_hat = b / norm_b
    else:
        a_hat, b_hat = a, b

    logits = (a_hat @ np.swapaxes(b_hat, 1, 2)) / temperature  # (D, B, B)
    idx = np.arange(batch)
    if row_mask is None:
        # Fast path: every row is real, the softmaxes need no masking.
        counts = np.full(n_stack, batch, dtype=a.dtype)
        p_rows = softmax(logits, axis=2)
        p_cols = softmax(logits, axis=1)
        eye = np.zeros_like(p_rows)
        eye[:, idx, idx] = 1.0
        row_weight = None
    else:
        counts = row_mask.sum(axis=1)
        pair = (row_mask[:, :, None] * row_mask[:, None, :]) > 0
        p_rows = softmax(logits, axis=2, valid=pair)
        p_cols = softmax(logits, axis=1, valid=pair)
        eye = np.zeros_like(p_rows)
        eye[:, idx, idx] = row_mask
        row_weight = row_mask

    active = (counts >= 2).astype(a.dtype)  # single pairs carry no signal
    safe_counts = np.maximum(counts, 1.0)
    log_rows = -np.log(np.clip(p_rows[:, idx, idx], _EPS, None))
    log_cols = -np.log(np.clip(p_cols[:, idx, idx], _EPS, None))
    if row_weight is not None:
        log_rows = log_rows * row_weight
        log_cols = log_cols * row_weight
    loss_ab = log_rows.sum(axis=1) / safe_counts
    loss_ba = log_cols.sum(axis=1) / safe_counts
    losses = 0.5 * (loss_ab + loss_ba) * active

    # d loss / d logits: (softmax - I) per direction, over the real rows.
    scale = (active / safe_counts)[:, None, None]
    dlogits = 0.5 * ((p_rows - eye) + (p_cols - eye)) * scale
    grad_a_hat = (dlogits @ b_hat) / temperature
    grad_b_hat = (np.swapaxes(dlogits, 1, 2) @ a_hat) / temperature
    if not normalize:
        return losses, grad_a_hat, grad_b_hat
    # Through the L2 normalization: d(x/||x||) projects out the radial part.
    grad_a = (
        grad_a_hat - (grad_a_hat * a_hat).sum(axis=2, keepdims=True) * a_hat
    ) / norm_a
    grad_b = (
        grad_b_hat - (grad_b_hat * b_hat).sum(axis=2, keepdims=True) * b_hat
    ) / norm_b
    return losses, grad_a, grad_b
