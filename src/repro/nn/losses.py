"""Loss functions with analytic gradients.

Every loss returns ``(value, grad)`` (or ``(value, grad_a, grad_b)`` for
two-argument losses) where gradients are with respect to the inputs, already
averaged the same way the scalar value is.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import softmax

_EPS = 1e-12


def binary_cross_entropy(
    pred: np.ndarray,
    target: np.ndarray,
    weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on probabilities in ``(0, 1)``.

    Targets may be *soft* labels in ``[0, 1]`` — this is exactly the case in
    MetaDPA, where augmented ratings are continuous.

    Parameters
    ----------
    pred:
        predicted probabilities, any shape.
    target:
        same shape as ``pred``, values in ``[0, 1]``.
    weight:
        optional per-element weight (same shape), e.g. to mask padding.
    """
    pred = np.clip(pred, _EPS, 1.0 - _EPS)
    per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
    grad = (pred - target) / (pred * (1.0 - pred))
    if weight is not None:
        per_elem = per_elem * weight
        grad = grad * weight
    n = pred.size
    return float(per_elem.sum() / n), grad / n


def binary_cross_entropy_tasks(
    pred: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-task mean BCE over the trailing axis, with optional padding mask.

    The batched counterpart of :func:`binary_cross_entropy` for stacked
    computations: ``pred``/``target`` have shape ``(T, batch)`` (any number
    of leading axes works) and each task's loss — and its gradient — is
    normalized by *that task's own* unpadded element count, so the result is
    exactly ``T`` independent per-task losses.  ``mask`` (same shape, 1 for
    real elements, 0 for padding) zeroes padded entries before normalizing.

    Returns ``(losses, grad)`` with ``losses`` of shape ``pred.shape[:-1]``
    and ``grad`` of ``pred``'s shape.
    """
    pred = np.clip(pred, _EPS, 1.0 - _EPS)
    per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
    grad = (pred - target) / (pred * (1.0 - pred))
    if mask is not None:
        per_elem = per_elem * mask
        grad = grad * mask
        counts = np.maximum(mask.sum(axis=-1), 1.0)
    else:
        counts = float(pred.shape[-1])
    losses = per_elem.sum(axis=-1) / counts
    grad = grad / np.asarray(counts)[..., None]
    return losses, grad


def gaussian_kl_to_code_stacked(
    mu: np.ndarray,
    log_var: np.ndarray,
    code: np.ndarray,
    row_mask: np.ndarray | None = None,
    counts: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-slice content-conditioned KL for stacked ``(D, batch, latent)``.

    Mirrors :func:`gaussian_kl_to_code` independently per leading slice,
    normalizing by each slice's real row count (``counts``, default the
    ``row_mask`` sum or the padded batch size).  Padded rows (mask 0) carry
    neither loss nor gradient.
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
    """Per-slice InfoNCE for stacked ``(D, batch, dim)`` representations.

    Computes :func:`info_nce` independently for every slice of the leading
    axis in one batched pass.  ``row_mask`` ``(D, batch)`` marks real rows;
    padded rows are excluded from the contrastive softmax and receive zero
    gradients.  Slices with fewer than two real rows get loss 0 and zero
    gradients, matching the scalar convention.

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

    scale = (active / safe_counts)[:, None, None]
    dlogits = 0.5 * ((p_rows - eye) + (p_cols - eye)) * scale
    grad_a_hat = (dlogits @ b_hat) / temperature
    grad_b_hat = (np.swapaxes(dlogits, 1, 2) @ a_hat) / temperature
    if not normalize:
        return losses, grad_a_hat, grad_b_hat
    grad_a = (
        grad_a_hat - (grad_a_hat * a_hat).sum(axis=2, keepdims=True) * a_hat
    ) / norm_a
    grad_b = (
        grad_b_hat - (grad_b_hat * b_hat).sum(axis=2, keepdims=True) * b_hat
    ) / norm_b
    return losses, grad_a, grad_b


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error ``mean((pred - target)^2)``."""
    diff = pred - target
    n = pred.size
    return float((diff * diff).sum() / n), 2.0 * diff / n


def gaussian_kl(
    mu: np.ndarray, log_var: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL divergence of ``N(mu, exp(log_var))`` from the standard normal.

    Returns the batch-mean KL and gradients with respect to ``mu`` and
    ``log_var``.
    """
    batch = mu.shape[0]
    var = np.exp(log_var)
    kl = 0.5 * (var + mu * mu - log_var - 1.0).sum() / batch
    grad_mu = mu / batch
    grad_log_var = 0.5 * (var - 1.0) / batch
    return float(kl), grad_mu, grad_log_var


def gaussian_kl_to_code(
    mu: np.ndarray, log_var: np.ndarray, code: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """KL divergence of ``N(mu, exp(log_var))`` from ``N(code, I)``.

    This is the content-conditioned prior of Eq. (3) in the paper: the
    variational posterior of the rating encoder is pulled toward the content
    encoder's output ``code`` so that ratings can later be reconstructed from
    content alone.

    Returns ``(kl, grad_mu, grad_log_var, grad_code)``.
    """
    batch = mu.shape[0]
    var = np.exp(log_var)
    diff = mu - code
    kl = 0.5 * (var + diff * diff - log_var - 1.0).sum() / batch
    grad_mu = diff / batch
    grad_code = -diff / batch
    grad_log_var = 0.5 * (var - 1.0) / batch
    return float(kl), grad_mu, grad_log_var, grad_code


def info_nce(
    a: np.ndarray,
    b: np.ndarray,
    temperature: float = 0.1,
    normalize: bool = True,
) -> tuple[float, np.ndarray, np.ndarray]:
    """InfoNCE loss between two aligned batches of representations.

    Row ``i`` of ``a`` and row ``i`` of ``b`` form the positive pair; all
    other rows of ``b`` in the batch act as negatives (and symmetrically for
    ``a``).  Minimizing this loss *maximizes* a lower bound on the mutual
    information ``I(a, b) >= log(batch) - loss``, which is how both the MDI
    constraint (on latent codes) and the ME constraint (on decoder outputs)
    are realized in the paper.

    With ``normalize=True`` (the default) similarities are cosine rather
    than raw dot products.  This bounds the logits by ``1/temperature`` and
    keeps the constraint gradients commensurate with the reconstruction
    gradients — with raw dot products the InfoNCE terms can grow without
    bound and, after global gradient clipping, starve every other loss term.

    Returns ``(loss, grad_a, grad_b)``.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    batch = a.shape[0]
    if batch < 2:
        # A single pair carries no contrastive signal; define the loss as 0.
        return 0.0, np.zeros_like(a), np.zeros_like(b)

    if normalize:
        norm_a = np.linalg.norm(a, axis=1, keepdims=True)
        norm_b = np.linalg.norm(b, axis=1, keepdims=True)
        norm_a = np.maximum(norm_a, 1e-8)
        norm_b = np.maximum(norm_b, 1e-8)
        a_hat = a / norm_a
        b_hat = b / norm_b
    else:
        a_hat, b_hat = a, b

    logits = (a_hat @ b_hat.T) / temperature  # (batch, batch)
    # Symmetric cross-entropy: a->b uses rows, b->a uses columns.
    p_rows = softmax(logits, axis=1)
    p_cols = softmax(logits, axis=0)
    idx = np.arange(batch)
    loss_ab = -np.log(np.clip(p_rows[idx, idx], _EPS, None)).mean()
    loss_ba = -np.log(np.clip(p_cols[idx, idx], _EPS, None)).mean()
    loss = 0.5 * (loss_ab + loss_ba)

    # d loss_ab / d logits = (p_rows - I) / batch ; similarly for columns.
    eye = np.eye(batch, dtype=p_rows.dtype)
    dlogits = 0.5 * ((p_rows - eye) + (p_cols - eye)) / batch
    grad_a_hat = (dlogits @ b_hat) / temperature
    grad_b_hat = (dlogits.T @ a_hat) / temperature
    if not normalize:
        return float(loss), grad_a_hat, grad_b_hat
    # Through the L2 normalization: d(x/||x||) projects out the radial part.
    grad_a = (grad_a_hat - (grad_a_hat * a_hat).sum(axis=1, keepdims=True) * a_hat) / norm_a
    grad_b = (grad_b_hat - (grad_b_hat * b_hat).sum(axis=1, keepdims=True) * b_hat) / norm_b
    return float(loss), grad_a, grad_b


def info_nce_mi_estimate(
    a: np.ndarray, b: np.ndarray, temperature: float = 0.1, normalize: bool = True
) -> float:
    """Lower-bound estimate of the mutual information between ``a`` and ``b``.

    ``I(a, b) >= log(batch) - InfoNCE`` (van den Oord et al., 2018).
    """
    loss, _, _ = info_nce(a, b, temperature=temperature, normalize=normalize)
    batch = a.shape[0]
    if batch < 2:
        return 0.0
    return float(np.log(batch) - loss)
