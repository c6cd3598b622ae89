"""Reference implementations the equivalence suites and benchmarks check against.

``src/`` computes meta-learning one way, packed, task-batched and
vectorized (:mod:`repro.meta.maml`), and trains Dual-CVAEs one way, fused
on a stacked domain axis (:mod:`repro.cvae.trainer`).  This module holds the
plain forms of the same math, written once, for the tests that pin the fast
paths to them and for the benchmarks that time the fast paths against them:

- **Per-view scalar MAML** — the inner loop of Eq. (1), the FOMAML outer
  step, the Reptile refresh and a full ``fit``, each adapting one corpus
  view at a time.  Views are read through
  :meth:`~repro.meta.corpus.TaskCorpus.view_arrays` and the user row is fed
  as a single ``(1, C)`` row, so in float32 the inner loop reproduces
  :meth:`MAML.adapt_corpus <repro.meta.maml.MAML.adapt_corpus>` bit for bit
  (chunks there never pad).
- **The dense padded meta-batch** — tasks materialized as per-row content
  arrays and zero-padded into ``(T, S, C)`` blocks: the data path
  meta-training used before the packed corpus, kept so the packed meta
  step and chunked adaptation can be checked against it and
  ``benchmarks/bench_meta_corpus.py`` can time the seed pipeline.
- **The unblocked full forward** — :func:`predict` scores aligned (user,
  item) content rows through the training forward in one pass, the oracle
  of the blocked candidate-scoring pass
  (:meth:`~repro.meta.model.PreferenceModel.score_pool`).
- **The scalar Dual-CVAE loss and the sequential loop** — Eq. (8) for one
  model with its two branches run one after another, the per-domain epoch
  loop around it (a per-model :class:`~repro.nn.optim.Adam` and a
  whole-model clip), and ``fit_generate`` with the k augmentation models
  trained one after another instead of fused.
- **The two-division sigmoid** — each branch of the sign split divides on
  its own; :func:`repro.nn.layers.sigmoid` selects the numerator first and
  divides once, and must match it bit for bit.
- **The scalar loss kernels** — :func:`binary_cross_entropy` (one mean over
  every element), :func:`gaussian_kl_to_code` and :func:`info_nce` on one
  model's batch: the references of the stacked kernels in
  :mod:`repro.nn.losses` and the terms of the scalar Dual-CVAE loss above.
- **Per-model views of stacked parameters** — :func:`unstack_params` splits
  a stacked dict into per-task dicts, and :func:`clip_grad_norm_grouped`
  clips a stacked gradient dict per group of slices, the reference of
  :meth:`StackedAdam.clipped_step <repro.nn.optim.StackedAdam.clipped_step>`.
- **Per-trial ranking metrics** — :func:`rank_of_positive`,
  :func:`hit_ratio`, :func:`mrr`, :func:`ndcg` and :func:`auc` score one
  leave-one-out trial; :meth:`MetricSet.from_score_lists
  <repro.eval.metrics.MetricSet.from_score_lists>` must agree with their
  mean over a trial list.

The MAML functions drive a live :class:`~repro.meta.maml.MAML` instance (its
parameters, config and optimizer), and the Dual-CVAE ones a live
:class:`~repro.cvae.trainer.DualCVAETrainer` (its model, split and rngs), so
a reference run and a fast run seeded alike start from identical state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Sequence

import numpy as np

from repro.cvae.augment import AugmentedRatings, DiversePreferenceAugmenter
from repro.cvae.model import DualCVAE
from repro.cvae.trainer import DualCVAETrainer, TrainingHistory
from repro.eval.metrics import _check_k
from repro.meta.corpus import TaskCorpus
from repro.meta.maml import MAML, uniform_width_chunks
from repro.meta.model import PreferenceModel
from repro.nn.layers import softmax
from repro.nn.losses import _EPS
from repro.nn.module import Grads, Params
from repro.nn.optim import Adam, add_grads, clip_grad_norm, mean_task_grads, require_finite
from repro.nn.stacking import pad_axis
from repro.utils.batching import iter_batches
from repro.utils.rng import ensure_rng


# ----------------------------------------------------------------------
# Per-view scalar MAML
# ----------------------------------------------------------------------
def view_content(corpus: TaskCorpus, view: int):
    """``(user (1, C), support items, support labels, query items, query
    labels)`` content rows of one corpus view."""
    row, s_items, s_labels, q_items, q_labels = corpus.view_arrays(int(view))
    content = corpus.content
    return (
        content.user[row][None, :],
        content.item[s_items],
        s_labels,
        content.item[q_items],
        q_labels,
    )


def adapt(
    maml: MAML,
    user: np.ndarray,
    items: np.ndarray,
    labels: np.ndarray,
    steps: int | None = None,
) -> Params:
    """Eq. (1): ``steps`` gradient steps on one support set from the meta
    parameters.  Only the adaptable keys move; with MeLU's decision-only
    restriction the frozen embedding is computed once, not once per step."""
    fast = dict(maml.params)
    if labels.size == 0:  # no support rows: every inner gradient is zero
        return fast
    lr = maml.config.inner_lr
    n_steps = maml.config.inner_steps if steps is None else steps
    if maml._decision_only:
        joint = maml.model.embed_joint(fast, user, items)
        for _ in range(n_steps):
            _, grads = maml.model.decision_loss_and_grads(fast, joint, labels)
            for name, grad in grads.items():
                fast[name] = fast[name] - lr * grad
        return fast
    adaptable = maml._adaptable_keys
    for _ in range(n_steps):
        _, grads = maml.model.loss_and_grads(fast, user, items, labels)
        for name, grad in grads.items():
            if name in adaptable:
                fast[name] = fast[name] - lr * grad
    return fast


def adapt_view(maml: MAML, corpus: TaskCorpus, view: int, steps: int | None = None) -> Params:
    """:func:`adapt` on one corpus view's support set."""
    user, s_items, s_labels, _, _ = view_content(corpus, view)
    return adapt(maml, user, s_items, s_labels, steps=steps)


def fomaml_step(maml: MAML, corpus: TaskCorpus, view_ids: Sequence[int]) -> float:
    """One first-order MAML outer step, one view at a time.

    Each view is adapted alone, its query gradient at the adapted weights is
    averaged into the meta-gradient, which is clipped and handed to the
    instance's Adam.  Returns the mean query loss.
    """
    meta_grads: Grads = {}
    losses = []
    for view in view_ids:
        user, s_items, s_labels, q_items, q_labels = view_content(corpus, view)
        fast = adapt(maml, user, s_items, s_labels)
        loss, grads = maml.model.loss_and_grads(fast, user, q_items, q_labels)
        losses.append(float(loss))
        add_grads(meta_grads, grads, scale=1.0 / len(view_ids))
    clip_grad_norm(meta_grads, maml.config.grad_clip)
    maml._optimizer.step(meta_grads)
    return float(np.mean(losses))


def reptile_step(
    maml: MAML,
    corpus: TaskCorpus,
    view_ids: Sequence[int],
    meta_lr: float = 0.1,
    steps: int | None = None,
) -> float:
    """Reptile: move the adaptable meta parameters ``meta_lr`` of the way
    toward the mean of the per-view adapted weights.  Returns the RMS of
    the applied delta."""
    keys = sorted(maml._adaptable_keys & set(maml.params))
    total = {key: np.zeros(maml.params[key].shape) for key in keys}
    for view in view_ids:
        fast = adapt_view(maml, corpus, view, steps=steps)
        for key in keys:
            total[key] += fast[key] - maml.params[key]
    sq_sum, n_elems = 0.0, 0
    for key in keys:
        delta = (meta_lr / len(view_ids)) * total[key]
        maml.params[key] = (maml.params[key] + delta).astype(maml.params[key].dtype)
        sq_sum += float(np.sum(delta * delta))
        n_elems += delta.size
    return float(np.sqrt(sq_sum / max(n_elems, 1)))


def fit(maml: MAML, corpus: TaskCorpus, epochs: int, shuffle: bool = True) -> list[float]:
    """Meta-train through :func:`fomaml_step` on ``MAML.fit``'s schedule."""
    history = []
    for _ in range(epochs):
        batches = corpus.epoch_batches(
            maml.config.meta_batch_size, rng=maml._rng, shuffle=shuffle
        )
        history.append(float(np.mean([fomaml_step(maml, corpus, ids) for ids in batches])))
    return history


# ----------------------------------------------------------------------
# The dense padded meta-batch
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskBatchItem:
    """One task as dense per-row arrays: the user row copied onto every
    item row of its support and query sets."""

    support_user: np.ndarray
    support_item: np.ndarray
    support_labels: np.ndarray
    query_user: np.ndarray
    query_item: np.ndarray
    query_labels: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, f.name).nbytes for f in fields(self))


def materialize(
    user_content: np.ndarray,
    item_content: np.ndarray,
    user_row: int,
    support_items: np.ndarray,
    support_labels: np.ndarray,
    query_items: np.ndarray,
    query_labels: np.ndarray,
) -> TaskBatchItem:
    """Dense arrays for one task (the fields of
    :meth:`~repro.meta.corpus.TaskCorpus.view_arrays`); labels take the
    content dtype."""
    user = user_content[user_row][None, :]
    return TaskBatchItem(
        support_user=np.repeat(user, support_items.size, axis=0),
        support_item=item_content[support_items],
        support_labels=np.asarray(support_labels, dtype=user_content.dtype),
        query_user=np.repeat(user, query_items.size, axis=0),
        query_item=item_content[query_items],
        query_labels=np.asarray(query_labels, dtype=user_content.dtype),
    )


def _pad_rows(arrays: Sequence[np.ndarray], width: int) -> np.ndarray:
    return np.stack([pad_axis(np.asarray(a), 0, width) for a in arrays])


@dataclass(frozen=True)
class TaskBatch:
    """A meta-batch zero-padded to its widest task; the ``*_mask`` arrays
    (1 = real row) keep padding out of every loss and gradient."""

    support_user: np.ndarray  # (T, S, C)
    support_item: np.ndarray  # (T, S, C)
    support_labels: np.ndarray  # (T, S)
    support_mask: np.ndarray  # (T, S)
    query_user: np.ndarray  # (T, Q, C)
    query_item: np.ndarray  # (T, Q, C)
    query_labels: np.ndarray  # (T, Q)
    query_mask: np.ndarray  # (T, Q)

    def __len__(self) -> int:
        return self.support_labels.shape[0]

    @classmethod
    def from_items(cls, items: Sequence[TaskBatchItem]) -> "TaskBatch":
        if not items:
            raise ValueError("empty task batch")
        s_width = max(max(i.support_labels.size for i in items), 1)
        q_width = max(max(i.query_labels.size for i in items), 1)
        support_labels = _pad_rows([i.support_labels for i in items], s_width)
        query_labels = _pad_rows([i.query_labels for i in items], q_width)
        s_mask = np.zeros_like(support_labels)
        q_mask = np.zeros_like(query_labels)
        for t, item in enumerate(items):
            s_mask[t, : item.support_labels.size] = 1.0
            q_mask[t, : item.query_labels.size] = 1.0
        return cls(
            support_user=_pad_rows([i.support_user for i in items], s_width),
            support_item=_pad_rows([i.support_item for i in items], s_width),
            support_labels=support_labels,
            support_mask=s_mask,
            query_user=_pad_rows([i.query_user for i in items], q_width),
            query_item=_pad_rows([i.query_item for i in items], q_width),
            query_labels=query_labels,
            query_mask=q_mask,
        )


def dense_meta_step(maml: MAML, items: Sequence[TaskBatchItem]) -> float:
    """One FOMAML outer step over a dense padded meta-batch."""
    batch = TaskBatch.from_items(items)
    fast = maml._adapt_stacked(
        batch.support_user,
        batch.support_item,
        batch.support_labels,
        batch.support_mask,
        len(batch),
    )
    losses, grads = maml.model.loss_and_grads(
        fast, batch.query_user, batch.query_item, batch.query_labels, mask=batch.query_mask
    )
    meta_grads = mean_task_grads(grads)
    clip_grad_norm(meta_grads, maml.config.grad_clip)
    maml._optimizer.step(meta_grads)
    return float(np.mean(losses))


def dense_fit(maml: MAML, items: Sequence[TaskBatchItem], epochs: int) -> list[float]:
    """Meta-train on shuffled dense meta-batches (the pre-corpus schedule)."""
    history = []
    order = np.arange(len(items))
    bs = maml.config.meta_batch_size
    for _ in range(epochs):
        maml._rng.shuffle(order)
        losses = [
            dense_meta_step(maml, [items[i] for i in order[start : start + bs]])
            for start in range(0, len(order), bs)
        ]
        history.append(float(np.mean(losses)))
    return history


def dense_adapt_many(
    maml: MAML, items: Sequence[TaskBatchItem], steps: int, max_chunk: int = 64
) -> list[Params]:
    """Adapt dense tasks, one stacked inner loop per same-support-width chunk."""
    widths = np.array([item.support_labels.size for item in items])
    results: list[Params | None] = [None] * len(items)
    for chunk in uniform_width_chunks(widths, np.argsort(widths, kind="stable"), max_chunk):
        batch = TaskBatch.from_items([items[i] for i in chunk])
        fast = maml._adapt_stacked(
            batch.support_user,
            batch.support_item,
            batch.support_labels,
            batch.support_mask,
            len(batch),
            steps=steps,
        )
        parts = unstack_params(
            fast, len(batch), stacked_keys=maml._adaptable_keys & set(fast), copy=True
        )
        for i, part in zip(chunk, parts):
            results[i] = part
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# The unblocked full forward
# ----------------------------------------------------------------------
def predict(
    model: PreferenceModel,
    params: Params,
    user_content: np.ndarray,
    item_content: np.ndarray,
) -> np.ndarray:
    """Interaction probabilities of aligned (user, item) content rows.

    The training forward over every row at once, as serving scored before
    the pool was walked in blocks.  A ``(1, C)`` user row broadcasts across
    the item rows.
    """
    preds, _ = model.forward(params, user_content, item_content)
    return preds


# ----------------------------------------------------------------------
# The scalar Dual-CVAE loss and the sequential loop
# ----------------------------------------------------------------------
def _merge(total: Grads, prefix: str, grads: Grads) -> None:
    add_grads(total, {f"{prefix}.{k}": v for k, v in grads.items()})


def cvae_loss_and_grads(
    model: DualCVAE,
    ratings_source: np.ndarray,
    ratings_target: np.ndarray,
    content_source: np.ndarray,
    content_target: np.ndarray,
    rng: int | np.random.Generator | None = None,
) -> tuple[dict[str, float], Grads]:
    """All five loss terms of Eq. (8) for one model and their gradients.

    The scalar form of :meth:`FusedDualCVAE.loss_and_grads
    <repro.cvae.model.FusedDualCVAE.loss_and_grads>`: the two branches run
    one after another, each of the four reconstruction paths is its own
    decoder pass, and the noise is drawn from ``rng`` side s first.
    Returns ``(losses, grads)`` where ``losses`` holds each named term plus
    ``"total"`` and ``grads`` matches ``model.params``.
    """
    gen = ensure_rng(rng)
    cfg = model.config
    grads: Grads = {}

    ratings_source, content_source = model._cast(ratings_source, content_source)
    ratings_target, content_target = model._cast(ratings_target, content_target)
    sides = {
        "s": (ratings_source, content_source),
        "t": (ratings_target, content_target),
    }
    state: dict[str, dict[str, Any]] = {}

    # ---- forward: encoders, reparameterization, content encoders ----
    for side, (ratings, content) in sides.items():
        br = model._branches[side]
        mu, log_var_raw, enc_cache = model.encode(side, ratings, content)
        log_var = np.clip(log_var_raw, -8.0, 8.0)
        clip_mask = np.abs(log_var_raw) < 8.0
        eps = gen.normal(size=mu.shape).astype(mu.dtype, copy=False)
        sigma = np.exp(0.5 * log_var)
        z = mu + sigma * eps
        zx, zx_cache = br.content_encoder.forward(
            model._sub(f"enc_x_{side}"), content
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
            br = model._branches[dec_side]
            x_in = np.concatenate(
                [state[z_side]["z"], state[dec_side]["content"]], axis=1
            )
            out, cache = br.decoder.forward(model._sub(f"dec_{dec_side}"), x_in)
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
            br = model._branches[side]
            p, cache = br.critic.forward(
                model._sub(f"crit_{side}"), recon[(side, side)]["out"]
            )
            proj[side] = p
            crit_caches[side] = cache
        me, d_ps, d_pt = info_nce(
            proj["s"], proj["t"], temperature=cfg.infonce_temperature
        )
        losses["me"] = me
        for side, d_p in (("s", d_ps), ("t", d_pt)):
            br = model._branches[side]
            d_out, crit_grads = br.critic.backward(
                model._sub(f"crit_{side}"), crit_caches[side], cfg.beta2 * d_p
            )
            _merge(grads, f"crit_{side}", crit_grads)
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
        br = model._branches[dec_side]
        d_in, dec_grads = br.decoder.backward(
            model._sub(f"dec_{dec_side}"), r["cache"], r["d_out"]
        )
        _merge(grads, f"dec_{dec_side}", dec_grads)
        state[z_side]["d_z"] += d_in[:, :latent]

    # ---- backward: reparameterization → encoders; content encoders ----
    for side in ("s", "t"):
        st = state[side]
        br = model._branches[side]
        # z = mu + exp(0.5*log_var) * eps
        d_mu = st["d_mu"] + st["d_z"]
        d_log_var = st["d_log_var"] + st["d_z"] * 0.5 * st["sigma"] * st["eps"]
        # The clip on log_var zeroes the gradient where it saturated.
        d_log_var = d_log_var * st["clip_mask"]
        d_enc_out = np.concatenate([d_mu, d_log_var], axis=1)
        _, enc_grads = br.encoder.backward(
            model._sub(f"enc_{side}"), st["enc_cache"], d_enc_out
        )
        _merge(grads, f"enc_{side}", enc_grads)

        _, zx_grads = br.content_encoder.backward(
            model._sub(f"enc_x_{side}"), st["zx_cache"], st["d_zx"]
        )
        _merge(grads, f"enc_x_{side}", zx_grads)

    # Ensure every parameter has a gradient entry (zero where unused).
    for name, value in model.params.items():
        if name not in grads:
            grads[name] = np.zeros_like(value)
    return losses, grads


def cvae_loss_only(
    model: DualCVAE,
    ratings_source: np.ndarray,
    ratings_target: np.ndarray,
    content_source: np.ndarray,
    content_target: np.ndarray,
    rng: int | np.random.Generator | None = None,
) -> dict[str, float]:
    """All loss terms of Eq. (8) without any backward pass.

    It consumes the reparameterization noise in the same order as
    :func:`cvae_loss_and_grads`, so given the same ``rng`` it reproduces
    that function's loss values bit for bit.
    """
    gen = ensure_rng(rng)
    cfg = model.config
    ratings_source, content_source = model._cast(ratings_source, content_source)
    ratings_target, content_target = model._cast(ratings_target, content_target)
    sides = {
        "s": (ratings_source, content_source),
        "t": (ratings_target, content_target),
    }
    state: dict[str, dict[str, Any]] = {}
    for side, (ratings, content) in sides.items():
        br = model._branches[side]
        mu, log_var_raw, _ = model.encode(side, ratings, content)
        log_var = np.clip(log_var_raw, -8.0, 8.0)
        eps = gen.normal(size=mu.shape).astype(mu.dtype, copy=False)
        z = mu + np.exp(0.5 * log_var) * eps
        zx = br.content_encoder(model._sub(f"enc_x_{side}"), content)
        state[side] = {
            "ratings": ratings, "content": content,
            "mu": mu, "log_var": log_var, "z": z, "zx": zx,
        }

    recon = {
        (dec_side, z_side): model.decode(
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
            side: model._branches[side].critic(
                model._sub(f"crit_{side}"), recon[(side, side)]
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


def batch_rows(trainer: DualCVAETrainer, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The trainer's ``(ratings_s, ratings_t, content_s, content_t)`` rows."""
    return tuple(arr[rows] for arr in trainer._data)


def evaluate_sequential(trainer: DualCVAETrainer) -> float:
    """Total loss on the trainer's held-out shared users (loss-only forward,
    noise from a fresh ``default_rng(0)``)."""
    if trainer._eval_rows.size == 0:
        return float("nan")
    losses = cvae_loss_only(
        trainer.model, *batch_rows(trainer, trainer._eval_rows),
        rng=np.random.default_rng(0),
    )
    return losses["total"]


def train_sequential(trainer: DualCVAETrainer) -> TrainingHistory:
    """Train one Dual-CVAE alone for the configured epochs.

    A Python loop over epochs and minibatches, one whole-model clip and a
    per-model :class:`~repro.nn.optim.Adam`; the trainer's batch and noise
    rngs are consumed in the order the fused trainer consumes them.
    """
    cfg = trainer.trainer_config
    optimizer = Adam(trainer.model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        n_batches = 0
        for batch_idx in iter_batches(
            trainer._train_rows.size, cfg.batch_size, rng=trainer._batch_rng
        ):
            rows = trainer._train_rows[batch_idx]
            losses, grads = cvae_loss_and_grads(
                trainer.model, *batch_rows(trainer, rows), rng=trainer._noise_rng
            )
            clip_grad_norm(grads, cfg.grad_clip)
            optimizer.step(grads)
            epoch_loss += losses["total"]
            n_batches += 1
            trainer.history.record_terms(losses)
        trainer.history.train_loss.append(epoch_loss / max(n_batches, 1))
        if (epoch + 1) % cfg.eval_every == 0:
            trainer.history.eval_loss.append(evaluate_sequential(trainer))
    return trainer.history


def fit_generate_sequential(augmenter: DiversePreferenceAugmenter) -> AugmentedRatings:
    """Train the augmenter's k Dual-CVAEs one after another, then generate."""
    augmenter.trainers = augmenter._build_trainers()
    for trainer in augmenter.trainers:
        train_sequential(trainer)
    return augmenter.generate()


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable sigmoid as a two-sided select of two divisions."""
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


# ----------------------------------------------------------------------
# The scalar loss kernels
# ----------------------------------------------------------------------
def binary_cross_entropy(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy over every element, as one Python float.

    The scalar form of :func:`repro.nn.losses.binary_cross_entropy`: one
    mean over the whole array, whatever its shape.  ``pred`` holds
    probabilities, ``target`` labels in ``[0, 1]``, soft ones included, as
    MetaDPA's augmented ratings are.
    """
    pred = np.clip(pred, _EPS, 1.0 - _EPS)
    per_elem = -(target * np.log(pred) + (1.0 - target) * np.log(1.0 - pred))
    grad = (pred - target) / (pred * (1.0 - pred))
    n = pred.size
    return float(per_elem.sum() / n), grad / n


def gaussian_kl_to_code(
    mu: np.ndarray, log_var: np.ndarray, code: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Batch-mean KL of ``N(mu, exp(log_var))`` from ``N(code, I)``.

    The one-model form of
    :func:`repro.nn.losses.gaussian_kl_to_code_stacked`, on ``(batch,
    latent)`` arrays.

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
    """Symmetric InfoNCE between two aligned ``(batch, dim)`` batches.

    The one-model form of :func:`repro.nn.losses.info_nce_stacked`, without
    row masks: every row is real, and a single pair gives loss 0.

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


# ----------------------------------------------------------------------
# Per-model views of stacked parameters
# ----------------------------------------------------------------------
def unstack_params(
    params: Params,
    n: int,
    stacked_keys: Iterable[str] | None = None,
    copy: bool = False,
) -> list[Params]:
    """Split a stacked dict back into ``n`` per-task dicts.

    Keys in ``stacked_keys`` (default: all) are indexed along their leading
    task axis — by default the returned arrays are *views* into the stacked
    storage; pass ``copy=True`` when the per-task dicts outlive the stacked
    block (e.g. a serving cache), so one surviving task does not pin the
    whole ``[T, ...]`` array alive.  The remaining (shared, unstacked) keys
    are passed through by reference either way, so tasks that share a
    global weight keep sharing it.
    """
    keys = set(params) if stacked_keys is None else set(stacked_keys)
    unknown = keys - set(params)
    if unknown:
        raise ValueError(f"stacked_keys not present in params: {sorted(unknown)}")
    for name in keys:
        if params[name].shape[:1] != (n,):
            raise ValueError(
                f"parameter {name!r} has leading dim {params[name].shape[:1]}, "
                f"expected ({n},)"
            )

    def slice_of(value: np.ndarray, t: int) -> np.ndarray:
        return value[t].copy() if copy else value[t]

    return [
        {
            name: (slice_of(value, t) if name in keys else value)
            for name, value in params.items()
        }
        for t in range(n)
    ]


def clip_grad_norm_grouped(
    grads: Grads, max_norm: float, group_index: np.ndarray
) -> np.ndarray:
    """Per-group L2 clipping for gradients stacked along a leading axis.

    ``group_index[d]`` names the group slice ``d`` belongs to; each group's
    norm is taken over *all* of its slices across every gradient array (the
    fused Dual-CVAE folds a domain's source and target branches into one
    group, reproducing one whole-model clip per domain).  Clipping happens
    in place per group; returns the per-group pre-clip norms.
    :meth:`StackedAdam.clipped_step` is the same clip over a flat buffer.
    """
    require_finite("max_norm", max_norm)
    group_index = np.asarray(group_index, dtype=np.int64)
    n_groups = int(group_index.max()) + 1
    sq_per_slice = np.zeros(group_index.shape[0], dtype=np.float64)
    for grad in grads.values():
        # einsum contracts without materializing grad*grad; accumulate
        # across arrays in float64 like the scalar clip_grad_norm.
        subs = "i" + "abcdefg"[: grad.ndim - 1]
        sq = np.einsum(f"{subs},{subs}->i", grad, grad)
        sq_per_slice += sq.astype(np.float64)
    sq_per_group = np.zeros(n_groups, dtype=np.float64)
    np.add.at(sq_per_group, group_index, sq_per_slice)
    norms = np.sqrt(sq_per_group)
    scales = np.where(norms > max_norm, max_norm / (norms + 1e-12), 1.0)
    if np.any(scales < 1.0):
        per_slice = scales[group_index]
        for name, grad in grads.items():
            grad_scales = per_slice.reshape(-1, *([1] * (grad.ndim - 1)))
            grads[name] = grad * grad_scales.astype(grad.dtype)
    return norms


# ----------------------------------------------------------------------
# Per-trial ranking metrics
# ----------------------------------------------------------------------
def rank_of_positive(scores: np.ndarray) -> float:
    """1-based rank of the positive (index 0), mid-rank for ties.

    One trial at a time, the definitions
    :meth:`MetricSet.from_score_lists <repro.eval.metrics.MetricSet.from_score_lists>`
    vectorizes over a trial list.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a non-empty 1-D array")
    pos = scores[0]
    higher = float(np.sum(scores[1:] > pos))
    ties = float(np.sum(scores[1:] == pos))
    return 1.0 + higher + 0.5 * ties


def hit_ratio(scores: np.ndarray, k: int) -> float:
    """1.0 if the positive ranks within the top-``k``, else 0.0."""
    _check_k(k)
    return 1.0 if rank_of_positive(scores) <= k else 0.0


def mrr(scores: np.ndarray, k: int) -> float:
    """Reciprocal rank if the positive is within top-``k``, else 0."""
    _check_k(k)
    rank = rank_of_positive(scores)
    return 1.0 / rank if rank <= k else 0.0


def ndcg(scores: np.ndarray, k: int) -> float:
    """NDCG@k for a single relevant item: ``1 / log2(rank + 1)`` inside top-k.

    With exactly one relevant item the ideal DCG is 1, so no normalization
    constant is needed.
    """
    _check_k(k)
    rank = rank_of_positive(scores)
    return float(1.0 / np.log2(rank + 1.0)) if rank <= k else 0.0


def auc(scores: np.ndarray) -> float:
    """Fraction of negatives ranked below the positive (ties count half)."""
    scores = np.asarray(scores, dtype=float)
    n_neg = scores.size - 1
    if n_neg == 0:
        return 0.5
    pos = scores[0]
    wins = float(np.sum(scores[1:] < pos))
    ties = float(np.sum(scores[1:] == pos))
    return (wins + 0.5 * ties) / n_neg
