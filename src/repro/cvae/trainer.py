"""Training loops for Dual-CVAEs on shared-user domain pairs.

- :class:`DualCVAETrainer` holds one domain pair's training state: its
  model, train/eval split of shared users, rngs and loss history.
- :class:`MultiDomainCVAETrainer` trains any number of them.  It stacks
  their models along a leading domain axis
  (:class:`~repro.cvae.model.FusedDualCVAE`) and drives each through its
  *own* batch schedule in one ``(2k, batch, ...)`` numpy pass per step,
  with per-domain Adam state and per-domain gradient clipping on the same
  stacked axis.  Each trainer's rngs, split, history and final parameters
  come out as if it had been trained alone, to float32 rounding.

This is the one training implementation: :meth:`DualCVAETrainer.train` is a
one-domain :class:`MultiDomainCVAETrainer`.  The per-domain sequential loop
the fused trainer is checked against lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cvae.model import CVAEConfig, DualCVAE, FusedDualCVAE
from repro.data.domain import DomainPair
from repro.nn.optim import StackedAdam, require_finite
from repro.obs import metrics as obs_metrics
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization knobs for Dual-CVAE training.

    ``eval_every`` controls how often the held-out loss is computed: every
    epoch by default (full per-epoch traces), every n-th epoch otherwise —
    evaluation is a pure monitoring pass, so sparse traces trade visibility
    for speed without touching the training trajectory.
    """

    epochs: int = 200
    batch_size: int = 32
    lr: float = 3e-3
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    eval_fraction: float = 0.2
    eval_every: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        require_finite("lr", self.lr)
        require_finite("weight_decay", self.weight_decay, positive=False)
        require_finite("grad_clip", self.grad_clip)
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in [0, 1)")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")


@dataclass
class TrainingHistory:
    """Per-epoch loss traces recorded during training."""

    train_loss: list[float] = field(default_factory=list)
    eval_loss: list[float] = field(default_factory=list)
    terms: dict[str, list[float]] = field(default_factory=dict)

    def record_terms(self, losses: dict[str, float]) -> None:
        for name, value in losses.items():
            self.terms.setdefault(name, []).append(value)


class DualCVAETrainer:
    """Trains one :class:`DualCVAE` on a :class:`DomainPair`.

    The paper trains the k Dual-CVAEs independently (one per source domain);
    callers construct k trainers and hand them to
    :class:`MultiDomainCVAETrainer`, which trains them jointly while keeping
    each one's trajectory its own.  Ratings are split 80/20 into a
    train/eval partition of shared *users* for monitoring, mirroring the
    paper's domain-adaptation phase split.
    """

    def __init__(
        self,
        pair: DomainPair,
        cvae_config: CVAEConfig | None = None,
        trainer_config: TrainerConfig | None = None,
        seed: int = 0,
    ):
        self.pair = pair
        self.trainer_config = trainer_config or TrainerConfig()
        init_rng, self._noise_rng, self._batch_rng = spawn_rngs(seed, 3)
        if cvae_config is None:
            cvae_config = CVAEConfig(
                n_items_source=pair.ratings_source.shape[1],
                n_items_target=pair.ratings_target.shape[1],
                content_dim=pair.content_source.shape[1],
            )
        self._check_dims(cvae_config)
        self.model = DualCVAE(cvae_config, rng=init_rng)
        self.history = TrainingHistory()
        # One float32 copy up front keeps every batch slice in the model
        # dtype without a per-step astype.
        self._data = tuple(
            np.asarray(arr, dtype=self.model.dtype)
            for arr in (
                pair.ratings_source,
                pair.ratings_target,
                pair.content_source,
                pair.content_target,
            )
        )

        n = pair.n_shared_users
        order = ensure_rng(seed).permutation(n)
        n_eval = int(round(self.trainer_config.eval_fraction * n))
        self._eval_rows = order[:n_eval]
        self._train_rows = order[n_eval:]
        if self._train_rows.size == 0:
            raise ValueError("no shared users left for training")

    def _check_dims(self, config: CVAEConfig) -> None:
        if config.n_items_source != self.pair.ratings_source.shape[1]:
            raise ValueError("cvae_config.n_items_source does not match the pair")
        if config.n_items_target != self.pair.ratings_target.shape[1]:
            raise ValueError("cvae_config.n_items_target does not match the pair")
        if config.content_dim != self.pair.content_source.shape[1]:
            raise ValueError("cvae_config.content_dim does not match the pair")

    def train(self) -> TrainingHistory:
        """Run the configured number of epochs as a one-domain
        :class:`MultiDomainCVAETrainer`; returns the loss history."""
        return MultiDomainCVAETrainer([self]).train()[0]


class MultiDomainCVAETrainer:
    """Trains k scalar trainers' models jointly in one stacked pass per step.

    Every per-domain ingredient — model initialization, train/eval row
    split, minibatch shuffling, reparameterization noise, Adam moments and
    step counts, gradient clipping — comes from (or matches) the scalar
    trainers, so the fused run reproduces k independent sequential runs up
    to float32 summation order.  Domains whose epochs have different batch
    counts simply sit out the tail steps (their Adam state does not
    advance), and ragged final batches ride zero-padded rows behind masks.
    """

    def __init__(self, trainers: list[DualCVAETrainer]):
        if not trainers:
            raise ValueError("MultiDomainCVAETrainer needs at least one trainer")
        ref = trainers[0].trainer_config
        if any(t.trainer_config != ref for t in trainers):
            raise ValueError("all trainers must share one TrainerConfig")
        self.trainers = trainers
        self.trainer_config = ref
        self.fused = FusedDualCVAE([t.model for t in trainers])
        self._build_stores()

    def _build_stores(self) -> None:
        """Zero-padded per-branch data with a sentinel all-zero row.

        Row index ``n_max`` of every slice is all zeros; padded row indices
        point there, so batch assembly is a single fancy-index gather.
        """
        fused = self.fused
        k = fused.k
        dtype = fused.dtype
        n_max = max(t.pair.n_shared_users for t in self.trainers)
        self._sentinel = n_max
        self._ratings = np.zeros(
            (fused.n_stack, n_max + 1, fused.n_items_max), dtype=dtype
        )
        self._content = np.zeros(
            (fused.n_stack, n_max + 1, fused.content_dim), dtype=dtype
        )
        for d, trainer in enumerate(self.trainers):
            n = trainer.pair.n_shared_users
            rs, rt, xs, xt = trainer._data
            self._ratings[d, :n, : rs.shape[1]] = rs
            self._ratings[k + d, :n, : rt.shape[1]] = rt
            self._content[d, :n] = xs
            self._content[k + d, :n] = xt

    def _assemble(
        self, rows_per_domain: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """Gather one stacked batch from per-domain row index arrays."""
        fused = self.fused
        k = fused.k
        sizes = np.array([rows.size for rows in rows_per_domain], dtype=np.int64)
        batch = int(sizes.max())
        rows = np.full((k, batch), self._sentinel, dtype=np.int64)
        for d, r in enumerate(rows_per_domain):
            rows[d, : r.size] = r
        rows2 = np.concatenate([rows, rows], axis=0)
        gather = np.arange(fused.n_stack)[:, None]
        ratings = self._ratings[gather, rows2]
        content = self._content[gather, rows2]
        if np.all(sizes == batch):
            row_mask = None
        else:
            mask_k = (np.arange(batch)[None, :] < sizes[:, None]).astype(fused.dtype)
            row_mask = np.concatenate([mask_k, mask_k], axis=0)
        row_counts = np.concatenate([sizes, sizes])
        return ratings, content, row_mask, row_counts, sizes

    def _draw_eps(
        self, sizes: np.ndarray, rngs: list[np.random.Generator], batch: int
    ) -> np.ndarray:
        """Per-domain noise in the scalar draw order (side s, then side t)."""
        fused = self.fused
        k, latent = fused.k, fused.latent_dim
        eps = np.zeros((fused.n_stack, batch, latent), dtype=fused.dtype)
        for d in range(k):
            b = int(sizes[d])
            if b == 0:
                continue
            gen = rngs[d]
            eps[d, :b] = gen.normal(size=(b, latent)).astype(fused.dtype, copy=False)
            eps[k + d, :b] = gen.normal(size=(b, latent)).astype(
                fused.dtype, copy=False
            )
        return eps

    def train(self) -> list[TrainingHistory]:
        """Train all domains; returns the scalar trainers' histories."""
        cfg = self.trainer_config
        fused = self.fused
        k = fused.k
        optimizer = StackedAdam(
            fused.layout,
            fused.flat_params,
            lr=cfg.lr,
            weight_decay=cfg.weight_decay,
        )
        noise_rngs = [t._noise_rng for t in self.trainers]
        n_train = np.array([t._train_rows.size for t in self.trainers])
        n_steps = int(np.ceil(n_train.max() / cfg.batch_size))
        width = n_steps * cfg.batch_size
        gather = np.arange(fused.n_stack)[:, None]
        reg = obs_metrics()
        for epoch in range(cfg.epochs):
            epoch_loss = np.zeros(k)
            n_batches = np.zeros(k, dtype=np.int64)
            with reg.span("cvae.epoch", size=int(n_train.sum())):
                # One gather per epoch: each domain's rows in its own
                # shuffled order (consuming the batch rng exactly like
                # iter_batches), sentinel-padded to a common width so every
                # step is an aligned zero-copy slice across all domains.
                with reg.span("cvae.gather"):
                    rows = np.full((k, width), self._sentinel, dtype=np.int64)
                    for d, trainer in enumerate(self.trainers):
                        order = np.arange(n_train[d])
                        trainer._batch_rng.shuffle(order)
                        rows[d, : n_train[d]] = trainer._train_rows[order]
                    rows2 = np.concatenate([rows, rows], axis=0)
                    epoch_ratings = self._ratings[gather, rows2]
                    epoch_content = self._content[gather, rows2]

                for step in range(n_steps):
                    with reg.span("cvae.step"):
                        start = step * cfg.batch_size
                        sizes = np.clip(n_train - start, 0, cfg.batch_size)
                        batch = int(sizes.max())
                        ratings = epoch_ratings[:, start : start + batch]
                        content = epoch_content[:, start : start + batch]
                        if np.all(sizes == batch):
                            row_mask = None
                        else:
                            mask_k = (
                                np.arange(batch)[None, :] < sizes[:, None]
                            ).astype(fused.dtype)
                            row_mask = np.concatenate([mask_k, mask_k], axis=0)
                        row_counts = np.concatenate([sizes, sizes])
                        eps = self._draw_eps(sizes, noise_rngs, batch)
                        losses, grads = fused.loss_and_grads(
                            ratings,
                            content,
                            eps,
                            row_mask=row_mask,
                            row_counts=row_counts,
                        )
                        active = sizes > 0
                        optimizer.clipped_step(
                            grads,
                            cfg.grad_clip,
                            fused.group_index,
                            active=None
                            if active.all()
                            else np.concatenate([active, active]),
                        )
                    for d in np.flatnonzero(active):
                        self.trainers[d].history.record_terms(
                            {name: float(value[d]) for name, value in losses.items()}
                        )
                        epoch_loss[d] += float(losses["total"][d])
                        n_batches[d] += 1
            evals = (
                self.evaluate()
                if (epoch + 1) % cfg.eval_every == 0
                else None
            )
            for d, trainer in enumerate(self.trainers):
                trainer.history.train_loss.append(
                    epoch_loss[d] / max(int(n_batches[d]), 1)
                )
                if evals is not None:
                    trainer.history.eval_loss.append(evals[d])
        fused.write_back()
        return [t.history for t in self.trainers]

    def evaluate(self) -> list[float]:
        """Held-out loss per domain: the loss-only forward on each domain's
        eval rows, with noise from a fresh ``default_rng(0)`` per domain."""
        rows_per_domain = [t._eval_rows for t in self.trainers]
        if all(rows.size == 0 for rows in rows_per_domain):
            return [float("nan")] * len(self.trainers)
        ratings, content, row_mask, row_counts, sizes = self._assemble(
            rows_per_domain
        )
        rngs = [np.random.default_rng(0) for _ in self.trainers]
        eps = self._draw_eps(sizes, rngs, ratings.shape[1])
        losses, _ = self.fused.forward(
            ratings, content, eps, row_mask=row_mask, row_counts=row_counts
        )
        return [
            float(losses["total"][d]) if sizes[d] else float("nan")
            for d in range(len(self.trainers))
        ]
