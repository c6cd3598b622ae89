"""MetaCF — Fast adaptation for cold-start CF with meta-learning (ICDM 2020).

The published method meta-learns a CF model with dynamic subgraph sampling
and extends sparse histories with *potential interactions*.  This
reproduction keeps its load-bearing ideas on our substrate:

- an **inductive user representation**: the mean embedding of the items in
  the user's support set, so brand-new users need no trained user embedding
  (this is what makes MetaCF strong on C-U);
- **MAML** over user tasks on an item-embedding + MLP scoring model;
- **potential interactions**: each task's support positives are extended
  with the items most co-occurring with them in the warm block, compensating
  for very short histories.

Dropped: the GNN subgraph encoder (replaced by the mean-embedding user
representation, its one-layer equivalent at our scale).
"""

from __future__ import annotations

import numpy as np

from repro.core.interface import FitContext, Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import PreferenceTask
from repro.meta.corpus import TaskCorpusBuilder
from repro.nn.layers import sigmoid
from repro.nn.losses import binary_cross_entropy
from repro.nn.module import Grads, Params, mlp
from repro.nn.optim import Adam, add_grads, clip_grad_norm
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.topk import top_k_order


class MetaCF(Recommender):
    """Meta-learned CF with inductive user representations."""

    name = "MetaCF"

    def __init__(
        self,
        embed_dim: int = 24,
        hidden_dims: tuple[int, ...] = (32,),
        meta_epochs: int = 20,
        inner_lr: float = 0.05,
        inner_steps: int = 2,
        outer_lr: float = 1e-3,
        meta_batch_size: int = 16,
        n_potential: int = 2,
        finetune_steps: int = 5,
        seed: int = 0,
    ):
        self.embed_dim = embed_dim
        self.hidden_dims = hidden_dims
        self.meta_epochs = meta_epochs
        self.inner_lr = inner_lr
        self.inner_steps = inner_steps
        self.outer_lr = outer_lr
        self.meta_batch_size = meta_batch_size
        self.n_potential = n_potential
        self.finetune_steps = finetune_steps
        self.seed = seed
        self.params: Params | None = None
        self._mlp = None
        self._ctx: FitContext | None = None
        self._cooc: np.ndarray | None = None
        self.meta_loss_history: list[float] = []

    # ------------------------------------------------------------------
    def _build(self, n_items: int, rng: np.random.Generator) -> None:
        e = self.embed_dim
        self._mlp = mlp([2 * e, *self.hidden_dims, 1], activation="relu",
                        out_activation="sigmoid")
        params: Params = {"E": rng.normal(0.0, 0.05, size=(n_items, e))}
        for name, value in self._mlp.init_params(rng).items():
            params[f"mlp.{name}"] = value
        self.params = params

    @staticmethod
    def _sub(params: Params, prefix: str) -> Params:
        dot = prefix + "."
        return {k[len(dot):]: v for k, v in params.items() if k.startswith(dot)}

    def _loss_grads(
        self,
        params: Params,
        profile_items: np.ndarray,
        items: np.ndarray,
        labels: np.ndarray,
    ) -> tuple[float, Grads]:
        """BCE loss for one task; user = mean embedding of ``profile_items``."""
        emb = params["E"]
        user = emb[profile_items].mean(axis=0)
        ei = emb[items]
        joint = np.concatenate(
            [np.broadcast_to(user, (items.size, user.size)), ei], axis=1
        )
        assert self._mlp is not None
        preds, c_mlp = self._mlp.forward(self._sub(params, "mlp"), joint)
        loss, d_pred = binary_cross_entropy(preds[:, 0], labels)
        d_joint, g_mlp = self._mlp.backward(
            self._sub(params, "mlp"), c_mlp, d_pred[:, None]
        )
        e = self.embed_dim
        d_user = d_joint[:, :e].sum(axis=0)
        d_ei = d_joint[:, e:]
        dE = np.zeros_like(emb)
        np.add.at(dE, items, d_ei)
        np.add.at(
            dE,
            profile_items,
            np.broadcast_to(
                d_user / profile_items.size, (profile_items.size, d_user.size)
            ),
        )
        grads: Grads = {"E": dE}
        for k, v in g_mlp.items():
            grads[f"mlp.{k}"] = v
        return loss, grads

    # ------------------------------------------------------------------
    def _extend_profile(self, positives: np.ndarray) -> np.ndarray:
        """Add potential interactions: top co-occurring items in the warm block."""
        if self._cooc is None or self.n_potential == 0 or positives.size == 0:
            return positives
        scores = self._cooc[positives].sum(axis=0)
        scores[positives] = -np.inf
        # Descending *stable* order: co-occurrence counts tie constantly,
        # and ``np.argsort(scores)[::-1]`` reverses equal-score runs into
        # descending-index order — which made the selected potential
        # neighbours depend on how the unstable tail happened to land.
        # ``top_k_order`` ranks ties by ascending index, deterministically.
        extra = top_k_order(scores, self.n_potential)
        extra = extra[np.isfinite(scores[extra]) & (scores[extra] > 0)]
        return np.concatenate([positives, extra]).astype(int)

    def _profile_of(
        self, support_items: np.ndarray, support_labels: np.ndarray
    ) -> np.ndarray:
        positives = support_items[support_labels > 0.5]
        if positives.size == 0:
            positives = support_items[:1]
        return self._extend_profile(positives.astype(int))

    def _inner_adapt(
        self,
        profile: np.ndarray,
        items: np.ndarray,
        labels: np.ndarray,
        steps: int,
        params: Params | None = None,
    ) -> Params:
        """Fast-weight gradient steps on one task's support set.

        The single inner-loop implementation shared by meta-training and
        meta-testing fine-tuning (mirroring ``MAML.adapt``).
        """
        fast = dict(params if params is not None else self.params)
        for _ in range(steps):
            _, grads = self._loss_grads(fast, profile, items, labels)
            for name, grad in grads.items():
                fast[name] = fast[name] - self.inner_lr * grad
        return fast

    def fit(self, ctx: FitContext) -> "MetaCF":
        self._ctx = ctx
        domain = ctx.domain
        init_rng, loop_rng = spawn_rngs(self.seed, 2)
        self._build(domain.n_items, init_rng)
        visible = ctx.visible_ratings
        self._cooc = visible.T @ visible
        np.fill_diagonal(self._cooc, 0.0)

        # Tasks live in a packed corpus (index pools + float32 labels, one
        # copy total); the per-task math reads zero-copy views out of it.
        # MetaCF never pads, so epochs iterate in pure shuffled order.
        builder = TaskCorpusBuilder(None)
        for task in ctx.warm_tasks:
            builder.add_task(task)
        corpus = builder.build()
        assert self.params is not None
        optimizer = Adam(self.params, lr=self.outer_lr)
        for _ in range(self.meta_epochs):
            epoch_loss = 0.0
            n_batches = 0
            for view_ids in corpus.epoch_batches(
                self.meta_batch_size, rng=loop_rng, bucketed=False
            ):
                meta_grads: Grads = {}
                batch_loss = 0.0
                for view in view_ids:
                    _, s_items, s_labels, q_items, q_labels = corpus.view_arrays(
                        int(view)
                    )
                    profile = self._profile_of(s_items, s_labels)
                    fast = self._inner_adapt(
                        profile, s_items, s_labels, self.inner_steps
                    )
                    loss, grads = self._loss_grads(fast, profile, q_items, q_labels)
                    batch_loss += float(loss)
                    add_grads(meta_grads, grads, scale=1.0 / len(view_ids))
                clip_grad_norm(meta_grads, 5.0)
                optimizer.step(meta_grads)
                epoch_loss += batch_loss / len(view_ids)
                n_batches += 1
            self.meta_loss_history.append(epoch_loss / max(n_batches, 1))
        self.attach_serving(ctx)
        return self

    # ------------------------------------------------------------------
    def adapt_user(self, task: PreferenceTask | None):
        """Fine-tuned ``(profile, params)`` pair for one user's support set."""
        if self.params is None or self._mlp is None:
            raise RuntimeError("fit() must be called before adapt_user()")
        if task is None or task.n_support == 0:
            return None
        profile = self._profile_of(task.support_items, task.support_labels)
        params = self._inner_adapt(
            profile, task.support_items, task.support_labels, self.finetune_steps
        )
        return profile, params

    def score_with_state(
        self,
        state,
        instance: EvalInstance,
        task: PreferenceTask | None = None,
    ) -> np.ndarray:
        if self.params is None or self._mlp is None:
            raise RuntimeError("fit() must be called before scoring")
        if state is None:
            # No history at all: fall back to the global item prior.
            profile, params = np.arange(self.params["E"].shape[0]), self.params
        else:
            profile, params = state
        candidates = instance.candidates
        emb = params["E"]
        user = emb[profile].mean(axis=0)
        joint = np.concatenate(
            [np.broadcast_to(user, (candidates.size, user.size)), emb[candidates]],
            axis=1,
        )
        preds = self._mlp(self._sub(params, "mlp"), joint)
        return preds[:, 0]

    def score(
        self, task: PreferenceTask | None, instance: EvalInstance
    ) -> np.ndarray:
        return self.score_with_state(self.adapt_user(task), instance)

    # ------------------------------------------------------------------
    def state_dict(self) -> Params:
        if self.params is None or self._cooc is None:
            raise RuntimeError("fit() must be called before state_dict()")
        return {**self.params, "cooc": self._cooc}

    def load_state_dict(self, state: Params) -> None:
        state = dict(state)
        self._cooc = np.asarray(state.pop("cooc"))
        n_items = state["E"].shape[0]
        self._build(n_items, ensure_rng(self.seed))
        self.params = {name: np.asarray(value) for name, value in state.items()}
