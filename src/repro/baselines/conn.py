"""CoNN — Deep Cooperative Neural Networks (Zheng et al., WSDM 2017).

Two parallel networks learn user behaviour and item properties from review
text; a shared top layer couples them into a rating prediction.  Our
implementation maps each side's bag-of-words review content through its own
embedding + hidden stack and predicts with a joint MLP head — the same
architecture as :class:`repro.meta.model.PreferenceModel`, trained as plain
supervised learning (no meta-learning, no fine-tuning at test time).

Being purely content-based, CoNN degrades gracefully under cold-start but
cannot use the support ratings of a new user/item, which is what separates
it from the meta-learners in Table III.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import repeat_user_content, train_supervised, warm_triples
from repro.core.interface import FitContext, Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import PreferenceTask
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.nn.module import Params
from repro.utils.rng import spawn_rngs


class CoNN(Recommender):
    """Parallel user/item content networks with a shared prediction layer."""

    name = "CoNN"

    def __init__(
        self,
        embed_dim: int = 32,
        hidden_dims: tuple[int, ...] = (64, 32),
        epochs: int = 15,
        lr: float = 1e-3,
        seed: int = 0,
    ):
        self.embed_dim = embed_dim
        self.hidden_dims = hidden_dims
        self.epochs = epochs
        self.lr = lr
        self.seed = seed
        self.model: PreferenceModel | None = None
        self.params: Params | None = None
        self._ctx: FitContext | None = None
        self.loss_history: list[float] = []

    def fit(self, ctx: FitContext) -> "CoNN":
        self._ctx = ctx
        domain = ctx.domain
        init_rng, train_rng = spawn_rngs(self.seed, 2)
        self.model = PreferenceModel(
            PreferenceModelConfig(
                content_dim=domain.user_content.shape[1],
                embed_dim=self.embed_dim,
                hidden_dims=self.hidden_dims,
            )
        )
        self.params = self.model.init_params(init_rng)
        users, items, labels = warm_triples(ctx.warm_tasks)
        user_content = domain.user_content
        item_content = domain.item_content

        def loss_grad_fn(batch: np.ndarray):
            assert self.model is not None and self.params is not None
            return self.model.loss_and_grads(
                self.params,
                user_content[users[batch]],
                item_content[items[batch]],
                labels[batch],
            )

        self.loss_history = train_supervised(
            self.params,
            loss_grad_fn,
            n_samples=users.size,
            epochs=self.epochs,
            lr=self.lr,
            rng=train_rng,
        )
        self.attach_serving(ctx)
        return self

    def score(
        self, task: PreferenceTask | None, instance: EvalInstance
    ) -> np.ndarray:
        if self.model is None or self.params is None or self._ctx is None:
            raise RuntimeError("fit() must be called before score()")
        domain = self._ctx.domain
        candidates = instance.candidates
        preds, _ = self.model.forward(
            self.params,
            repeat_user_content(domain.user_content, instance.user_row, candidates.size),
            domain.item_content[candidates],
        )
        return preds
