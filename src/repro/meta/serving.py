"""The frozen item-tower table and the shared MAML serving surface.

The preference model's item tower is user-invariant at serving time
whenever the inner loop is MeLU-style decision-only: per-user fast weights
touch only ``mlp.*`` keys, so the ``content_dim -> embed_dim`` item-tower
GEMM re-runs identically on every request.  :class:`FrozenTowerTables`
bakes its output once — one ``(n_items, E)`` float32 table — and candidate
scoring becomes a gather plus the MLP head.

Candidate scoring has one implementation, :func:`score_candidates`, and it
is per request: each user is scored with their own locally adapted
preference model (one task per user).  ``score_with_state_batch`` loops
over it, and it is the scoring call of evaluation and of the service's
request core, ``RecommenderService.recommend_batch``, which every serving
entry point (``recommend``, ``recommend_many``, micro-batch flushes, the
shard workers' ``batch`` RPC) and ``score_instances`` go through.  A
request's scores therefore depend only on its own state and candidates,
and batched answers are bitwise equal to solo ones and to the sharded
workers' answers.  It runs one inference pass,
:meth:`~repro.meta.model.PreferenceModel.score_pool`, on both paths: the
user row is embedded once as ``(1, C)``, then the pool is walked in blocks
of :data:`~repro.meta.model.SCORE_BLOCK` rows, split across lanes when
there are several, through scratch allocated once per lane, so no
intermediate grows with the pool but the output.

Exactness of the table is guarded, not assumed.  It records the item-tower
arrays it was computed from — their identity, and their write count in the
meta-parameters' :attr:`~repro.nn.stacking.FlatParams.versions` — and a
request takes the gather only when its scoring parameters still hold those
exact arrays and none of them has been written since.  Decision-only fast
weights share the meta tower arrays by reference (their own row holds only
the ``mlp.*`` tail), so they pass; full adaptation gives each user their
own tower and runs it live.  A meta-refresh or optimizer step that writes
the tower in place bumps its versions, and assigning a tower array swaps
the object, so either way the table stops matching.

The gather and the blocks are bitwise-faithful for every multi-row
request: on this BLAS a row of an ``(n, C) @ (C, E)`` product equals the
same row computed in any ``(m, C) @ (C, E)`` product with ``m >= 2``
(single-row products go through a GEMV kernel with a different reduction
order), which is the same row-count-invariance the uniform-width
adaptation chunks already rely on.  So the pass never cuts a one-row
block: a one-row tail joins the block before it.  The head's one-column
last layer is itself a GEMV, whose rows match the whole pool's only when
each block starts at a multiple of 4; ``SCORE_BLOCK`` is one (see
``score_pool``).  Single-candidate requests run the item tower live as one
one-row block, as the full forward does, so served scores are identical
with or without the table, and with or without blocks.

:class:`MAMLServingMixin` also consolidates the MeLU/MetaDPA serving
surface (``adapt_user``/``adapt_users``/``meta_refresh``/``score*``/
``state_dict``) in one place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.meta.corpus import PackedContent, PackedContentMixin
from repro.meta.maml import MAML, adapt_task_states, stream_refresh
from repro.nn.module import Params
from repro.nn.stacking import FlatParams

if TYPE_CHECKING:
    from repro.data.negative_sampling import EvalInstance
    from repro.data.tasks import PreferenceTask

__all__ = [
    "FrozenTowerTables",
    "MAMLServingMixin",
    "build_frozen_tower_tables",
    "score_candidates",
    "ITEM_TABLE_KEY",
]

_ITEM_PREFIX = "item_embed."

#: Artifact member name (under the ``serving.table.`` namespace) the item
#: table is persisted as — see :meth:`repro.core.Recommender.save`.
ITEM_TABLE_KEY = "item_embeddings"


class FrozenTowerTables:
    """The baked item-tower output plus the identity of the weights it froze.

    ``item`` may be an ``np.memmap`` view straight out of an uncompressed
    artifact — scoring only gathers rows, so N shard workers share one
    page-cache copy and never materialize the table.
    """

    __slots__ = ("item", "_theta", "_refs")

    def __init__(self, item: np.ndarray, theta: FlatParams):
        self.item = item
        self._theta = theta
        self._refs = tuple(
            (name, value, theta.versions[name])
            for name, value in theta.items()
            if name.startswith(_ITEM_PREFIX)
        )

    def item_current(self, params: Params) -> bool:
        """Whether ``params`` holds the exact item-tower arrays the table was
        baked from (object identity), unwritten since (their versions)."""
        versions = self._theta.versions
        return all(
            params.get(name) is value and versions[name] == version
            for name, value, version in self._refs
        )


def build_frozen_tower_tables(
    maml: MAML, content: PackedContent
) -> FrozenTowerTables:
    """Bake the item-tower table from the current meta-parameters."""
    params = maml.params
    return FrozenTowerTables(
        item=maml.model.precompute_item_embeddings(params, content.item),
        theta=params,
    )


def score_candidates(
    maml: MAML,
    content: PackedContent,
    params: Params,
    instance: "EvalInstance",
    tables: FrozenTowerTables | None = None,
) -> np.ndarray:
    """Score one request's candidates with one user's parameters.

    The only candidate-scoring kernel, over the blocked inference pass
    :meth:`~repro.meta.model.PreferenceModel.score_pool`.  Item rows are
    gathered from ``tables`` when it is given, ``params`` still holds the
    item-tower arrays it was baked from, and the pool has at least two
    candidates; otherwise the item tower runs over each block's candidate
    content.
    """
    candidates = instance.candidates
    use_table = (
        tables is not None and candidates.size >= 2 and tables.item_current(params)
    )
    return maml.model.score_pool(
        params,
        content.user[instance.user_row][None, :],
        candidates,
        content.item,
        tables.item if use_table else None,
    )


class MAMLServingMixin(PackedContentMixin):
    """The serving surface shared by every MAML-backed recommender.

    Host classes provide ``self.maml`` (set by ``fit``/``load_state_dict``),
    :meth:`_build_model`, and the :attr:`_finetune_steps` /
    :attr:`_maml_config` hooks; the mixin supplies adaptation, streaming
    refresh, table-accelerated scoring and artifact (de)serialization.
    """

    maml: MAML | None
    _tables: FrozenTowerTables | None = None
    _stream_corpus = None

    # -- host hooks -----------------------------------------------------
    @property
    def _finetune_steps(self) -> int:
        """Inner steps used for per-user fine-tuning at serving time."""
        raise NotImplementedError

    @property
    def _maml_config(self):
        """The :class:`~repro.meta.maml.MAMLConfig` to rebuild with."""
        raise NotImplementedError

    def _build_model(self, content_dim: int):
        raise NotImplementedError

    def _require_maml(self) -> MAML:
        if self.maml is None:
            raise RuntimeError("fit() must be called before serving")
        return self.maml

    # -- frozen-tower table ---------------------------------------------
    def invalidate_embedding_tables(self) -> None:
        """Drop the baked table; it rebakes lazily on next use."""
        self._tables = None

    def _scoring_tables(self) -> FrozenTowerTables:
        """The current table, rebaked if an item-tower parameter changed.

        Staleness is the same identity-and-version check the per-request
        guard uses, so a meta-refresh that only moved ``mlp.*`` keys
        (decision-only configs) keeps the baked table — nothing it changed
        is in it.
        """
        maml = self._require_maml()
        tables = self._tables
        if tables is None or not tables.item_current(maml.params):
            tables = build_frozen_tower_tables(maml, self._packed_content())
            self._tables = tables
        return tables

    def serving_tables(self) -> dict[str, np.ndarray]:
        """Arrays for :meth:`Recommender.save` to bake into the artifact."""
        if self.maml is None:
            return {}
        return {ITEM_TABLE_KEY: self._scoring_tables().item}

    def attach_serving_tables(self, tables: dict[str, np.ndarray]) -> None:
        """Adopt an artifact-baked item table (zero-copy for memmap loads).

        Called by :meth:`Recommender.load` after ``load_state_dict``; the
        table in an artifact was computed from the parameters stored beside
        it, so it is current for the freshly loaded ``maml``.  Format-1
        artifacts carry no table — the (empty) mapping leaves ``_tables``
        unset and the first scoring call bakes it once.  Earlier format-2
        artifacts also carry a user-tower table; it is ignored.
        """
        item = tables.get(ITEM_TABLE_KEY)
        if item is None:
            return
        maml = self._require_maml()
        expected = (self._packed_content().item.shape[0], maml.model.config.embed_dim)
        if item.shape != expected:
            raise ValueError(
                f"item table shape {item.shape} does not match {expected}"
            )
        self._tables = FrozenTowerTables(item=item, theta=maml.params)

    # -- adaptation -----------------------------------------------------
    def adapt_user(self, task: "PreferenceTask | None"):
        """Fine-tune the meta-initialization on one user's support set.

        This is the expensive per-user step of meta-testing (Sec. IV-C);
        the serving layer caches its result so repeat requests skip it.
        """
        self._require_maml()
        if task is None or task.n_support == 0 or self._finetune_steps == 0:
            return None
        return self.adapt_users([task])[0]

    def adapt_users(self, tasks):
        """Fine-tune a whole batch of users in one vectorized inner loop."""
        return adapt_task_states(
            self._require_maml(), self._packed_content(), tasks, self._finetune_steps
        )

    def meta_refresh(self, tasks, meta_lr: float = 0.1, steps: int | None = None):
        """Reptile-refresh the meta-initialization from observed tasks.

        If the refresh rewrote an item-tower parameter (full-adaptation
        configs), the baked table is dropped and rebaked on next use;
        decision-only refreshes leave it valid — the guard proves
        nothing in it changed.
        """
        maml = self._require_maml()
        self._stream_corpus, info = stream_refresh(
            maml,
            self._packed_content(),
            tasks,
            corpus=self._stream_corpus,
            meta_lr=meta_lr,
            steps=self._finetune_steps if steps is None else steps,
        )
        if self._tables is not None and not self._tables.item_current(maml.params):
            self.invalidate_embedding_tables()
        return info

    # -- scoring --------------------------------------------------------
    def score_with_state(
        self,
        state,
        instance: "EvalInstance",
        task: "PreferenceTask | None" = None,
    ) -> np.ndarray:
        maml = self._require_maml()
        params = state if state is not None else maml.params
        return score_candidates(
            maml, self._packed_content(), params, instance, self._scoring_tables()
        )

    def score(
        self, task: "PreferenceTask | None", instance: "EvalInstance"
    ) -> np.ndarray:
        return self.score_with_state(self.adapt_user(task), instance)

    def score_batch(self, tasks, instances) -> list[np.ndarray]:
        """Adapt every evaluated user in one batched inner loop, then score."""
        if len(tasks) != len(instances):
            raise ValueError("tasks and instances must align")
        return self.score_with_state_batch(self.adapt_users(tasks), instances)

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> Params:
        return dict(self._require_maml().params)

    def load_state_dict(self, state: Params) -> None:
        model = self._build_model(self.serving.user_content.shape[1])
        self.maml = MAML(model, self._maml_config, seed=self.seed)
        # Mapped (read-only) arrays stay the entries: see FlatParams.adopt.
        self.maml.params = {name: np.asarray(value) for name, value in state.items()}
        self._tables = None
