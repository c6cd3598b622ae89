"""The recommender contract shared by MetaDPA and every baseline.

A method is fitted once per target domain on the *warm* block (existing
users × existing items) — multi-domain methods may additionally read the
source domains from the dataset — and is then asked to score leave-one-out
candidate lists.  For cold-start scenarios the method receives the
evaluation task's support set so that meta-learners can fine-tune; methods
that cannot exploit the support set simply ignore it (that inability is
part of what Table III measures).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.domain import Domain, MultiDomainDataset
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import ColdStartSplits
from repro.data.tasks import PreferenceTask, TaskSet
from repro.nn.module import Params
from repro.utils.topk import top_k_order

#: Artifact layout version written by :meth:`Recommender.save`.
#: Format 2 means the ``serving.table.*`` members are present — for MAML
#: methods the precomputed item-tower table (see :mod:`repro.meta.serving`).
#: Earlier format-2 artifacts also carry a user-tower table, which loading
#: ignores.  Format-1 artifacts stay loadable: the absent table is
#: recomputed once on first use.
ARTIFACT_FORMAT = 2

_STATE_PREFIX = "state."
_SERVING_PREFIX = "serving."
_TABLE_PREFIX = "serving.table."


@dataclass
class FitContext:
    """Everything a method may use at training time.

    Attributes
    ----------
    dataset:
        the full multi-domain benchmark (sources + targets).  Single-domain
        methods only read ``dataset.targets[target_name]``.
    target_name:
        which target domain is being evaluated.
    splits:
        the existing/new user and item partition of the target domain.
    warm_tasks:
        meta-training tasks built from the warm block (Ue × Ie); their
        support/query structure doubles as the train/validation split for
        non-meta methods.
    seed:
        per-run seed; every method must be deterministic given it.
    train_ratings:
        the binary matrix of interactions *visible at training time* — the
        warm tasks' support positives.  Methods that count interactions
        directly (popularity, item co-occurrence) must use this, never
        ``domain.ratings``, or they would see held-out evaluation positives.
    """

    dataset: MultiDomainDataset
    target_name: str
    splits: ColdStartSplits
    warm_tasks: TaskSet
    seed: int = 0
    train_ratings: np.ndarray | None = None

    @property
    def domain(self) -> Domain:
        return self.dataset.targets[self.target_name]

    @property
    def visible_ratings(self) -> np.ndarray:
        """Training-visible interaction matrix (see ``train_ratings``)."""
        if self.train_ratings is None:
            self.train_ratings = training_visibility(
                self.domain.n_users, self.domain.n_items, self.warm_tasks
            )
        return self.train_ratings


def training_visibility(
    n_users: int,
    n_items: int,
    warm_tasks: TaskSet,
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Binary matrix of warm-task support positives (the training set).

    ``float32`` by default: the matrix only ever holds 0/1 and sits on the
    hot path of every ``fit``, so the narrower dtype halves its memory.
    """
    visible = np.zeros((n_users, n_items), dtype=dtype)
    for task in warm_tasks:
        positives = task.support_items[task.support_labels > 0.5]
        visible[task.user_row, positives] = 1.0
    return visible


@dataclass
class ServingState:
    """Everything a fitted method needs to answer ``recommend`` calls.

    Captured from the :class:`FitContext` at the end of ``fit`` (via
    :meth:`Recommender.attach_serving`) and persisted inside artifacts, so a
    loaded model can score without the original dataset: the leak-free
    content matrices for content-based scoring and the boolean ``seen``
    matrix for ``exclude_seen`` filtering.
    """

    user_content: np.ndarray
    item_content: np.ndarray
    seen: np.ndarray

    @property
    def n_users(self) -> int:
        return self.seen.shape[0]

    @property
    def n_items(self) -> int:
        return self.seen.shape[1]


@dataclass(frozen=True)
class Recommendation:
    """Top-k answer for one user: items sorted by descending score.

    ``degraded`` marks answers produced by a fallback tier (popularity
    prior instead of the model) when the serving stack could not produce
    a full-quality answer in time — see :mod:`repro.serve.resilience`.
    """

    user_row: int
    items: np.ndarray
    scores: np.ndarray
    degraded: bool = False

    def __len__(self) -> int:
        return self.items.size


class Recommender(abc.ABC):
    """Abstract cold-start recommender.

    Beyond the original ``fit``/``score`` evaluation contract, the class
    defines the serving lifecycle: ``fit`` captures a :class:`ServingState`
    (via :meth:`attach_serving`), :meth:`save`/:meth:`load` round-trip a
    fitted model through a self-contained ``.npz`` artifact, and
    :meth:`recommend` answers the production question — top-k unseen items
    for one user.  Meta-learners additionally split scoring into
    :meth:`adapt_user` (expensive, per-user) and :meth:`score_with_state`
    (cheap, per-request) so :class:`repro.service.RecommenderService` can
    cache the adaptation.
    """

    #: short display name used in result tables (e.g. "MetaDPA", "NeuMF").
    name: str = "recommender"
    #: per-run seed; subclasses set it in ``__init__``.
    seed: int = 0
    #: the registry config this instance was built from, when built via
    #: :func:`repro.registry.build_method`; used to rebuild on ``load``.
    _method_config = None
    _serving: ServingState | None = None

    @abc.abstractmethod
    def fit(self, ctx: FitContext) -> "Recommender":
        """Train on the warm block (and any source domains); returns self."""

    @abc.abstractmethod
    def score(
        self, task: PreferenceTask | None, instance: EvalInstance
    ) -> np.ndarray:
        """Score ``instance.candidates`` (positive first, then negatives).

        ``task`` carries the evaluated user's support set for fine-tuning;
        it is ``None`` only when a caller explicitly evaluates without
        adaptation.  Higher scores mean stronger recommendation.
        """

    def score_batch(
        self, tasks: list[PreferenceTask | None], instances: list[EvalInstance]
    ) -> list[np.ndarray]:
        """Score many instances; override for methods with batch speedups."""
        if len(tasks) != len(instances):
            raise ValueError("tasks and instances must align")
        return [self.score(t, i) for t, i in zip(tasks, instances)]

    # -- serving state --------------------------------------------------
    def attach_serving(self, ctx: FitContext) -> "Recommender":
        """Capture the serving-time state from a fit context.

        Every ``fit`` implementation calls this so that a fitted method can
        answer :meth:`recommend` and be persisted with :meth:`save`.
        """
        self._serving = ServingState(
            user_content=ctx.domain.user_content,
            item_content=ctx.domain.item_content,
            seen=np.asarray(ctx.visible_ratings) > 0,
        )
        return self

    @property
    def serving(self) -> ServingState:
        """The attached serving state; raises before ``fit``/``load``."""
        if self._serving is None:
            raise RuntimeError(
                f"{self.name} has no serving state: call fit() or load() first"
            )
        return self._serving

    # -- per-user adaptation hooks --------------------------------------
    def adapt_user(self, task: PreferenceTask | None) -> Any:
        """Compute the per-user adapted state from a support task.

        For meta-learners this is the expensive fine-tuning step; the
        default returns ``None`` (no adaptation).  The returned object is
        opaque to callers and only consumed by :meth:`score_with_state`,
        which lets the serving layer cache it per user.
        """
        return None

    def adapt_users(self, tasks: list[PreferenceTask | None]) -> list[Any]:
        """Adapt many users at once; returns one state per task.

        The batched counterpart of :meth:`adapt_user`: meta-learners
        override it to fine-tune a whole batch of cold-start users in one
        vectorized inner loop (one numpy pass per gradient step instead of
        one per user).  The default simply loops.  Repeated task *objects*
        may be deduplicated — callers get one state per position either
        way.
        """
        return [self.adapt_user(task) for task in tasks]

    def meta_refresh(
        self,
        tasks: list[PreferenceTask | None],
        meta_lr: float = 0.1,
        steps: int | None = None,
    ) -> dict:
        """Nudge the shared initialization from freshly observed tasks.

        The streaming counterpart of :meth:`fit`: meta-learners override it
        with a cheap reptile-style update over the appended tasks (O(tail),
        no full retrain), after which previously adapted per-user states
        are stale and should be invalidated by the caller.  Returns a small
        info dict (``n_tasks``, ``delta_rms``).  Methods without a shared
        initialization have nothing to refresh and raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support meta-refresh"
        )

    def supports_meta_refresh(self) -> bool:
        """Whether this method implements :meth:`meta_refresh`."""
        return type(self).meta_refresh is not Recommender.meta_refresh

    def score_with_state(
        self,
        state: Any,
        instance: EvalInstance,
        task: PreferenceTask | None = None,
    ) -> np.ndarray:
        """Score one instance given a previously adapted user state."""
        return self.score(task, instance)

    def score_with_state_batch(
        self, states: list[Any], instances: list[EvalInstance]
    ) -> list[np.ndarray]:
        """Score many instances with per-instance adapted states.

        The scoring call of the service's request core
        (``RecommenderService.recommend_batch``, which every serving entry
        point goes through) and of ``score_instances``.  Each instance is
        scored alone through :meth:`score_with_state`, so a batched answer
        is bitwise equal to the solo one.
        """
        if len(states) != len(instances):
            raise ValueError("states and instances must align")
        return [self.score_with_state(s, i) for s, i in zip(states, instances)]

    # -- top-k recommendation -------------------------------------------
    def recommend(
        self,
        user_row: int,
        k: int = 10,
        exclude_seen: bool = True,
        candidates: np.ndarray | None = None,
        task: PreferenceTask | None = None,
    ) -> Recommendation:
        """Top-``k`` items for ``user_row`` over the candidate pool.

        The default implementation is fully generic: it builds one scoring
        instance over the pool (all items, minus already-seen ones when
        ``exclude_seen``) and ranks via :meth:`score_batch`, so every method
        gets a serving entry point for free.  ``task`` optionally carries
        the user's support set for fine-tuning methods.
        """
        serving = self.serving
        if k <= 0:
            raise ValueError("k must be positive")
        if not 0 <= user_row < serving.n_users:
            raise ValueError(
                f"user_row {user_row} out of range [0, {serving.n_users})"
            )
        if candidates is None:
            pool = np.arange(serving.n_items)
        else:
            pool = np.unique(np.asarray(candidates, dtype=int))
        if exclude_seen:
            pool = pool[~serving.seen[user_row, pool]]
        if pool.size == 0:
            empty = np.array([], dtype=int)
            return Recommendation(int(user_row), empty, np.array([], dtype=float))
        instance = EvalInstance(
            user_row=int(user_row), pos_item=int(pool[0]), neg_items=pool[1:]
        )
        scores = np.asarray(self.score_batch([task], [instance])[0], dtype=float)
        order = top_k_order(scores, k)
        return Recommendation(int(user_row), pool[order], scores[order])

    # -- persistence ----------------------------------------------------
    def state_dict(self) -> Params:
        """Learned arrays to persist; inverse of :meth:`load_state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support serialization yet"
        )

    def load_state_dict(self, state: Params) -> None:
        """Restore learned arrays; the serving state is already attached."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support serialization yet"
        )

    def supports_serialization(self) -> bool:
        """Whether this method implements ``state_dict``/``load_state_dict``."""
        return type(self).state_dict is not Recommender.state_dict

    def serving_tables(self) -> dict[str, np.ndarray]:
        """Precomputed serving tables to bake into the artifact.

        Methods with user-invariant submodels (the frozen item tower of
        MAML-based methods, see :mod:`repro.meta.serving`) override this
        to persist their precompute; the default has none.  Keys are
        namespaced under ``serving.table.`` in the archive.
        """
        return {}

    def attach_serving_tables(self, tables: dict[str, np.ndarray]) -> None:
        """Adopt artifact-baked serving tables after ``load_state_dict``.

        Called on every load with whatever ``serving.table.`` members the
        artifact holds (possibly none, for format-1 artifacts).  The
        default ignores them.
        """

    def config_dict(self) -> dict:
        """JSON-able constructor config, written into saved artifacts.

        Instances built via :func:`repro.registry.build_method` report their
        config verbatim; directly-constructed instances fall back to reading
        the registry config's fields off the instance (every config field
        mirrors a constructor attribute), so non-default hyper-parameters
        survive the save/load round trip either way.
        """
        if self._method_config is not None:
            return self._method_config.to_dict()
        from repro.registry import config_class

        try:
            cls = config_class(self.name)
        except KeyError:
            return {}
        values = {
            name: getattr(self, name)
            for name in cls.field_names()
            if hasattr(self, name)
        }
        return cls.from_dict(values).to_dict()

    def registry_name(self) -> str:
        """The registry name used to rebuild this method on ``load``."""
        if self._method_config is not None:
            return self._method_config.method
        return self.name

    def save(self, path: str | Path) -> Path:
        """Write a self-contained artifact: config + weights + serving state."""
        from repro.nn.serialization import save_params

        serving = self.serving
        payload: Params = {
            f"{_STATE_PREFIX}{k}": np.asarray(v)
            for k, v in self.state_dict().items()
        }
        # Serving content is stored float32 C-contiguous — the exact layout
        # :func:`repro.meta.corpus.pack_content` wants — so a memory-mapped
        # load feeds the packed scoring path by reference, no copy.
        payload[f"{_SERVING_PREFIX}user_content"] = np.ascontiguousarray(
            serving.user_content, dtype=np.float32
        )
        payload[f"{_SERVING_PREFIX}item_content"] = np.ascontiguousarray(
            serving.item_content, dtype=np.float32
        )
        payload[f"{_SERVING_PREFIX}seen"] = serving.seen.astype(np.uint8)
        # Popularity prior for the degraded fallback tier: per-item global
        # interaction counts, enough for a model-free top-k when a shard
        # cannot answer.  Loaders that predate it ignore the extra member.
        payload[f"{_SERVING_PREFIX}popularity"] = serving.seen.sum(
            axis=0, dtype=np.float32
        )
        # Frozen-tower precompute (format 2): baked float32 C-contiguous so
        # a memory-mapped load serves gathers straight off one page-cache
        # copy shared by every shard worker.
        for name, table in self.serving_tables().items():
            payload[f"{_TABLE_PREFIX}{name}"] = np.ascontiguousarray(
                table, dtype=np.float32
            )
        header = {
            "format": ARTIFACT_FORMAT,
            "method": self.registry_name(),
            "seed": int(getattr(self, "seed", 0)),
            "config": self.config_dict(),
        }
        return save_params(Path(path), payload, config=header)

    @classmethod
    def load(cls, path: str | Path, mmap_mode: str | None = None) -> "Recommender":
        """Rebuild a fitted method from a :meth:`save` artifact.

        With ``mmap_mode`` (``"r"`` or ``"c"``) every persisted array is an
        ``np.memmap`` view into the archive: startup is O(open), nothing is
        materialized until scored against, and N processes loading the same
        artifact share one page-cache copy of the weights and content.
        """
        from repro.nn.serialization import load_params
        from repro.registry import build_method

        arrays, header = load_params(path, mmap_mode=mmap_mode)
        if not header or "method" not in header:
            raise ValueError(f"{path} is not a recommender artifact")
        method = build_method(
            {"name": header["method"], **header.get("config", {})},
            seed=int(header.get("seed", 0)),
        )
        if cls is not Recommender and not isinstance(method, cls):
            raise TypeError(
                f"artifact holds a {type(method).__name__}, not a {cls.__name__}"
            )
        seen = arrays[f"{_SERVING_PREFIX}seen"]
        # uint8 -> bool is a reinterpreting view, keeping the mmap zero-copy.
        seen = seen.view(bool) if seen.dtype == np.uint8 else seen.astype(bool)
        method._serving = ServingState(
            user_content=arrays[f"{_SERVING_PREFIX}user_content"],
            item_content=arrays[f"{_SERVING_PREFIX}item_content"],
            seen=seen,
        )
        state = {
            name[len(_STATE_PREFIX):]: value
            for name, value in arrays.items()
            if name.startswith(_STATE_PREFIX)
        }
        method.load_state_dict(state)
        # Format-2 artifacts carry baked serving tables; older artifacts
        # pass an empty mapping and the method recomputes on first use.
        method.attach_serving_tables(
            {
                name[len(_TABLE_PREFIX):]: value
                for name, value in arrays.items()
                if name.startswith(_TABLE_PREFIX)
            }
        )
        return method
