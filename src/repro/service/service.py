"""`RecommenderService`: the serving facade over a fitted recommender.

The facade owns everything a production endpoint needs around a model
artifact:

- the fitted :class:`~repro.core.Recommender` (in-process or loaded from a
  ``save()`` artifact via :meth:`RecommenderService.from_artifact`),
- an optional global candidate pool restricting what may be recommended,
- an LRU cache of per-user adapted parameters, so the support-set
  fine-tuning of meta-learners (MeLU, MetaDPA) is paid once per user
  rather than once per request,
- an optional flat-combining coalescer (:class:`~repro.service.batching
  .Coalescer`) folding concurrent ``recommend`` calls into one flush, run
  on a caller's own thread.

Every request is answered by one core, :meth:`RecommenderService
.recommend_batch`.  It validates the flush, replays the per-user cache
protocol, adapts every cache-missed user in one pass (for MAML-based
methods one vectorized inner loop, ``MAML.adapt_corpus``), scores the live
requests with one ``score_with_state_batch`` call and ranks each with
``top_k_order``.  ``recommend`` is a batch of one (with batching it rides
the coalescer, whose flush is the core), ``recommend_many`` is a batch of
users, ``score_instances`` shares the core's cache-and-adapt step, and
the shard worker answers each ``batch`` RPC with the core.  Scoring is per
request inside that one call: each user is scored with their own adapted
state, so every entry point returns the same bits.

A user's support set enters through ``recommend(..., task=...)`` or
:meth:`register_user_history`; users without history are served from the
un-adapted meta-initialization (or whatever the method's task-free
behaviour is).

Every metric of the tier lives in one :class:`~repro.obs.MetricsRegistry`
(``service.metrics``), and :meth:`RecommenderService.stats` is its
snapshot, ``{"metrics": snapshot}``.  The core is the one writer of
``serve.requests``: each request of a flush counts once, whichever entry
point sent it.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.interface import Recommendation, Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import (
    PreferenceTask,
    append_interaction,
    check_rating,
    task_fingerprint,
)
from repro.obs import MetricsRegistry
from repro.service.batching import Coalescer
from repro.service.cache import LRUCache
from repro.utils import blas
from repro.utils.topk import top_k_order

_MISS = object()


def _check_row(name: str, row: int, n_rows: int) -> None:
    if not 0 <= row < n_rows:
        raise ValueError(f"{name} {row} out of range [0, {n_rows})")


def check_request(user_row: int, k: int, n_users: int) -> None:
    """Raise ``ValueError`` for a ``recommend`` request no tier can answer.

    The one request check of both serving tiers: the core runs it over a
    whole flush before touching any state, and the sharded front-end runs
    it before enqueueing, so a bad request fails at its own call instead of
    failing the flush it would have shared.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    _check_row("user_row", user_row, n_users)


def check_event(
    user_row: int, item_row: int, rating: float, n_users: int, n_items: int
) -> None:
    """Raise ``ValueError`` for an ``observe`` event no tier may ingest."""
    _check_row("user_row", user_row, n_users)
    _check_row("item_row", item_row, n_items)
    check_rating(rating)


def _weak_collector(service: "RecommenderService") -> Callable[[MetricsRegistry], None]:
    """``service._collect_metrics`` through a weak reference; a no-op once the
    service is gone."""
    ref = weakref.ref(service)

    def collect(reg: MetricsRegistry) -> None:
        live = ref()
        if live is not None:
            live._collect_metrics(reg)

    return collect


@dataclass(frozen=True)
class ServeRequest:
    """One ``recommend`` call as data: the unit of the request core.

    Both tiers queue these, and a flush of them is resolved by
    :meth:`RecommenderService.recommend_batch` with one batched adaptation
    pass and per-request scoring.

    ``deadline`` is an absolute wall-clock time (``time.time()``, the one
    clock processes share): past it the core skips the request instead of
    adapting or scoring it, returning a :class:`DeadlineSkipped` marker in
    its slot so the front-end can answer degraded.
    """

    user_row: int
    k: int = 10
    task: PreferenceTask | None = None
    exclude_seen: bool = True
    deadline: float | None = None


@dataclass(frozen=True)
class DeadlineSkipped:
    """Marker result for a request whose deadline expired inside the worker.

    Occupies the request's slot in the :meth:`RecommenderService
    .recommend_batch` result list — pickles across the shard pipe so the
    front-end can convert it into a degraded answer or
    :class:`~repro.serve.resilience.DeadlineExceeded`.
    """

    user_row: int


class RecommenderService:
    """Serve top-k recommendations from a fitted recommender."""

    def __init__(
        self,
        method: Recommender,
        candidate_pool: np.ndarray | None = None,
        cache_size: int = 256,
        batching: bool = False,
        max_batch: int = 32,
        refresh_every: int = 0,
        refresh_lr: float = 0.1,
        refresh_steps: int | None = None,
        metrics: MetricsRegistry | None = None,
        adapt_hook: Callable[[int], None] | None = None,
    ):
        self.method = method
        # Called with the batch size before every adaptation pass; the
        # fault injector's ``on_adapt`` threads in here to make slow or
        # failing fine-tuning injectable.  None (the default) costs one
        # attribute check per batch.
        self._adapt_hook = adapt_hook
        serving = method.serving  # raises if the method is not fitted/loaded
        if candidate_pool is None:
            self._pool = np.arange(serving.n_items)
        else:
            self._pool = np.unique(np.asarray(candidate_pool, dtype=int))
            if self._pool.size and (
                self._pool[0] < 0 or self._pool[-1] >= serving.n_items
            ):
                raise ValueError("candidate_pool contains out-of-range item rows")
        if refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")
        if refresh_every > 0 and not method.supports_meta_refresh():
            raise ValueError(
                f"{type(method).__name__} does not support meta-refresh; "
                "refresh_every requires a meta-learned method"
            )
        self.refresh_every = refresh_every
        self.refresh_lr = refresh_lr
        self.refresh_steps = refresh_steps
        self._cache = LRUCache(maxsize=cache_size)
        self._cache_lock = threading.Lock()
        self._tasks: dict[int, PreferenceTask] = {}
        self._observed: dict[int, set[int]] = {}
        self._dirty_users: set[int] = set()
        self._events_since_refresh = 0
        # Per-instance registry: every serving metric of this tier lives
        # here, so stats() is its snapshot and cross-process merging comes
        # for free.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The registry holds the collector weakly: a bound method would keep
        # this service, its artifact mapping and its adapted states alive
        # until the cyclic GC runs.
        self.metrics.add_collector(_weak_collector(self))
        self._coalescer: Coalescer | None = None
        if batching:
            self._coalescer = Coalescer(max_batch=max_batch, metrics=self.metrics)

    @classmethod
    def from_artifact(
        cls, path: str | Path, mmap_mode: str | None = "r", **kwargs
    ) -> "RecommenderService":
        """Load a ``Recommender.save`` artifact and wrap it for serving.

        Memory-maps by default: weights and serving content stay on disk
        (one shared page-cache copy across processes) and startup is
        O(open).  Pass ``mmap_mode=None`` for the old eager load.
        """
        return cls(Recommender.load(path, mmap_mode=mmap_mode), **kwargs)

    def _collect_metrics(self, reg: MetricsRegistry) -> None:
        """Snapshot-time collector: mirror cache + stream state as metrics.

        The LRU keeps its own counters; they are copied in as *absolute*
        totals (``set_counter``), which stays correct under additive
        cross-process merging because each worker owns its own cache.  The
        ``runtime.*`` gauges report this process's configuration: the
        threads its BLAS runs a GEMM on, and the lanes a wide scoring pass
        runs on (:mod:`repro.utils.blas`).
        """
        with self._cache_lock:
            cache = self._cache.stats()
            dirty = len(self._dirty_users)
            observed = len(self._observed)
        reg.set_counter("serve.cache.hits", cache["hits"])
        reg.set_counter("serve.cache.misses", cache["misses"])
        reg.set_counter("serve.cache.evictions", cache["evictions"])
        reg.set_gauge("serve.cache.size", cache["size"])
        reg.set_gauge("serve.cache.maxsize", cache["maxsize"])
        reg.set_gauge("serve.stream.dirty_users", dirty)
        reg.set_gauge("serve.stream.observed_users", observed)
        reg.set_gauge("runtime.blas_threads", blas.blas_threads())
        reg.set_gauge("runtime.score_lanes", blas.score_lanes())

    # ------------------------------------------------------------------
    def register_user_history(self, task: PreferenceTask) -> None:
        """Attach a support task to its user for adaptation on demand.

        Any previously cached adaptation for that user is invalidated.
        """
        self._tasks[int(task.user_row)] = task
        with self._cache_lock:
            self._cache.invalidate(int(task.user_row))

    def invalidate_user(self, user_row: int) -> None:
        """Drop a user's cached adaptation (e.g. after new interactions)."""
        with self._cache_lock:
            self._cache.invalidate(int(user_row))

    def clear_cache(self) -> None:
        """Drop every cached adaptation (all users re-adapt on next use)."""
        with self._cache_lock:
            self._cache.clear()

    def observe(self, user_row: int, item_row: int, rating: float = 1.0) -> None:
        """Ingest one interaction event for ``user_row``.

        The event is appended to the user's support task (created fresh for
        users with no registered history), exactly that user's cached fast
        weights are invalidated — re-adaptation happens lazily on their
        next request — and the item joins the user's exclusion set for
        ``exclude_seen`` serving.  Every ``refresh_every`` events (when
        enabled) a :meth:`meta_refresh` is triggered.  An out-of-range row
        or a rating outside [0, 1] (non-finite included) raises
        ``ValueError`` before any state is touched.
        """
        key = int(user_row)
        item = int(item_row)
        serving = self.method.serving
        check_event(key, item, rating, serving.n_users, serving.n_items)
        self._tasks[key] = append_interaction(
            self._tasks.get(key), key, item, float(rating)
        )
        with self._cache_lock:
            self._cache.invalidate(key)
            self._observed.setdefault(key, set()).add(item)
            self._dirty_users.add(key)
            self._events_since_refresh += 1
            due = (
                self.refresh_every > 0
                and self._events_since_refresh >= self.refresh_every
            )
        self.metrics.inc("serve.stream.events")
        if due:
            self.meta_refresh()

    def meta_refresh(
        self, meta_lr: float | None = None, steps: int | None = None
    ) -> dict:
        """Nudge the meta-initialization from users observed since last time.

        Runs the method's reptile-style :meth:`~repro.core.interface
        .Recommender.meta_refresh` over the dirty users' current support
        tasks, then drops *every* cached adaptation — all fast weights were
        fine-tuned from the old initialization and are stale against the
        new one.  No-op (and no cache clear) when nothing was observed.
        """
        if not self.method.supports_meta_refresh():
            raise NotImplementedError(
                f"{type(self.method).__name__} does not support meta-refresh"
            )
        with self._cache_lock:
            dirty = sorted(self._dirty_users)
            self._dirty_users.clear()
            self._events_since_refresh = 0
        if not dirty:
            return {"n_tasks": 0, "delta_rms": 0.0}
        with self.metrics.span("serve.refresh", size=len(dirty)):
            info = self.method.meta_refresh(
                [self._tasks.get(user) for user in dirty],
                meta_lr=self.refresh_lr if meta_lr is None else meta_lr,
                steps=self.refresh_steps if steps is None else steps,
            )
        with self._cache_lock:
            self._cache.clear()
        self.metrics.inc("serve.stream.refreshes")
        return info

    def _cached_state(self, user_row: int, task: PreferenceTask | None):
        """``(hit, state, extra)`` for one user's cache lookup.

        On a hit ``extra`` is the cached task's fingerprint (``None`` for a
        task-free adaptation); on a miss it is the effective task to adapt
        with.  Staleness compares task *values*, not object identity — a
        task pickled across a shard Pipe is a new object with the same
        bytes and must still hit.
        """
        with self._cache_lock:
            entry = self._cache.get(user_row, _MISS)
        if entry is not _MISS:
            cached_fp, state = entry
            # A caller explicitly passing *different* history is announcing
            # fresh interactions — the cached adaptation is stale for it.
            if task is None or (
                cached_fp is not None and task_fingerprint(task) == cached_fp
            ):
                return True, state, cached_fp
        return False, None, task if task is not None else self._tasks.get(user_row)

    def _adapted_states(self, keys: list[tuple[int, PreferenceTask | None]]) -> list:
        """One adapted state per ``(user_row, task)`` key: the core's
        cache-and-adapt step.

        First the sequential cache protocol is replayed without adapting
        anything: per user, an explicit task whose value fingerprint
        differs from the freshest one replaces the earlier state, and later
        keys reuse the freshest adaptation.  Then every distinct adaptation
        the replay needs runs in one pass, and each fresh state is written
        back to the LRU.  ``serve.adapt.pending`` counts the users of the
        pass in flight.
        """
        states: list = []  # distinct states, in first-need order
        slots: list[int] = []  # per key, its index in ``states``
        misses: list[tuple[int, int, PreferenceTask | None, bytes | None]] = []
        latest: dict[int, tuple[bytes | None, int]] = {}
        for user, task in keys:
            if user in latest:
                prior_fp, slot = latest[user]
                if task is None or (
                    prior_fp is not None and task_fingerprint(task) == prior_fp
                ):
                    slots.append(slot)
                    continue
            else:
                hit, state, extra = self._cached_state(user, task)
                if hit:
                    latest[user] = (extra, len(states))
                    slots.append(len(states))
                    states.append(state)
                    continue
                task = extra
            fingerprint = task_fingerprint(task) if task is not None else None
            latest[user] = (fingerprint, len(states))
            slots.append(len(states))
            misses.append((len(states), user, task, fingerprint))
            states.append(None)
        if misses:
            tasks = [task for _, _, task, _ in misses]
            self.metrics.inc_gauge("serve.adapt.pending", len(tasks))
            try:
                with self.metrics.span("serve.adapt", size=len(tasks)):
                    if self._adapt_hook is not None:
                        self._adapt_hook(len(tasks))
                    # One user adapts through the per-user hook, several
                    # through the batched one; every method returns the same
                    # state from both, so the choice never changes an answer.
                    fresh = (
                        [self.method.adapt_user(tasks[0])]
                        if len(tasks) == 1
                        else self.method.adapt_users(tasks)
                    )
            finally:
                self.metrics.inc_gauge("serve.adapt.pending", -len(tasks))
            self.metrics.inc("serve.adapt.batches")
            self.metrics.inc("serve.adapt.users", len(tasks))
            for (slot, user, _, fingerprint), state in zip(misses, fresh):
                states[slot] = state
                with self._cache_lock:
                    self._cache.put(user, (fingerprint, state))
        return [states[slot] for slot in slots]

    def _candidates_for(self, user_row: int, exclude_seen: bool) -> np.ndarray:
        pool = self._pool
        if exclude_seen:
            pool = pool[~self.method.serving.seen[user_row, pool]]
            observed = self._observed.get(user_row)
            if observed:
                pool = pool[~np.isin(pool, np.fromiter(observed, dtype=int))]
        return pool

    # ------------------------------------------------------------------
    def recommend(
        self,
        user_row: int,
        k: int = 10,
        task: PreferenceTask | None = None,
        exclude_seen: bool = True,
    ) -> Recommendation:
        """Top-``k`` unseen items for one user: a batch of one.

        The first call for a user pays the method's adaptation; subsequent
        calls reuse the cached state and only pay one forward.  With
        batching the request rides the coalescer, whose flush is
        :meth:`recommend_batch`: a call that finds the core idle runs its
        flush on its own thread, and calls that arrive meanwhile share the
        next flush, and its one adaptation pass.
        """
        request = ServeRequest(int(user_row), k, task, exclude_seen)
        if self._coalescer is None:
            return self.recommend_batch([request])[0]
        check_request(request.user_row, k, self.method.serving.n_users)
        return self._coalescer.call(self.recommend_batch, request)

    def recommend_batch(
        self, requests: list[ServeRequest]
    ) -> list[Recommendation | DeadlineSkipped]:
        """The request core: answer a flush of requests.

        Every in-process entry point and the shard worker's ``batch`` RPC
        resolve here, in four steps:

        1. Validate every request (:func:`check_request`) before any
           adaptation, cache write or counter bump — one bad request fails
           the call with no partial state left behind.
        2. Set aside requests whose :attr:`ServeRequest.deadline` already
           passed (their slot holds a :class:`DeadlineSkipped` marker) and
           requests whose candidate pool is empty (answered empty, their
           user not adapted).
        3. Adapt the rest through :meth:`_adapted_states`: one adaptation
           pass for every cache-missed user of the flush.
        4. Check the deadlines once more, then score every live request
           with one ``score_with_state_batch`` call and rank each with
           ``top_k_order``.

        Each request is scored with its own adapted state, so the answers
        are bitwise equal to serving the requests one at a time.  Skipping
        an expired neighbour cannot change them either, since adaptations
        are independent per (user, task).
        """
        n_users = self.method.serving.n_users
        for request in requests:
            check_request(request.user_row, request.k, n_users)
        self.metrics.inc("serve.requests", len(requests))
        results: list = []
        live: list[tuple[int, ServeRequest, np.ndarray]] = []
        now = time.time()
        for request in requests:
            user = int(request.user_row)
            if request.deadline is not None and now >= request.deadline:
                results.append(DeadlineSkipped(user))
                continue
            pool = self._candidates_for(user, request.exclude_seen)
            if pool.size:
                live.append((len(results), request, pool))
                results.append(None)
            else:
                results.append(Recommendation(user, pool, np.array([], dtype=float)))
        states = self._adapted_states(
            [(int(request.user_row), request.task) for _, request, _ in live]
        )
        now = time.time()
        batch = []
        for (slot, request, pool), state in zip(live, states):
            if request.deadline is not None and now >= request.deadline:
                results[slot] = DeadlineSkipped(int(request.user_row))
            else:
                batch.append((slot, request, pool, state))
        n_skipped = sum(isinstance(result, DeadlineSkipped) for result in results)
        if n_skipped:
            self.metrics.inc("serve.deadline_skipped", n_skipped)
        if not batch:
            return results
        self.metrics.observe_many(
            "serve.score.candidates", [pool.size for _, _, pool, _ in batch]
        )
        instances = [
            EvalInstance(
                user_row=int(request.user_row),
                pos_item=int(pool[0]),
                neg_items=pool[1:],
            )
            for _, request, pool, _ in batch
        ]
        with self.metrics.span("serve.score", size=len(batch)):
            score_lists = self.method.score_with_state_batch(
                [state for *_, state in batch], instances
            )
            for (slot, request, pool, _), scores in zip(batch, score_lists):
                scores = np.asarray(scores, dtype=float)
                order = top_k_order(scores, request.k)
                results[slot] = Recommendation(
                    int(request.user_row), pool[order], scores[order]
                )
        return results

    def score_instances(self, instances: list[EvalInstance]) -> list[np.ndarray]:
        """Score eval instances through the core's cache-and-adapt step.

        Each instance's user is served with their current adaptation state
        (cached, or batch-adapted from registered + observed history), so
        offline evaluation measures exactly what the service would return —
        the temporal-split protocol's entry point.
        """
        states = self._adapted_states(
            [(int(inst.user_row), None) for inst in instances]
        )
        self.metrics.inc("serve.requests", len(instances))
        self.metrics.observe_many(
            "serve.score.candidates", [inst.candidates.size for inst in instances]
        )
        with self.metrics.span("serve.score", size=len(instances)):
            return self.method.score_with_state_batch(states, instances)

    def recommend_many(
        self,
        user_rows: list[int],
        k: int = 10,
        exclude_seen: bool = True,
    ) -> list[Recommendation]:
        """Serve a batch of users as one flush of the core.

        Users without a cached adaptation are fine-tuned *together* in one
        pass before scoring, which is per user: the answers equal
        :meth:`recommend` bit for bit.
        """
        return self.recommend_batch(
            [ServeRequest(int(user), k, None, exclude_seen) for user in user_rows]
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """``{"metrics": snapshot}``: the registry snapshot of this tier.

        The request core counts ``serve.requests`` (one per request of a
        flush), the collector mirrors the cache (``serve.cache.*``) and
        stream state, and the spans fill the latency histograms; with
        batching, ``serve.batch.size`` counts the flushes (its ``count``),
        the requests they carried (``sum``) and the largest (``max``).
        ``serve.adapt.pending`` is the number of users the core is adapting
        at this instant; it reads 0 at rest.  The shard worker replies with
        the same snapshot, and the sharded front-end merges them.
        """
        return {"metrics": self.metrics.snapshot()}

    def close(self) -> None:
        """Refuse further batched calls and wait until every admitted one is
        answered."""
        if self._coalescer is not None:
            self._coalescer.close()

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
