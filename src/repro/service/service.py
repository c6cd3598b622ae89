"""`RecommenderService`: the serving facade over a fitted recommender.

The facade owns everything a production endpoint needs around a model
artifact:

- the fitted :class:`~repro.core.Recommender` (in-process or loaded from a
  ``save()`` artifact via :meth:`RecommenderService.from_artifact`),
- an optional global candidate pool restricting what may be recommended,
- an LRU cache of per-user adapted parameters, so the support-set
  fine-tuning of meta-learners (MeLU, MetaDPA) is paid once per user
  rather than once per request,
- an optional micro-batching queue coalescing concurrent ``recommend``
  calls into one flush.

Cold-start adaptation is batched wherever more than one user needs it at
once: :meth:`RecommenderService.recommend_many` and every micro-batch
flush route uncached users through the method's ``adapt_users`` — for
MAML-based methods one vectorized inner loop over the whole batch of
support sets (``MAML.adapt_corpus``) — instead of fine-tuning them one by
one.  Scoring is per request on every path: each user is scored with their
own adapted state, so every entry point returns the same bits as a solo
:meth:`RecommenderService.recommend`.

A user's support set enters through ``recommend(..., task=...)`` or
:meth:`register_user_history`; users without history are served from the
un-adapted meta-initialization (or whatever the method's task-free
behaviour is).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.interface import Recommendation, Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import PreferenceTask, append_interaction, task_fingerprint
from repro.obs import MetricsRegistry
from repro.service.batching import MicroBatcher
from repro.service.cache import LRUCache
from repro.utils.topk import top_k_order

_MISS = object()


def service_stats_view(snapshot: dict) -> dict:
    """Render a registry snapshot as the legacy ``stats()`` dict.

    The single mapping from metric names to the public ``stats()`` keys,
    shared by :meth:`RecommenderService.stats` and the sharded front-end
    (which applies it to *merged* worker snapshots so per-shard views
    survive worker restarts).  Key names and nesting are the pre-registry
    contract — do not rename.
    """
    c = snapshot.get("counters", {})
    g = snapshot.get("gauges", {})
    return {
        "requests": int(c.get("serve.requests", 0)),
        "cache": {
            "size": int(g.get("serve.cache.size", 0)),
            "maxsize": int(g.get("serve.cache.maxsize", 0)),
            "hits": int(c.get("serve.cache.hits", 0)),
            "misses": int(c.get("serve.cache.misses", 0)),
            "evictions": int(c.get("serve.cache.evictions", 0)),
        },
        "adaptation": {
            "batches": int(c.get("serve.adapt.batches", 0)),
            "users": int(c.get("serve.adapt.users", 0)),
            "pending": int(g.get("serve.adapt.pending", 0)),
        },
        "stream": {
            "events": int(c.get("serve.stream.events", 0)),
            "refreshes": int(c.get("serve.stream.refreshes", 0)),
            "dirty_users": int(g.get("serve.stream.dirty_users", 0)),
            "observed_users": int(g.get("serve.stream.observed_users", 0)),
        },
    }


@dataclass(frozen=True)
class ServeRequest:
    """One ``recommend`` call as data, for batch and cross-process serving.

    The wire unit of the sharded front-end: a flush of these is resolved by
    :meth:`RecommenderService.recommend_batch` with one batched adaptation
    pass and per-request solo scoring.

    ``deadline`` is an absolute wall-clock time (``time.time()``, the one
    clock processes share): past it the worker skips the request instead of
    adapting/scoring it, returning a :class:`DeadlineSkipped` marker in its
    slot so the front-end can answer degraded.
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


@dataclass
class _PendingAdaptation:
    """A cache-missed user riding into a micro-batch flush un-adapted.

    The flush resolves all pending entries with one ``adapt_users`` call,
    so a burst of cold-start users pays one vectorized inner loop instead
    of one fine-tuning run per request.
    """

    user_row: int
    task: PreferenceTask | None


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
        # Per-instance registry: every counter the old hand-rolled
        # attributes tracked now lives here, so stats() is a pure view
        # over a snapshot and cross-process merging comes for free.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.add_collector(self._collect_metrics)
        self._batcher: MicroBatcher | None = None
        if batching:
            self._batcher = MicroBatcher(
                self._score_flush,
                max_batch=max_batch,
                metrics=self.metrics,
            )

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
        cross-process merging because each worker owns its own cache.
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

    # Legacy counter attributes, now read-only views over the registry.
    @property
    def n_requests(self) -> int:
        return int(self.metrics.counter("serve.requests"))

    @property
    def n_events(self) -> int:
        return int(self.metrics.counter("serve.stream.events"))

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
        if not 0 <= key < serving.n_users:
            raise ValueError(f"user_row {key} out of range [0, {serving.n_users})")
        if not 0 <= item < serving.n_items:
            raise ValueError(f"item_row {item} out of range [0, {serving.n_items})")
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
        key = int(user_row)
        with self._cache_lock:
            entry = self._cache.get(key, _MISS)
        if entry is not _MISS:
            cached_fp, state = entry
            # A caller explicitly passing *different* history is announcing
            # fresh interactions — the cached adaptation is stale for it.
            if task is None or (
                cached_fp is not None and task_fingerprint(task) == cached_fp
            ):
                return True, state, cached_fp
        return False, None, task if task is not None else self._tasks.get(key)

    def _store_state(self, user_row: int, task: PreferenceTask | None, state) -> None:
        fingerprint = task_fingerprint(task) if task is not None else None
        with self._cache_lock:
            self._cache.put(int(user_row), (fingerprint, state))

    def _count_adaptation(self, n_users: int) -> None:
        self.metrics.inc("serve.adapt.batches")
        self.metrics.inc("serve.adapt.users", n_users)

    def _adapt_users(self, tasks: list[PreferenceTask | None]) -> list:
        """Every batched ``adapt_users`` call funnels through here."""
        if self._adapt_hook is not None:
            self._adapt_hook(len(tasks))
        return self.method.adapt_users(tasks)

    def _adapted_state(self, user_row: int, task: PreferenceTask | None):
        hit, state, effective = self._cached_state(user_row, task)
        if hit:
            return state
        if self._adapt_hook is not None:
            self._adapt_hook(1)
        with self.metrics.span("serve.adapt", size=1):
            state = self.method.adapt_user(effective)
        self._count_adaptation(1)
        self._store_state(user_row, effective, state)
        return state

    def _score_flush(self, states, instances):
        """Micro-batch scorer: batch-adapt pending users, then score.

        Entries arriving as :class:`_PendingAdaptation` (cache misses at
        submit time) are resolved here with a single ``adapt_users`` call —
        the whole flush's cold-start fine-tuning in one vectorized inner
        loop — and the fresh states are written back to the LRU cache
        before scoring.
        """
        pending = [
            (i, entry)
            for i, entry in enumerate(states)
            if isinstance(entry, _PendingAdaptation)
        ]
        if pending:
            # The decrement rides a finally so a raising adapt_users (the
            # exception lands on every waiter's future) cannot leak backlog
            # depth into the stats forever.
            try:
                with self.metrics.span("serve.adapt", size=len(pending)):
                    adapted = self._adapt_users(
                        [entry.task for _, entry in pending]
                    )
                self._count_adaptation(len(pending))
                states = list(states)
                for (i, entry), state in zip(pending, adapted):
                    states[i] = state
                    self._store_state(entry.user_row, entry.task, state)
            finally:
                self.metrics.inc_gauge("serve.adapt.pending", -len(pending))
        with self.metrics.span("serve.score", size=len(instances)):
            return self.method.score_with_state_batch(states, instances)

    def _candidates_for(self, user_row: int, exclude_seen: bool) -> np.ndarray:
        serving = self.method.serving
        if not 0 <= user_row < serving.n_users:
            raise ValueError(
                f"user_row {user_row} out of range [0, {serving.n_users})"
            )
        pool = self._pool
        if exclude_seen:
            pool = pool[~serving.seen[user_row, pool]]
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
        """Top-``k`` unseen items for one user, with cached adaptation.

        The first call for a user pays the method's ``adapt_user`` cost;
        subsequent calls reuse the cached state and only pay one forward.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        pool = self._candidates_for(int(user_row), exclude_seen)
        self.metrics.inc("serve.requests")
        if pool.size == 0:
            empty = np.array([], dtype=int)
            return Recommendation(int(user_row), empty, np.array([], dtype=float))
        instance = EvalInstance(
            user_row=int(user_row), pos_item=int(pool[0]), neg_items=pool[1:]
        )
        self.metrics.observe("serve.score.candidates", pool.size)
        if self._batcher is not None:
            # Defer cache-missed adaptation into the flush so concurrent
            # cold-start users are fine-tuned together by adapt_users.
            hit, state, effective = self._cached_state(user_row, task)
            if not hit:
                state = _PendingAdaptation(int(user_row), effective)
                self.metrics.inc_gauge("serve.adapt.pending", 1)
            scores = self._batcher.score(state, instance)
        else:
            adapted = self._adapted_state(user_row, task)
            with self.metrics.span("serve.score", size=1):
                scores = self.method.score_with_state(adapted, instance)
        scores = np.asarray(scores, dtype=float)
        order = top_k_order(scores, k)
        return Recommendation(int(user_row), pool[order], scores[order])

    def recommend_batch(
        self, requests: list[ServeRequest]
    ) -> list[Recommendation | DeadlineSkipped]:
        """Serve a flush of requests: batched adaptation, solo scoring.

        Cache-missed users are fine-tuned *together* through one
        ``adapt_users`` call (for MAML methods one vectorized inner loop
        over same-width chunks), but every request is then scored through
        the same ``score_with_state`` call :meth:`recommend` uses — so the
        results are bit-identical to serving the requests one at a time,
        and to :meth:`recommend_many` for the same users.  This is the
        shard worker's entry point.

        Requests whose :attr:`ServeRequest.deadline` already passed are not
        adapted or scored; their slot holds a :class:`DeadlineSkipped`
        marker instead.  Deadline-free requests take the exact historical
        path — skipping a stale neighbour cannot change their scores, since
        adaptations are independent per (user, task).
        """
        # Validate the whole flush (and compute candidate pools) before any
        # adaptation, cache write, or counter bump — one bad request fails
        # the call with *no* partial state left behind.
        for request in requests:
            if request.k <= 0:
                raise ValueError("k must be positive")
        pools = [
            self._candidates_for(int(r.user_row), r.exclude_seen)
            for r in requests
        ]
        expired = [
            r.deadline is not None and time.time() >= r.deadline
            for r in requests
        ]
        # Replay the sequential cache protocol: per user, an explicit new
        # task (by value fingerprint) invalidates earlier state, later
        # requests reuse the freshest adaptation — without adapting anything
        # yet.  ``plan`` holds one ("state", s) or ("slot", i) entry per
        # request; ``slots`` lists the distinct (user, task) adaptations in
        # first-need order; ``latest`` maps each user to their freshest
        # task fingerprint.
        plan: list[tuple[str, object]] = []
        slots: list[tuple[int, PreferenceTask | None]] = []
        latest: dict[int, tuple[bytes | None, tuple[str, object]]] = {}
        for request, skip in zip(requests, expired):
            if skip:
                plan.append(("skip", None))
                continue
            key = int(request.user_row)
            task = request.task
            if key in latest:
                prior_fp, entry = latest[key]
                if task is None or (
                    prior_fp is not None and task_fingerprint(task) == prior_fp
                ):
                    plan.append(entry)
                    continue
            else:
                hit, state, extra = self._cached_state(key, task)
                if hit:
                    entry = ("state", state)
                    latest[key] = (extra, entry)
                    plan.append(entry)
                    continue
                task = extra
            entry = ("slot", len(slots))
            slots.append((key, task))
            latest[key] = (
                task_fingerprint(task) if task is not None else None,
                entry,
            )
            plan.append(entry)
        adapted: list = []
        if slots:
            with self.metrics.span("serve.adapt", size=len(slots)):
                adapted = self._adapt_users([task for _, task in slots])
            self._count_adaptation(len(slots))
            for (user, task), state in zip(slots, adapted):
                self._store_state(user, task, state)
        self.metrics.inc("serve.requests", len(requests))
        results: list[Recommendation | DeadlineSkipped] = []
        empty = np.array([], dtype=int)
        n_skipped = sum(expired)
        self.metrics.observe_many(
            "serve.score.candidates",
            [pool.size for pool, skip in zip(pools, expired) if not skip],
        )
        with self.metrics.span("serve.score", size=len(requests)):
            for request, pool, (kind, value) in zip(requests, pools, plan):
                user = int(request.user_row)
                if kind == "skip" or (
                    request.deadline is not None
                    and time.time() >= request.deadline
                ):
                    # Expired at entry, or while earlier requests in this
                    # flush were being adapted/scored.
                    if kind != "skip":
                        n_skipped += 1
                    results.append(DeadlineSkipped(user))
                    continue
                if pool.size == 0:
                    results.append(
                        Recommendation(user, empty, np.array([], dtype=float))
                    )
                    continue
                instance = EvalInstance(
                    user_row=user, pos_item=int(pool[0]), neg_items=pool[1:]
                )
                state = value if kind == "state" else adapted[value]
                scores = np.asarray(
                    self.method.score_with_state(state, instance), dtype=float
                )
                order = top_k_order(scores, request.k)
                results.append(Recommendation(user, pool[order], scores[order]))
        if n_skipped:
            self.metrics.inc("serve.deadline_skipped", n_skipped)
        return results

    def _states_for(self, user_rows: list[int]) -> list:
        """Adapted state per user: cached where possible, batch-adapted else.

        The shared backend of :meth:`recommend_many` and
        :meth:`score_instances` — cache misses are fine-tuned together with
        one ``adapt_users`` call and written back to the LRU.
        """
        lookups = [self._cached_state(u, None) for u in user_rows]
        misses: dict[int, PreferenceTask | None] = {}
        for user, (hit, _, effective) in zip(user_rows, lookups):
            if not hit and int(user) not in misses:
                misses[int(user)] = effective
        fresh: dict[int, object] = {}
        if misses:
            with self.metrics.span("serve.adapt", size=len(misses)):
                adapted = self._adapt_users(list(misses.values()))
            self._count_adaptation(len(misses))
            fresh = dict(zip(misses, adapted))
            for user, task in misses.items():
                self._store_state(user, task, fresh[user])
        return [
            state if hit else fresh[int(user)]
            for user, (hit, state, _) in zip(user_rows, lookups)
        ]

    def score_instances(self, instances: list[EvalInstance]) -> list[np.ndarray]:
        """Score eval instances through the full serving path.

        Each instance's user is served with their current adaptation state
        (cached, or batch-adapted from registered + observed history), so
        offline evaluation measures exactly what the service would return —
        the temporal-split protocol's entry point.
        """
        states = self._states_for([int(inst.user_row) for inst in instances])
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
        """Serve a batch of users through one ``score_with_state_batch``.

        Users without a cached adaptation are fine-tuned *together* through
        the method's ``adapt_users`` (one vectorized inner loop for the
        whole batch) before scoring, which is per user: the answers equal
        :meth:`recommend` bit for bit.
        """
        states = self._states_for(user_rows)
        pools = [self._candidates_for(int(u), exclude_seen) for u in user_rows]
        kept = [i for i, pool in enumerate(pools) if pool.size > 0]
        instances = [
            EvalInstance(
                user_row=int(user_rows[i]),
                pos_item=int(pools[i][0]),
                neg_items=pools[i][1:],
            )
            for i in kept
        ]
        self.metrics.inc("serve.requests", len(user_rows))
        self.metrics.observe_many(
            "serve.score.candidates", [pools[i].size for i in kept]
        )
        with self.metrics.span("serve.score", size=len(instances)):
            score_lists = self.method.score_with_state_batch(
                [states[i] for i in kept], instances
            )
        empty = np.array([], dtype=int)
        results = [
            Recommendation(int(u), empty, np.array([], dtype=float))
            for u in user_rows
        ]
        for i, scores in zip(kept, score_lists):
            scores = np.asarray(scores, dtype=float)
            order = top_k_order(scores, k)
            results[i] = Recommendation(
                int(user_rows[i]), pools[i][order], scores[order]
            )
        return results

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Request, cache, adaptation and batching counters.

        A pure view over ``self.metrics.snapshot()`` (see
        :func:`service_stats_view` for the name mapping); histograms ride
        along in the snapshot itself for callers that want latencies.
        ``adaptation.pending`` is the number of cache-missed requests
        currently waiting for a micro-batch flush to fine-tune them — the
        cold-start backlog depth at this instant.
        """
        out = service_stats_view(self.metrics.snapshot())
        if self._batcher is not None:
            out["batching"] = self._batcher.stats()
        return out

    def close(self) -> None:
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
