"""Flat-combining request coalescer for both serving tiers.

A :class:`Coalescer` is a FIFO queue and an in-flight flag; it owns no
thread.  A request that finds no flush in flight starts one at once, on the
thread that submitted it, so a lone request never waits (Nagle's algorithm,
RFC 896).  Requests that arrive meanwhile queue up, and the thread that
sees the flush end takes up to ``max_batch`` of them as the next one: flat
combining (Hendler, Incze, Shavit and Tzafrir, SPAA 2010), with the
combiner's role passed on at the end of every flush.

- In-process (:meth:`Coalescer.call`), a flush is a call of
  ``RecommenderService.recommend_batch``.  The caller that finds the core
  idle runs it.  When it ends with requests queued, its thread hands them
  to the oldest waiting caller, which runs them on its own thread, so a
  caller runs at most one flush: the one that carries its own request.
- Sharded (:meth:`~Coalescer.admit` and :meth:`~Coalescer.take` under the
  shard's lock), a flush is one ``batch`` RPC, sent by the submitting
  thread to an idle shard and by the shard's pipe reader on each reply.

Each flush records ``serve.queue_wait.seconds`` (submit until the request's
flush starts) and one ``serve.batch.size`` observation in the owner's
registry: its ``count`` is the flushes, ``sum`` the requests they carried.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.obs import MetricsRegistry

#: signature of a synchronous flush: one result per item, in order
FlushFn = Callable[[list[Any]], Sequence[Any]]


class Request:
    """One item and the future its result goes to.  A caller running its
    own flush in :meth:`Coalescer.call` needs none; ``wake`` and
    ``handoff`` serve one waiting there."""

    __slots__ = ("item", "future", "submitted", "wake", "handoff")

    def __init__(self, item: Any, future: Future | None = None):
        self.item = item
        self.future = future
        self.submitted = perf_counter()
        self.wake: threading.Event | None = None
        self.handoff: list[Request] | None = None


def settle(
    batch: list[Request], outcome: Sequence[Any] | BaseException
) -> Sequence[Any] | BaseException:
    """Resolve a finished flush, running its futures' callbacks on this
    thread: one result per request, or one error for all.  Returns the
    outcome, which is an error if the flush miscounted its results."""
    if not isinstance(outcome, BaseException) and len(outcome) != len(batch):
        outcome = RuntimeError(f"flush returned {len(outcome)} results for {len(batch)}")
    for i, request in enumerate(batch):
        if request.future is None:
            continue
        if isinstance(outcome, BaseException):
            request.future.set_exception(outcome)
        else:
            request.future.set_result(outcome[i])
        if request.wake is not None:
            request.wake.set()
    return outcome


class Coalescer:
    """Coalesce concurrent requests into flushes without a thread of its own.

    ``lock`` guards the queue and the in-flight flag (the sharded front-end
    passes its shard's lock); :meth:`admit`, :meth:`take` and :meth:`drain`
    run under it.  ``metrics`` (optional) gets the flush observations.
    """

    def __init__(
        self,
        max_batch: int = 32,
        metrics: MetricsRegistry | None = None,
        lock: threading.Lock | None = None,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self.lock = lock if lock is not None else threading.Lock()
        self.queue: deque[Request] = deque()
        self.busy = False
        self.closed = False
        self._idle = threading.Condition(self.lock)
        self._metrics = metrics

    def admit(self, request: Request) -> list[Request] | None:
        """Queue ``request``; when no flush was in flight, it alone is the
        flush the caller must now start.  Raises once closed."""
        if self.closed:
            raise RuntimeError("service is closed")
        if self.busy:
            self.queue.append(request)
            return None
        self.busy = True
        return self._start([request])

    def take(self) -> list[Request] | None:
        """The flush in flight ended: the next one, or ``None`` (idle)."""
        if self.queue:
            n = min(len(self.queue), self.max_batch)
            return self._start([self.queue.popleft() for _ in range(n)])
        self.busy = False
        if self.closed:  # only close() waits for idle, and only once closed
            self._idle.notify_all()
        return None

    def drain(self) -> list[Request]:
        """Go idle, giving up the queued requests (the caller's to fail)."""
        queued = list(self.queue)
        self.queue.clear()
        self.take()
        return queued

    def _start(self, batch: list[Request]) -> list[Request]:
        metrics = self._metrics
        if metrics is not None and metrics.enabled:
            now = perf_counter()
            waits = [now - request.submitted for request in batch]
            if len(waits) == 1:
                metrics.observe("serve.queue_wait.seconds", waits[0])
            else:
                metrics.observe_many("serve.queue_wait.seconds", waits)
            metrics.observe("serve.batch.size", len(batch))
        return batch

    def call(self, flush: FlushFn, item: Any) -> Any:
        """Answer ``item`` through a flush of ``flush``, run on this thread
        if the coalescer is idle; otherwise wait until a flush carrying it
        is answered, or handed to this thread to run."""
        request = Request(item)
        with self.lock:
            batch = self.admit(request)
            if batch is None:
                request.future, request.wake = Future(), threading.Event()
        if batch is None:
            request.wake.wait()
            batch = request.handoff
            if batch is None:  # another caller's flush answered it
                return request.future.result()
        try:
            outcome = flush([r.item for r in batch])
        except BaseException as exc:  # every request gets it, and it is re-raised
            outcome = exc
        with self.lock:
            following = self.take()
        if following is not None:
            following[0].handoff = following
            following[0].wake.set()
        outcome = settle(batch, outcome)
        if request.future is not None:
            return request.future.result()
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome[0]

    def close(self) -> None:
        """Refuse new requests and wait until every admitted one is flushed."""
        with self.lock:
            self.closed = True
            while self.busy:
                self._idle.wait()
