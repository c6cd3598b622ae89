"""Micro-batching request queue for the serving tiers.

The :class:`MicroBatcher` flushes on idle: its worker thread takes the
oldest queued request plus whatever else is already queued (up to
``max_batch``) and flushes at once.  The worker blocks on each flush, so
requests that arrive meanwhile pile up and leave together in the next one:
coalescing happens exactly when the flush target is busy, and a lone
request never waits (Nagle's algorithm, RFC 896).

The batcher carries one opaque payload per request: ``submit(item)``
returns a future, and ``flush(items)`` must return one result per item, in
order.  Both serving tiers queue :class:`~repro.service.ServeRequest`
objects.  In-process the flush is ``RecommenderService.recommend_batch``,
the request core, which fine-tunes every cache-missed user in the flush
with one adaptation pass; the sharded front-end's flush sends the items to
a worker as one RPC, which the worker answers with the same core.  Scoring
stays per request — each request's answer is exactly the one a solo call
returns.

The batching loop is factored into :meth:`process_once` so tests can drive
it deterministically (``autostart=False``); in production a daemon worker
thread runs it continuously.

The batcher counts nothing itself: its facts are the owner's registry's
``serve.batch.size`` histogram (flushes, requests carried, largest flush)
and ``serve.queue_wait.seconds``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs import MetricsRegistry

#: signature of the flush: one result per queued item, in order
FlushFn = Callable[[list[Any]], Sequence[Any]]


def _closed_flush(items: list[Any]) -> Sequence[Any]:
    raise RuntimeError("batcher is closed")


@dataclass
class _Request:
    item: Any
    future: Future = field(default_factory=Future)
    submitted: float = field(default_factory=time.perf_counter)


class MicroBatcher:
    """Coalesce concurrent requests into batched flushes.

    Each flush holds every request queued when the worker became idle;
    requests submitted during a flush ride the next one together.

    Parameters
    ----------
    flush:
        called with a list of queued items; returns one result per item.
    max_batch:
        largest number of requests folded into one call.
    autostart:
        start the daemon worker thread; tests pass ``False`` and call
        :meth:`process_once` by hand.
    metrics:
        optional :class:`~repro.obs.MetricsRegistry`; when given (and
        enabled), each flush records per-request queue wait into
        ``serve.queue_wait.seconds`` and the flush size into
        ``serve.batch.size``, whose ``count`` is the number of flushes,
        ``sum`` the requests they carried and ``max`` the largest flush.
    """

    def __init__(
        self,
        flush: FlushFn,
        max_batch: int = 32,
        autostart: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self._flush = flush
        self.max_batch = max_batch
        self._queue: queue.Queue[_Request | None] = queue.Queue()
        self._closed = False
        self._metrics = metrics
        self._worker: threading.Thread | None = None
        if autostart:
            self._worker = threading.Thread(
                target=self._run, name="repro-microbatcher", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------------
    def submit(self, item: Any) -> Future:
        """Enqueue one item; the future resolves to its flush result."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        request = _Request(item)
        self._queue.put(request)
        return request.future

    # ------------------------------------------------------------------
    def _collect(self, block: bool) -> list[_Request]:
        """Gather one batch: the oldest request plus everything already queued."""
        batch: list[_Request] = []
        try:
            first = self._queue.get(block=block, timeout=0.1 if block else None)
        except queue.Empty:
            return batch
        if first is None:  # close sentinel
            return batch
        batch.append(first)
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                break
            batch.append(item)
        return batch

    def process_once(self, block: bool = False) -> int:
        """Collect and flush one batch; returns how many requests it served."""
        batch = self._collect(block=block)
        if not batch:
            return 0
        if self._metrics is not None and self._metrics.enabled:
            now = time.perf_counter()
            for request in batch:
                self._metrics.observe(
                    "serve.queue_wait.seconds", now - request.submitted
                )
            self._metrics.observe("serve.batch.size", len(batch))
        try:
            results = self._flush([r.item for r in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"flush returned {len(results)} results for {len(batch)} requests"
                )
            for request, result in zip(batch, results):
                request.future.set_result(result)
        except Exception as exc:  # propagate to every waiting caller
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        return len(batch)

    def _run(self) -> None:
        while not self._closed:
            self.process_once(block=True)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker; pending requests are still served.

        Once the worker has exited, the batcher also drops its flush, which
        is usually a bound method of the batcher's owner, so that owner is
        freed by reference counting instead of waiting for the cyclic GC.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)  # wake the worker so it can exit
        if self._worker is not None:
            self._worker.join(timeout=1.0)
        # Serve anything that raced past the sentinel.
        while self.process_once(block=False):
            pass
        if self._worker is None or not self._worker.is_alive():
            self._flush = _closed_flush

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
