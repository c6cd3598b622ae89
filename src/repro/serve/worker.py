"""The shard worker process: one serving facade over a mapped artifact.

Each worker is a child process running :func:`run_worker` over one end of a
duplex pipe.  It loads the shared artifact with ``mmap_mode`` (O(open)
startup; all workers share one page-cache copy of the weights), wraps it in
its own :class:`~repro.service.RecommenderService` — private adaptation LRU,
private metrics registry — and then answers a tiny RPC protocol::

    parent -> worker:  (req_id, kind, payload)
    worker -> parent:  (req_id, ok, result_or_error)

Kinds: ``batch`` (a flush of :class:`~repro.service.ServeRequest`, answered
by the request core ``recommend_batch`` — one adaptation pass per flush,
per-request scoring), ``register`` / ``invalidate`` / ``observe``
(history bookkeeping and event-log ingest), ``refresh`` (reptile
meta-refresh from observed tasks), ``stats`` (``{"pid", "metrics"}``:
the worker's process id and its registry snapshot), ``ping`` and
``shutdown``.  Any per-request exception is reported back as
``(req_id, False, message)``; the worker only exits on ``shutdown`` or a
closed pipe, so one bad request never kills the shard.

The module is import-light and the entry point takes only picklable
arguments (path string, a frozen options dataclass), so it is spawn-safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing.connection import Connection

import numpy as np

#: req_id of unsolicited worker -> parent control messages (the ready
#: handshake); real request ids start at 0.
CONTROL_ID = -1


@dataclass(frozen=True)
class WorkerOptions:
    """Per-worker serving configuration, pickled into the child process."""

    mmap_mode: str | None = "r"
    cache_size: int = 256
    candidate_pool: np.ndarray | None = None
    refresh_every: int = 0
    refresh_lr: float = 0.1
    refresh_steps: int | None = None
    #: optional :class:`repro.serve.faults.FaultPlan`; ``None`` (the
    #: default) arms nothing and the serving loop pays no hook cost.
    fault_plan: object | None = None


def run_worker(
    conn: Connection,
    artifact: str,
    options: WorkerOptions,
    shard_index: int = 0,
    incarnation: int = 0,
) -> None:
    """Worker main loop: serve RPCs from ``conn`` until shutdown or EOF.

    ``shard_index`` / ``incarnation`` identify this process to the fault
    plan (if any): the injector only arms faults targeting this shard and
    worker generation.  A failed artifact load — injected or real — is
    reported as ``(CONTROL_ID, False, message)`` before exiting, so the
    parent's ``wait_ready`` can fail fast instead of hanging.
    """
    from repro.service import RecommenderService

    injector = None
    if options.fault_plan is not None:
        injector = options.fault_plan.injector(shard_index, incarnation)
    try:
        if injector is not None:
            injector.on_load()
        service = RecommenderService.from_artifact(
            artifact,
            mmap_mode=options.mmap_mode,
            cache_size=options.cache_size,
            candidate_pool=options.candidate_pool,
            refresh_every=options.refresh_every,
            refresh_lr=options.refresh_lr,
            refresh_steps=options.refresh_steps,
            adapt_hook=injector.on_adapt if injector is not None else None,
        )
    except Exception as exc:
        try:
            conn.send((CONTROL_ID, False, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    if injector is not None:
        service.metrics.add_collector(_faults_collector(injector))
    conn.send((CONTROL_ID, True, {"event": "ready", "pid": os.getpid()}))
    try:
        while True:
            try:
                req_id, kind, payload = conn.recv()
            except (EOFError, OSError):
                break
            if kind == "shutdown":
                conn.send((req_id, True, None))
                break
            if injector is not None and kind == "batch":
                # The rpc event stream counts serving flushes only — not
                # control traffic like the supervisor's stats polls, whose
                # cadence would make "the Nth RPC" timing-dependent.
                injector.on_rpc(conn)
            try:
                result = _handle(service, kind, payload)
            except Exception as exc:  # report, don't die: the shard lives on
                conn.send((req_id, False, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send((req_id, True, result))
    finally:
        conn.close()


def _faults_collector(injector):
    """Mirror the injector's fired-fault tally into the worker registry."""

    def collect(reg) -> None:
        total = 0
        for kind, n in injector.injected.items():
            reg.set_counter(f"serve.faults.{kind}", n)
            total += n
        reg.set_counter("serve.faults.injected", total)

    return collect


def _handle(service, kind: str, payload):
    if kind == "batch":
        return service.recommend_batch(payload)
    if kind == "register":
        service.register_user_history(payload)
        return None
    if kind == "invalidate":
        service.invalidate_user(int(payload))
        return None
    if kind == "observe":
        user_row, item_row, rating = payload
        service.observe(int(user_row), int(item_row), float(rating))
        return None
    if kind == "refresh":
        meta_lr, steps = payload
        return service.meta_refresh(meta_lr=meta_lr, steps=steps)
    if kind == "stats":
        # The registry snapshot lets the front-end merge per-shard metrics
        # (and keep a last-known copy that survives this worker's death —
        # see ShardedService._revive).
        return {"pid": os.getpid(), **service.stats()}
    if kind == "ping":
        return "pong"
    raise ValueError(f"unknown request kind: {kind!r}")
