"""`ShardedService`: N supervised worker processes behind one front-end.

Layout
------
Requests are routed by ``user_row % n_workers``, so each worker's
adaptation LRU owns a disjoint slice of the user base — no cross-worker
cache duplication.  The front-end checks every request and event against
the artifact's shape before queueing it (:func:`~repro.service.service
.check_request`), so a bad one fails at its own call.  Each shard has a
flat-combining :class:`~repro.service.batching.Coalescer` and at most one
flush in flight; no thread waits on a flush.  A request reaching an idle
shard is sent at once by the thread that submitted it, requests submitted
meanwhile coalesce (up to ``max_batch``), and the shard's pipe reader sends
them as the next flush when the reply comes.  A flush crosses the process
boundary as **one** ``batch`` RPC, and the worker answers it with
``RecommenderService.recommend_batch``, the request core of the
in-process tier: one adaptation pass for the flush's cold-start users,
per-request scoring.

Because the workers memory-map one shared artifact and run the same core
the single-process facade runs, the sharded answers are bit-identical to
sequential single-process serving for the same request stream.

Submit path and metrics
-----------------------
Every request takes one path: ``submit`` → ``_dispatch`` (admission) →
a flush of its shard → ``_settle`` (resolve, retry or degrade).  A
:class:`~repro.serve.resilience.ResilienceConfig` decides what the path
arms; ``resilience=None`` arms nothing.  ``stats()`` is the registry
snapshot merged over the front-end and every worker.  Each counter has one
writer: the worker cores count ``serve.requests`` and the front-end
accounts each request with exactly one ``serve.responses.{ok,degraded,
error}`` outcome.

Supervision
-----------
A heartbeat thread polls worker liveness and each shard's pipe reader
detects EOF on death; either path restarts the worker against the same
mmap'd artifact with a cleared cache (generation counter makes the two
detectors idempotent).  In-flight requests of a dead worker are resubmitted
once to its replacement; a request that kills two workers in a row gets its
error instead of an infinite crash loop.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.interface import Recommendation
from repro.data.tasks import PreferenceTask
from repro.nn.serialization import load_params
from repro.obs import MetricsRegistry, merge_snapshots, strip_gauges
from repro.service.batching import Coalescer, Request, settle
from repro.service.service import (
    DeadlineSkipped,
    ServeRequest,
    check_event,
    check_request,
)
from repro.serve.faults import FaultPlan
from repro.serve.resilience import (
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    PopularityFallback,
    ResilienceConfig,
    ServiceOverloaded,
)
from repro.serve.worker import CONTROL_ID, WorkerOptions, run_worker

#: default resubmits after a worker death: one replacement try, then fail
#: the call (``resubmit_limit`` on the constructor overrides).
_MAX_ATTEMPTS = 2

#: consecutive died-before-ready incarnations after which a shard is
#: marked permanently failed instead of revived (stops load-crash loops
#: and lets ``wait_ready`` fail fast).
_STARTUP_FAILURE_LIMIT = 2

#: the resilience of ``resilience=None``: no default deadline, no shedding,
#: no retries and no fallback (breakers are built only for a caller's
#: config), so every request rides the one submit path with nothing armed.
_UNARMED = ResilienceConfig(fallback=False)

#: how long a pipe reader waits for its shard lock before it reads on.
_LOCK_POLL_S = 0.001

#: numbers each front-end, whose thread names carry it (see ``health``).
_FRONT_ENDS = itertools.count()

#: counter bumped on each breaker transition, keyed by the new state.
_BREAKER_COUNTERS = {
    "open": "serve.breaker.opened",
    "half-open": "serve.breaker.half_open",
    "closed": "serve.breaker.closed",
}

#: counter bumped for each degraded or failed request, keyed by the reason
#: (``failure`` has only its ``serve.{degraded,failed}.failure`` tally).
_REASON_COUNTERS = {
    "deadline": "serve.deadline_exceeded",
    "shed": "serve.shed",
    "breaker": "serve.breaker.rejected",
}


@dataclass
class _PendingCall:
    """An RPC awaiting its worker reply (or a resubmit after a restart).
    A ``batch`` RPC resolves its ``flush`` instead of a ``future``."""

    future: Future | None
    kind: str
    payload: object
    attempts: int = 1
    flush: list[Request] | None = None
    sent: float = 0.0

    def finish(self, outcome) -> None:
        """Resolve the call with its reply, or with an exception."""
        if self.flush is not None:
            settle(self.flush, outcome)
        elif isinstance(outcome, BaseException):
            self.future.set_exception(outcome)
        else:
            self.future.set_result(outcome)


@dataclass
class _Shard:
    """Parent-side state of one worker: pipe, pending RPCs, coalescer.
    ``lock`` guards the pipe's write end, ``pending`` and ``flushes``."""

    index: int
    lock: threading.Lock = field(default_factory=threading.Lock)
    pending: dict[int, _PendingCall] = field(default_factory=dict)
    next_id: int = 0
    generation: int = 0
    restarts: int = 0
    proc: mp.process.BaseProcess | None = None
    conn: object = None
    ready: threading.Event = field(default_factory=threading.Event)
    flushes: Coalescer | None = None
    #: freshest registry snapshot received from the live worker (updated
    #: by stats() RPCs and the supervisor's heartbeat polls).
    last_metrics: dict | None = None
    #: accumulated gauge-stripped snapshots of every dead predecessor —
    #: the fold that keeps counters from vanishing on restart.
    retired_metrics: dict | None = None
    metrics_poll_pending: bool = False
    #: last startup error reported over the pipe (CONTROL_ID, False, msg).
    start_error: str | None = None
    #: consecutive incarnations that died before signalling ready.
    startup_failures: int = 0
    #: set once the shard is declared permanently unable to start; the
    #: reason string.  A failed shard is never revived again.
    failed: str | None = None
    #: per-shard circuit breaker; only armed with a resilience config.
    breaker: CircuitBreaker | None = None
    #: requests admitted and not yet settled (with ``max_pending`` armed).
    inflight: int = 0


@dataclass
class _Submission:
    """One submitted request's lifecycle state on the front-end.

    The outer future is what the caller holds; it is resolved exactly once
    by whichever finishes first — the shard's answer, a retry's answer, the
    deadline watchdog, or an immediate shed/breaker/failed-shard rejection.
    Every resolver first tries to :meth:`claim` the call; only the winner
    counts the outcome, and it counts before it resolves the future, so a
    caller woken by its answer finds that answer already counted.
    """

    request: ServeRequest
    shard: "_Shard"
    outer: Future
    deadline: float | None
    attempts: int = 0
    timer: threading.Timer | None = None
    claimed: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)

    def claim(self) -> bool:
        """Whether this resolver won the call: it is the first to claim it
        and the caller had not cancelled the future, which no longer can be."""
        with self.lock:
            if self.claimed:
                return False
            self.claimed = True
        return self.outer.set_running_or_notify_cancel()


def _receive(conn, replies: list, wait: bool) -> bool:
    """Append the next reply (``wait``) or every waiting one to ``replies``;
    ``False`` once the pipe has ended."""
    try:
        if wait:
            replies.append(conn.recv())
        else:
            while conn.poll():
                replies.append(conn.recv())
    except (EOFError, OSError):
        return False
    except TypeError:
        # ``_revive``/``close`` closed the pipe between recv's closed-check
        # and its read (CPython then reads fd None): that is end of pipe.
        if not conn.closed:
            raise
        return False
    return True


def default_start_method() -> str:
    """The repo's process-start idiom: fork when available, else spawn."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class ShardedService:
    """Serve one artifact from N supervised worker processes.

    Parameters
    ----------
    artifact:
        path of a ``Recommender.save`` archive; every worker maps it.
    n_workers:
        shard count; requests route by ``user_row % n_workers``.
    cache_size:
        per-worker adaptation LRU capacity.
    candidate_pool:
        optional global candidate restriction, forwarded to every worker.
    max_batch:
        most requests one per-shard flush carries (see
        :class:`~repro.service.batching.Coalescer`).
    max_wait_ms:
        ignored.  Flushes start on idle and have no timed window; the
        keyword is still accepted so existing callers keep working.
    mmap_mode:
        how workers load the artifact; ``"r"`` (default) maps it read-only,
        ``None`` forces the old eager load.
    start_method:
        multiprocessing start method; default fork-where-available.  The
        worker entry point is spawn-safe.
    heartbeat_interval:
        seconds between supervisor liveness polls.
    request_timeout:
        upper bound on one cross-process flush (the supervisor's heartbeat
        fails an older one with ``TimeoutError``) and on each blocking
        call; ``None`` waits forever.
    resubmit_limit:
        how many times an in-flight request is resubmitted to a revived
        worker after a death before its future gets the error.
    resilience:
        optional :class:`~repro.serve.resilience.ResilienceConfig`; arms
        per-shard circuit breakers, bounded admission, retries, deadlines
        and the degraded popularity fallback.  ``None`` (default) runs the
        same submit path with nothing armed: no deadline, shedding, retry,
        fallback or breaker, so a failed request gets its error and the
        answers are bit-identical to single-process serving.
    fault_plan:
        optional :class:`~repro.serve.faults.FaultPlan` armed inside every
        worker, for chaos tests; ``None`` injects nothing.

    ``n_users`` and ``n_items`` are the artifact's user and item counts,
    read once from its ``serving.seen`` shape; the front-end checks every
    request and event against them.
    """

    def __init__(
        self,
        artifact: str | Path,
        n_workers: int = 2,
        *,
        cache_size: int = 256,
        candidate_pool: np.ndarray | None = None,
        max_batch: int = 32,
        max_wait_ms: float | None = None,
        mmap_mode: str | None = "r",
        start_method: str | None = None,
        heartbeat_interval: float = 0.5,
        request_timeout: float | None = 60.0,
        resubmit_limit: int = _MAX_ATTEMPTS - 1,
        refresh_every: int = 0,
        refresh_lr: float = 0.1,
        refresh_steps: int | None = None,
        resilience: ResilienceConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if resubmit_limit < 0:
            raise ValueError("resubmit_limit must be >= 0")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        path = Path(artifact)
        if not path.exists():
            raise FileNotFoundError(f"artifact not found: {path}")
        self._artifact = str(path)
        seen = load_params(path, mmap_mode="r")[0].get("serving.seen")
        if seen is None:
            raise ValueError(f"{path} is not a recommender artifact")
        self.n_users, self.n_items = seen.shape
        if fault_plan is not None and not fault_plan:
            fault_plan = None  # an empty plan arms nothing
        self._options = WorkerOptions(
            mmap_mode=mmap_mode,
            cache_size=cache_size,
            candidate_pool=candidate_pool,
            refresh_every=refresh_every,
            refresh_lr=refresh_lr,
            refresh_steps=refresh_steps,
            fault_plan=fault_plan,
        )
        self._ctx = mp.get_context(start_method or default_start_method())
        self._request_timeout = request_timeout
        self._max_attempts = resubmit_limit + 1
        self.heartbeat_interval = heartbeat_interval
        cfg = self._resilience = resilience if resilience is not None else _UNARMED
        self._fallback = None
        if cfg.fallback:
            self._fallback = PopularityFallback.from_artifact(
                path, mmap_mode=mmap_mode, candidate_pool=candidate_pool
            )
        self._retry_lock = threading.Lock()
        self._retry_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
        # Front-end registry: outcome, restart and resilience counters plus
        # the coalescing histograms (queue wait, batch size, RPC and
        # end-to-end round trips).  Worker registries merge into it in
        # stats().
        self.metrics = MetricsRegistry()
        self._closing = False
        self._closed = False
        self._thread_prefix = f"repro-serve-{next(_FRONT_ENDS)}-"
        self._shards = [_Shard(index=i) for i in range(n_workers)]
        for shard in self._shards:
            shard.flushes = Coalescer(max_batch, metrics=self.metrics, lock=shard.lock)
            if resilience is not None:
                shard.breaker = CircuitBreaker(
                    failure_threshold=resilience.failure_threshold,
                    reset_timeout=resilience.reset_timeout,
                    half_open_probes=resilience.half_open_probes,
                    on_transition=self._on_breaker_transition,
                )
            with shard.lock:
                self._spawn_worker(shard)
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{self._thread_prefix}supervisor", daemon=True
        )
        self._supervisor.start()

    # -- worker lifecycle ----------------------------------------------
    def _spawn_worker(self, shard: _Shard) -> None:
        """Start (or restart) a shard's process; caller holds ``shard.lock``."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=run_worker,
            args=(
                child_conn,
                self._artifact,
                self._options,
                shard.index,
                shard.restarts,  # incarnation number for the fault plan
            ),
            name=f"repro-serve-shard-{shard.index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        shard.proc = proc
        shard.conn = parent_conn
        shard.ready = threading.Event()
        reader = threading.Thread(
            target=self._read_shard,
            args=(shard, shard.generation, parent_conn),
            name=f"{self._thread_prefix}reader-{shard.index}",
            daemon=True,
        )
        reader.start()

    def _read_shard(self, shard: _Shard, generation: int, conn) -> None:
        """Resolve one pipe's replies; on EOF hand the shard to revival.

        A ``batch`` reply first sends the shard's next flush, so the worker
        starts on it while this thread resolves the answered one and runs
        its futures' callbacks (one that blocks on this service deadlocks
        it).  The reader writes to the pipe it reads, and other threads
        send on it under the lock the reader needs; neither deadlocks.
        While another thread holds the lock, perhaps blocked sending to a
        worker blocked on its reply, the reader keeps reading replies.  Its
        own send blocks only until the worker reads on, which it does as
        soon as it has sent a reply, and those replies cannot fill the
        pipe back: one ``batch`` RPC per shard is in flight, of at most
        ``max_batch`` requests, and the reader stops reading only to
        resolve what it has read.
        """
        replies: list = []
        receiving = True
        while receiving:
            receiving = _receive(conn, replies, wait=True)
            while not shard.lock.acquire(timeout=_LOCK_POLL_S if receiving else -1):
                receiving = _receive(conn, replies, wait=False)
            answered = []
            try:
                for req_id, ok, payload in replies:
                    if req_id == CONTROL_ID:
                        if ok:
                            shard.startup_failures = 0
                            shard.ready.set()
                        else:
                            # The worker could not load the artifact; it
                            # reports why and exits, and revival decides
                            # whether to retry or mark the shard failed.
                            shard.start_error = str(payload)
                        continue
                    call = shard.pending.pop(req_id, None)
                    if call is None:
                        continue  # it timed out: the late reply is dropped
                    if call.flush is not None:
                        self._send_flush(shard, shard.flushes.take())
                    answered.append((call, ok, payload))
            finally:
                shard.lock.release()
            replies.clear()
            for call, ok, payload in answered:
                if call.flush is not None:
                    self.metrics.observe("serve.rpc.seconds", perf_counter() - call.sent)
                call.finish(
                    payload if ok else RuntimeError(f"shard {shard.index} request failed: {payload}")
                )
        if not self._closing:
            self._revive(shard, generation)

    def _revive(self, shard: _Shard, generation: int) -> None:
        """Restart a dead worker and resubmit its in-flight requests once.

        Idempotent: the EOF reader and the heartbeat poll may both report
        the same death, but only the caller matching ``shard.generation``
        acts.  The replacement maps the same artifact and starts with an
        empty adaptation cache.

        A worker that dies *before* signalling ready failed to load the
        artifact; after ``_STARTUP_FAILURE_LIMIT`` consecutive such deaths
        the shard is marked permanently failed (pending calls and queued
        requests get the error, ``wait_ready`` raises) instead of
        crash-looping.  Failed flushes resolve once the lock is released.
        """
        with shard.lock:
            doomed = self._restart(shard, generation)
        for call, error in doomed:
            call.finish(error)

    def _restart(self, shard: _Shard, generation: int) -> list[tuple[_PendingCall, Exception]]:
        """:meth:`_revive` under ``shard.lock``; returns the calls to fail."""
        doomed: list[tuple[_PendingCall, Exception]] = []
        if self._closing or shard.failed is not None or shard.generation != generation:
            return doomed
        shard.generation += 1
        if not shard.ready.is_set():
            shard.startup_failures += 1
            self.metrics.inc("serve.startup_failures")
            if shard.startup_failures >= _STARTUP_FAILURE_LIMIT:
                reason = shard.start_error or (
                    f"worker exited before ready (exit code {shard.proc.exitcode})"
                )
                shard.failed = f"shard {shard.index} failed to start: {reason}"
                error = RuntimeError(shard.failed)
                doomed += [(call, error) for call in shard.pending.values()]
                shard.pending.clear()
                queued = shard.flushes.drain()
                if queued:
                    doomed.append((_PendingCall(None, "batch", None, flush=queued), error))
                try:
                    shard.conn.close()
                except OSError:
                    pass
                # Wake wait_ready waiters; they see ``failed`` and raise.
                shard.ready.set()
                return doomed
        shard.restarts += 1
        self.metrics.inc("serve.restarts")
        # Fold the dead worker's last-known snapshot into the shard's
        # retired totals so its counters and histograms survive the
        # restart.  Gauges are stripped: they described instantaneous
        # state (cache size, pending depth) that died with the process.
        if shard.last_metrics is not None:
            shard.retired_metrics = merge_snapshots(
                shard.retired_metrics, strip_gauges(shard.last_metrics)
            )
            shard.last_metrics = None
        stale = list(shard.pending.items())
        shard.pending.clear()
        try:
            shard.conn.close()
        except OSError:
            pass
        if shard.proc.is_alive():
            shard.proc.terminate()
        shard.proc.join(timeout=1.0)
        self._spawn_worker(shard)
        flush_failed = False
        for req_id, call in stale:
            if call.attempts >= self._max_attempts:
                error = RuntimeError(f"shard {shard.index} died twice serving one request")
                doomed.append((call, error))
                flush_failed |= call.flush is not None
                continue
            call.attempts += 1
            shard.pending[req_id] = call
            try:
                shard.conn.send((req_id, call.kind, call.payload))
            except (OSError, BrokenPipeError):
                pass  # replacement died instantly; next revival resubmits
        if flush_failed:  # the next flush goes behind the resubmitted calls
            self._send_flush(shard, shard.flushes.take())
        return doomed

    def _supervise(self) -> None:
        """Heartbeat: poll worker liveness as a backstop to pipe EOF.

        Each tick also fails calls older than ``request_timeout``
        (:meth:`_expire`) and refreshes every live shard's
        ``last_metrics`` snapshot (fire-and-forget, so a busy worker never
        stalls the supervisor) — that copy is what :meth:`_revive` folds
        into the retired totals when a worker dies without warning.

        The process and its generation are read together under the shard
        lock: read apart, the pipe reader may revive the shard in between,
        and the dead process would be blamed on its healthy replacement's
        generation — restarting the replacement too.
        """
        while not self._stop.wait(self.heartbeat_interval):
            for shard in self._shards:
                if shard.failed is not None:
                    continue
                with shard.lock:
                    proc, generation = shard.proc, shard.generation
                if proc is not None and not proc.is_alive():
                    self._revive(shard, generation)
                else:
                    self._expire(shard)
                    self._poll_shard_metrics(shard)

    def _expire(self, shard: _Shard) -> None:
        """Fail every call in flight longer than ``request_timeout`` with
        ``TimeoutError`` and drop it, so a late reply is ignored; an expired
        flush makes way for the next."""
        timeout = self._request_timeout
        if timeout is None:
            return
        now = perf_counter()
        with shard.lock:
            expired = [rid for rid, call in shard.pending.items() if now - call.sent > timeout]
            calls = [shard.pending.pop(req_id) for req_id in expired]
            if any(call.flush is not None for call in calls):
                self._send_flush(shard, shard.flushes.take())
        for call in calls:
            call.finish(TimeoutError(f"shard {shard.index} {call.kind} timed out after {timeout}s"))

    def _poll_shard_metrics(self, shard: _Shard) -> None:
        """Refresh one shard's last-known metrics without blocking.

        Lock-free: the flag is only tested-and-set here (the supervisor is
        the sole caller), and plain attribute assignment is atomic.
        """
        if shard.metrics_poll_pending or self._closed:
            return
        shard.metrics_poll_pending = True
        generation = shard.generation

        def _done(future: Future) -> None:
            shard.metrics_poll_pending = False
            if future.cancelled() or future.exception() is not None:
                return
            if shard.generation != generation:
                # The worker this poll targeted was restarted while the
                # reply was in flight; its snapshot was already folded
                # into the retired totals — stashing it again would
                # double-count on the next fold.
                return
            payload = future.result()
            snap = payload.get("metrics") if isinstance(payload, dict) else None
            if snap:
                shard.last_metrics = snap

        try:
            future = self._call(shard, "stats", None)
        except RuntimeError:
            shard.metrics_poll_pending = False
            return
        future.add_done_callback(_done)

    # -- RPC ------------------------------------------------------------
    def _send(self, shard: _Shard, call: _PendingCall) -> None:
        """Register and send one RPC; caller holds ``shard.lock``."""
        req_id = shard.next_id
        shard.next_id += 1
        shard.pending[req_id] = call
        call.sent = perf_counter()
        try:
            shard.conn.send((req_id, call.kind, call.payload))
        except (OSError, BrokenPipeError):
            pass  # dead worker: revival will resubmit this call

    def _send_flush(self, shard: _Shard, flush: list[Request] | None) -> None:
        """Send a flush, if any, as one ``batch`` RPC; caller holds the lock."""
        if flush is not None:
            payload = [request.item for request in flush]
            self._send(shard, _PendingCall(None, "batch", payload, flush=flush))

    def _call(self, shard: _Shard, kind: str, payload) -> Future:
        future: Future = Future()
        with shard.lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if shard.failed is not None:
                raise RuntimeError(shard.failed)
            self._send(shard, _PendingCall(future, kind, payload))
        return future

    def _rpc(self, shard: _Shard, kind: str, payload=None):
        t0 = perf_counter()
        result = self._call(shard, kind, payload).result(timeout=self._request_timeout)
        self.metrics.observe("serve.rpc.seconds", perf_counter() - t0)
        return result

    # -- serving --------------------------------------------------------
    def shard_of(self, user_row: int) -> int:
        return int(user_row) % len(self._shards)

    def submit(
        self,
        user_row: int,
        k: int = 10,
        task: PreferenceTask | None = None,
        exclude_seen: bool = True,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue one request; resolves to a :class:`Recommendation`.

        A request :func:`~repro.service.service.check_request` rejects (a
        row outside the artifact, ``k <= 0``) raises ``ValueError`` here,
        before it is queued.  A valid one takes the one submit path:
        admission (:meth:`_dispatch`), a flush of its shard (one coalesced
        RPC, one batched adaptation pass in the worker), then
        :meth:`_settle`, which resolves the future and accounts the request
        with exactly one ``serve.responses.{ok,degraded,error}`` outcome.

        What the path does beyond that is the resilience config's.  With
        none (``resilience=None``) nothing is armed: a failed RPC hands its
        error to the future.  An armed config adds admission control, the
        shard's circuit breaker, retries and the deadline watchdog, and the
        future then *always* resolves by the deadline, either with the
        shard's answer, a ``degraded=True`` popularity answer, or (fallback
        disabled) a typed error.  ``deadline`` is absolute ``time.time()``
        and needs a config; when omitted the config's default budget
        applies.
        """
        check_request(user_row, k, self.n_users)
        cfg = self._resilience
        if deadline is None:
            if cfg.deadline is not None:
                deadline = time.time() + cfg.deadline
        elif cfg is _UNARMED:
            raise ValueError(
                "per-request deadlines require a resilience config "
                "(pass resilience=ResilienceConfig(...) to ShardedService)"
            )
        shard = self._shards[self.shard_of(user_row)]
        request = ServeRequest(
            int(user_row), int(k), task, bool(exclude_seen), deadline
        )
        call = _Submission(request, shard, Future(), deadline)
        if self.metrics.enabled:
            t0 = perf_counter()
            call.outer.add_done_callback(
                lambda _f: self.metrics.observe(
                    "serve.request.seconds", perf_counter() - t0
                )
            )
        if deadline is not None:
            # The watchdog guarantees the outer future resolves by the
            # deadline even if the shard never answers; whichever of the
            # watchdog and a late answer loses the claim is dropped without
            # being counted.
            call.timer = threading.Timer(
                max(deadline - time.time(), 0.0),
                self._finish_degraded,
                args=(call, "deadline"),
            )
            call.timer.name = f"{self._thread_prefix}deadline"
            call.timer.daemon = True
            call.timer.start()
        self._dispatch(call)
        return call.outer

    def _dispatch(self, call: _Submission) -> None:
        """Admit one (re)attempt: deadline -> shard health -> shed -> breaker
        -> the shard's coalescer (an idle shard's flush leaves from here)."""
        cfg = self._resilience
        shard = call.shard
        if call.claimed:
            return
        if call.deadline is not None and time.time() >= call.deadline:
            self._finish_degraded(call, "deadline")
            return
        if shard.failed is not None:
            self._finish_degraded(call, "failure", RuntimeError(shard.failed))
            return
        if cfg.max_pending:
            with shard.lock:
                admitted = shard.inflight < cfg.max_pending
                if admitted:
                    shard.inflight += 1
            if not admitted:
                self._finish_degraded(call, "shed")
                return
        if shard.breaker is not None and not shard.breaker.allow():
            if cfg.max_pending:
                with shard.lock:
                    shard.inflight -= 1
            self._finish_degraded(call, "breaker")
            return
        call.attempts += 1
        request = Request(call.request, Future())
        request.future.add_done_callback(lambda f, c=call: self._settle(c, f))
        with shard.lock:
            failed = shard.failed
            if failed is None:
                self._send_flush(shard, shard.flushes.admit(request))
        if failed is not None:  # the shard failed since the check above
            request.future.set_exception(RuntimeError(failed))

    def _settle(self, call: _Submission, inner: Future) -> None:
        """One attempt finished: record the breaker outcome, then resolve
        the caller's future, retry, or degrade."""
        cfg = self._resilience
        shard = call.shard
        if cfg.max_pending:
            with shard.lock:
                shard.inflight -= 1
        exc = inner.exception()
        if exc is None:
            # The RPC round-tripped — a success for the breaker even when
            # the worker skipped the request as expired (per-request
            # deadline pressure must not open the circuit).
            if shard.breaker is not None:
                shard.breaker.record_success()
            result = inner.result()
            if isinstance(result, DeadlineSkipped):
                self._finish_degraded(call, "deadline")
            else:
                self._finish_ok(call, result)
            return
        # RPC-level failure: worker error, repeated death, flush timeout.
        if shard.breaker is not None:
            shard.breaker.record_failure()
        can_retry = (
            call.attempts <= cfg.retry_limit
            and shard.failed is None
            and not call.claimed
            and (call.deadline is None or time.time() < call.deadline)
        )
        if can_retry:
            self.metrics.inc("serve.retries")
            delay = self._backoff_delay(call.attempts)
            if call.deadline is not None:
                delay = min(delay, max(call.deadline - time.time(), 0.0))
            timer = threading.Timer(delay, self._dispatch, args=(call,))
            timer.name = f"{self._thread_prefix}retry"
            timer.daemon = True
            timer.start()
            return
        self._finish_degraded(call, "failure", exc)

    def _backoff_delay(self, attempt: int) -> float:
        """Jittered exponential backoff, deterministic given the config seed."""
        cfg = self._resilience
        delay = cfg.backoff_base * (2 ** (attempt - 1))
        if cfg.backoff_jitter and delay > 0:
            with self._retry_lock:
                u = self._retry_rng.random()
            delay *= 1.0 + cfg.backoff_jitter * (2.0 * u - 1.0)
        return max(delay, 0.0)

    def _finish_ok(self, call: _Submission, result) -> None:
        if not call.claim():
            return  # the deadline watchdog won, or the caller cancelled
        if call.timer is not None:
            call.timer.cancel()
        self.metrics.inc("serve.responses.ok")
        call.outer.set_result(result)

    def _finish_degraded(
        self, call: _Submission, reason: str, exc: Exception | None = None
    ) -> None:
        """Resolve a request the model tier could not serve in time.

        With the fallback armed the caller gets a ``degraded=True``
        popularity answer; otherwise the reason's typed error.  Only the
        resolver that claims the call writes its counters
        (``serve.degraded.<reason>`` or ``serve.failed.<reason>``, the
        reason-specific tally, then the ``serve.responses.*`` outcome), so
        they reconcile exactly with per-request outcomes, and it writes
        them before resolving the future: a caller woken by the answer sees
        it counted.
        """
        if not call.claim():
            return
        request = call.request
        result = None
        if self._fallback is not None:
            try:
                result = self._fallback.recommend(
                    request.user_row, request.k, request.exclude_seen
                )
            except Exception as fallback_exc:  # degrade to the error path
                exc = exc if exc is not None else fallback_exc
        if result is not None:
            outcome, tally = "degraded", "degraded"
        else:
            if reason == "deadline":
                error: Exception = DeadlineExceeded(
                    f"request for user {request.user_row} missed its deadline"
                )
            elif reason == "shed":
                error = ServiceOverloaded(
                    f"shard {call.shard.index} admission queue is full"
                )
            elif reason == "breaker":
                error = CircuitOpen(
                    f"shard {call.shard.index} circuit breaker is open"
                )
            else:
                error = exc if exc is not None else RuntimeError(
                    f"shard {call.shard.index} failed"
                )
            outcome, tally = "error", "failed"
        if call.timer is not None:
            call.timer.cancel()
        self.metrics.inc(f"serve.{tally}.{reason}")
        counter = _REASON_COUNTERS.get(reason)
        if counter is not None:
            self.metrics.inc(counter)
        self.metrics.inc(f"serve.responses.{outcome}")
        if result is not None:
            call.outer.set_result(result)
        else:
            call.outer.set_exception(error)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        del old
        counter = _BREAKER_COUNTERS.get(new)
        if counter is not None:
            self.metrics.inc(counter)

    def recommend(
        self,
        user_row: int,
        k: int = 10,
        task: PreferenceTask | None = None,
        exclude_seen: bool = True,
    ) -> Recommendation:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(user_row, k, task, exclude_seen).result(
            timeout=self._request_timeout
        )

    def recommend_many(
        self, user_rows: list[int], k: int = 10, exclude_seen: bool = True
    ) -> list[Recommendation]:
        """Fan a batch of users over their shards and gather the answers."""
        futures = [
            self.submit(user, k, exclude_seen=exclude_seen) for user in user_rows
        ]
        return [f.result(timeout=self._request_timeout) for f in futures]

    def register_user_history(self, task: PreferenceTask) -> None:
        """Attach a support task to its owning shard for adaptation."""
        self._rpc(self._shards[self.shard_of(task.user_row)], "register", task)

    def invalidate_user(self, user_row: int) -> None:
        """Drop one user's cached adaptation on its owning shard."""
        self._rpc(self._shards[self.shard_of(user_row)], "invalidate", int(user_row))

    def observe(self, user_row: int, item_row: int, rating: float = 1.0) -> None:
        """Route one interaction event to the user's owning shard.

        The worker's :meth:`RecommenderService.observe` appends the event
        to the user's support task and invalidates exactly that user's
        cached adaptation — the same semantics as the single-process
        facade, because the owning shard holds that user's *only* cache
        entry.  Auto-refresh (``refresh_every``) counts shard-local events.
        """
        self.observe_async(user_row, item_row, rating).result(
            timeout=self._request_timeout
        )

    def observe_async(
        self, user_row: int, item_row: int, rating: float = 1.0
    ) -> Future:
        """Fire-and-track variant of :meth:`observe` for write streams.

        An event :func:`~repro.service.service.check_event` rejects (a row
        outside the artifact, a rating outside [0, 1]) raises
        ``ValueError`` here, before the RPC.
        """
        check_event(user_row, item_row, rating, self.n_users, self.n_items)
        shard = self._shards[self.shard_of(user_row)]
        payload = (int(user_row), int(item_row), float(rating))
        return self._call(shard, "observe", payload)

    def meta_refresh(
        self, meta_lr: float | None = None, steps: int | None = None
    ) -> list[dict]:
        """Reptile-refresh every shard from its observed users.

        Each worker refreshes its own meta-initialization from its own
        shard's dirty users (shards never see each other's events), so the
        per-shard updates differ — use single-process serving when strict
        cross-shard parameter equality matters.  Returns one info dict per
        shard.
        """
        calls = [
            self._call(shard, "refresh", (meta_lr, steps))
            for shard in self._shards
        ]
        return [
            future.result(timeout=self._request_timeout) for future in calls
        ]

    def ping(self, shard_index: int) -> bool:
        """Round-trip health probe of one worker."""
        return self._rpc(self._shards[shard_index], "ping") == "pong"

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until every worker finished loading the artifact.

        Fails fast: raises ``RuntimeError`` as soon as any shard is marked
        permanently failed (its worker kept dying during artifact load)
        instead of hanging until the timeout.  Returns ``False`` only on a
        genuine timeout with startup still in progress.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            all_ready = True
            for shard in self._shards:
                if shard.failed is not None:
                    raise RuntimeError(shard.failed)
                if not shard.ready.is_set():
                    all_ready = False
            if all_ready:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            # Poll rather than wait on the Event objects: revival swaps in
            # a fresh Event per incarnation, so a blocked wait() could be
            # watching an orphaned event forever.
            time.sleep(0.01)

    # -- observability ---------------------------------------------------
    def health(self) -> dict:
        """Cheap, non-blocking readiness view — no worker RPCs.

        Per shard: process liveness, readiness, permanent-failure reason,
        restart count, admitted in-flight depth, and breaker state.  The
        overall ``status`` is ``"ok"`` when every shard can serve,
        ``"degraded"`` when some cannot but answers are still possible
        (surviving shards and/or the popularity fallback), and ``"down"``
        when nothing can answer.  ``threads`` counts the front-end's live
        threads: a pipe reader per shard, the supervisor, armed timers.
        """
        shards = []
        n_serving = 0
        for shard in self._shards:
            alive = shard.proc is not None and shard.proc.is_alive()
            breaker_state = (
                shard.breaker.state if shard.breaker is not None else None
            )
            serving = (
                alive
                and shard.ready.is_set()
                and shard.failed is None
                and breaker_state != BREAKER_OPEN
            )
            n_serving += bool(serving)
            shards.append(
                {
                    "shard": shard.index,
                    "alive": alive,
                    "ready": shard.ready.is_set(),
                    "failed": shard.failed,
                    "restarts": shard.restarts,
                    "inflight": shard.inflight,
                    "breaker": breaker_state,
                }
            )
        if n_serving == len(shards):
            status = "ok"
        elif n_serving > 0 or self._fallback is not None:
            status = "degraded"
        else:
            status = "down"
        threads = sum(
            thread.name.startswith(self._thread_prefix)
            for thread in threading.enumerate()
        )
        return {
            "status": status,
            "fallback": self._fallback is not None,
            "shards": shards,
            "threads": threads,
        }

    def stats(self) -> dict:
        """The merged registry snapshot, plus each shard's own.

        ``{"metrics": merged, "shards": [{"shard", "worker": {"pid"},
        "metrics"}]}``.  A shard's ``metrics`` merges its live worker's
        snapshot (one ``stats`` RPC) with the gauge-stripped snapshots of
        its dead predecessors, so counter totals survive worker restarts;
        ``metrics`` merges the front-end registry with every shard's.  The
        worker cores count ``serve.requests`` (one per request attempt a
        worker answered) and the front-end counts each request's one
        ``serve.responses.{ok,degraded,error}`` outcome, so every request
        is counted once.  :meth:`health` is the view that needs no RPC.
        """
        parts = [self.metrics.snapshot()]
        shards = []
        for shard in self._shards:
            try:
                reply = self._rpc(shard, "stats")
            except Exception as exc:
                worker, live = {"error": str(exc)}, None
            else:
                worker, live = {"pid": reply["pid"]}, reply["metrics"]
                shard.last_metrics = live
            merged = merge_snapshots(shard.retired_metrics, live)
            parts.append(merged)
            shards.append({"shard": shard.index, "worker": worker, "metrics": merged})
        return {"metrics": merge_snapshots(*parts), "shards": shards}

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Answer every queued request, then stop workers and supervisor."""
        if self._closed:
            return
        # Drain while revival and the flush timeout are still armed: a
        # worker dying mid-drain must not drop a flush.
        for shard in self._shards:
            shard.flushes.close()
        self._closing = True
        self._stop.set()
        self._supervisor.join(timeout=2.0)
        for shard in self._shards:
            with shard.lock:
                try:
                    shard.conn.send((shard.next_id, "shutdown", None))
                except (OSError, BrokenPipeError):
                    pass
            shard.proc.join(timeout=2.0)
            if shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(timeout=1.0)
            try:
                shard.conn.close()
            except OSError:
                pass
        self._closed = True

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
