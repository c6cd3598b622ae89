"""Resilience primitives for the sharded front-end.

Three building blocks, all configured through one JSON-constructible
:class:`ResilienceConfig`:

- :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine over consecutive RPC failures.  While open, requests to the
  shard are rejected instantly (and served degraded) instead of queueing
  behind a worker that keeps failing; after ``reset_timeout`` a bounded
  number of half-open probes test the replacement before the circuit
  closes again.
- :class:`PopularityFallback` — the degraded answer tier.  It *reuses*
  :class:`repro.baselines.popularity.Popularity` over the popularity
  prior shipped inside every artifact (``serving.popularity``; computed
  from the ``seen`` matrix for artifacts that predate it), so a shard
  that is open-circuit, dead, shed, or past deadline still answers —
  with ``Recommendation.degraded = True`` so callers can account for
  quality separately from availability.
- the typed failure vocabulary (:class:`DeadlineExceeded`,
  :class:`ServiceOverloaded`, :class:`CircuitOpen`) raised when the
  fallback tier is disabled.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.interface import Recommendation, ServingState

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "PopularityFallback",
    "ResilienceConfig",
    "ServiceOverloaded",
]


class DeadlineExceeded(RuntimeError):
    """The request's end-to-end deadline passed before an answer arrived."""


class ServiceOverloaded(RuntimeError):
    """Admission control shed the request: the shard's queue is full."""


class CircuitOpen(RuntimeError):
    """The shard's circuit breaker is open; the request was not attempted."""


@dataclass(frozen=True)
class ResilienceConfig:
    """What the sharded submit path arms, as plain data.

    ``ShardedService(resilience=None)`` runs the same path with a config
    that arms nothing: no deadline, shedding, retry, fallback or breaker.

    Parameters
    ----------
    deadline:
        default end-to-end budget (seconds) applied to every request that
        does not carry its own; ``None`` disables deadlines.
    failure_threshold:
        consecutive RPC failures/timeouts that open a shard's breaker.
    reset_timeout:
        seconds an open breaker waits before letting half-open probes
        through.
    half_open_probes:
        how many concurrent trial requests a half-open breaker admits;
        one success closes the circuit, one failure re-opens it.
    max_pending:
        per-shard bound on requests in flight (queued + being served);
        beyond it new requests are shed.  ``0`` disables admission
        control.
    retry_limit:
        how many times a transiently failed request is resubmitted before
        falling back / erroring.
    backoff_base:
        first retry delay in seconds; each further attempt doubles it.
    backoff_jitter:
        uniform ±fraction applied to each backoff delay, drawn from a
        generator seeded with ``seed`` — deterministic run to run.
    fallback:
        answer failed/shed/expired requests from the popularity tier
        (``degraded=True``) instead of raising.
    seed:
        seeds the retry-jitter stream.
    """

    deadline: float | None = None
    failure_threshold: int = 5
    reset_timeout: float = 2.0
    half_open_probes: int = 1
    max_pending: int = 0
    retry_limit: int = 0
    backoff_base: float = 0.05
    backoff_jitter: float = 0.5
    fallback: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout < 0:
            raise ValueError("reset_timeout must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0 (0 = unbounded)")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "deadline": self.deadline,
            "failure_threshold": self.failure_threshold,
            "reset_timeout": self.reset_timeout,
            "half_open_probes": self.half_open_probes,
            "max_pending": self.max_pending,
            "retry_limit": self.retry_limit,
            "backoff_base": self.backoff_base,
            "backoff_jitter": self.backoff_jitter,
            "fallback": self.fallback,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResilienceConfig":
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown ResilienceConfig keys: {sorted(unknown)}")
        return cls(**payload)


BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed / open / half-open breaker over consecutive failures.

    Thread-safe.  ``allow()`` is the admission question ("may I attempt a
    request right now?"); callers then report the attempt's outcome with
    ``record_success`` / ``record_failure``.  State transitions:

    - *closed* → *open* after ``failure_threshold`` consecutive failures;
    - *open* → *half-open* once ``reset_timeout`` has elapsed (``allow``
      then admits up to ``half_open_probes`` concurrent trials);
    - *half-open* → *closed* on a probe success, → *open* on a probe
      failure (resetting the timeout clock).

    ``on_transition(old, new)`` is invoked outside the lock for every
    state change so the owner can count transitions into its metrics.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 2.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._peek_state()

    def _peek_state(self) -> str:
        """Current state with the open→half-open clock applied; lock held."""
        if (
            self._state == BREAKER_OPEN
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            return BREAKER_HALF_OPEN
        return self._state

    def _transition(self, new: str) -> Callable[[], None] | None:
        """Move to ``new``; returns the notify thunk to run outside the lock."""
        old, self._state = self._state, new
        if old == new or self._on_transition is None:
            return None
        notify = self._on_transition
        return lambda: notify(old, new)

    def allow(self) -> bool:
        """Whether a request may be attempted right now."""
        notify = None
        with self._lock:
            state = self._peek_state()
            if state == BREAKER_CLOSED:
                return True
            if state == BREAKER_HALF_OPEN:
                if self._state == BREAKER_OPEN:
                    # First probe after the reset timeout: surface the
                    # half-open transition so it is observable.
                    notify = self._transition(BREAKER_HALF_OPEN)
                    self._probes_in_flight = 0
                admitted = self._probes_in_flight < self.half_open_probes
                if admitted:
                    self._probes_in_flight += 1
            else:
                admitted = False
        if notify is not None:
            notify()
        return admitted

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._state == BREAKER_HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                notify = self._transition(BREAKER_CLOSED)
            else:
                notify = None
        if notify is not None:
            notify()

    def record_failure(self) -> None:
        notify = None
        with self._lock:
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._opened_at = self._clock()
                notify = self._transition(BREAKER_OPEN)
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                notify = self._transition(BREAKER_OPEN)
        if notify is not None:
            notify()


class PopularityFallback:
    """Degraded-tier scorer: top-k by global popularity, no adaptation.

    Wraps the :class:`~repro.baselines.popularity.Popularity` baseline
    around the popularity prior and ``seen`` matrix of a serving artifact
    (memory-mapped — the fallback tier costs O(open), not a model load),
    and tags every answer ``degraded=True``.
    """

    def __init__(
        self,
        popularity: np.ndarray,
        seen: np.ndarray,
        candidate_pool: np.ndarray | None = None,
    ):
        from repro.baselines.popularity import Popularity

        scorer = Popularity()
        scorer.load_state_dict({"scores": np.asarray(popularity)})
        empty = np.zeros((0, 0), dtype=np.float32)
        scorer._serving = ServingState(
            user_content=empty, item_content=empty, seen=np.asarray(seen)
        )
        self._scorer = scorer
        if candidate_pool is None:
            self._pool = None
        else:
            self._pool = np.unique(np.asarray(candidate_pool, dtype=int))

    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        mmap_mode: str | None = "r",
        candidate_pool: np.ndarray | None = None,
    ) -> "PopularityFallback":
        """Build the fallback tier from a ``Recommender.save`` artifact.

        Reads only the serving members — no method construction, no
        weights materialized.  Artifacts written before the popularity
        prior existed fall back to counting the ``seen`` matrix (identical
        for 0/1 interactions).
        """
        from repro.nn.serialization import load_params

        arrays, _ = load_params(path, mmap_mode=mmap_mode)
        seen = arrays["serving.seen"]
        if seen.dtype == np.uint8:
            seen = seen.view(bool)
        popularity = arrays.get("serving.popularity")
        if popularity is None:
            popularity = seen.sum(axis=0, dtype=np.float32)
        return cls(popularity, seen, candidate_pool=candidate_pool)

    def recommend(
        self, user_row: int, k: int = 10, exclude_seen: bool = True
    ) -> Recommendation:
        """Top-``k`` popular unseen items for ``user_row``, ``degraded=True``."""
        result = self._scorer.recommend(
            int(user_row), k=int(k), exclude_seen=exclude_seen, candidates=self._pool
        )
        return replace(result, degraded=True)
