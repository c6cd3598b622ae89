"""Due-time open-loop load generator and the rate-ladder analysis.

Arrivals follow a fixed schedule: request ``i`` of a phase is *due* at
``i / rate`` seconds after the phase starts, whether or not earlier
requests have completed.  Latency is measured from the due time, not
from the moment the request was handed to the service, so a generator
that stalls (a GIL pause, a slow ``submit``) charges the delay to every
request it made late instead of hiding it.  How late the generator ran
is reported separately (``late``), so a generator that cannot keep up is
visible.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: op kinds of a mixed stream.
READ = 0
WRITE = 1


@dataclass
class Phase:
    """Per-request record of one open-loop phase (times relative to start)."""

    name: str
    rate: float
    kinds: np.ndarray
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    results: list = field(repr=False)
    errors: list = field(default_factory=list, repr=False)

    @property
    def n(self) -> int:
        return int(self.due.size)

    def latencies(self, kind: int | None = None) -> np.ndarray:
        """Due-to-completion seconds of the successful requests of ``kind``."""
        mask = self.ok if kind is None else self.ok & (self.kinds == kind)
        return self.done[mask] - self.due[mask]

    def windowed_percentile(
        self, q: float, window: float, kind: int | None = None, skip: float = 0.0
    ) -> float:
        """Median over consecutive ``window``-second slices of the slice's
        ``q``-th percentile latency (slices by due time).

        A stall of the shared machine lasting a second or two inflates the
        slices it overlaps and leaves the median alone, where it would
        shift a percentile pooled over the whole phase.  Requests due in
        the first ``skip`` seconds (the transient after a rate step) are
        left out.
        """
        mask = self.ok if kind is None else self.ok & (self.kinds == kind)
        mask = mask & (self.due >= skip)
        slot = (self.due[mask] // window).astype(int)
        lat = self.done[mask] - self.due[mask]
        slots, sizes = np.unique(slot, return_counts=True)
        # A trailing partial slice holds too few requests to weigh in.
        full = slots[sizes * 2 >= sizes.max()] if slots.size else slots
        values = [np.percentile(lat[slot == s], q) for s in full]
        return float(np.median(values)) if values else float("nan")

    def late(self) -> np.ndarray:
        """How far behind schedule each request was handed to the service."""
        return self.sent - self.due

    def counts(self, kind: int | None = None) -> dict:
        """Requests sent, succeeded and failed (of ``kind``, or all)."""
        mask = np.ones(self.n, dtype=bool) if kind is None else self.kinds == kind
        sent = int(mask.sum())
        ok = int((self.ok & mask).sum())
        return {"sent": sent, "ok": ok, "failed": sent - ok}

    def completion_rate(self) -> float:
        """Successful completions per second, from phase start to the last one."""
        finished = self.done[self.ok]
        if finished.size == 0:
            return 0.0
        return float(finished.size / max(float(finished.max()), 1e-9))

    def summary(self) -> dict:
        """The phase report line: counts plus headline latencies."""
        out = {"phase": self.name, "rate": self.rate, **self.counts()}
        reads = self.latencies(READ)
        if reads.size:
            out["read_p50_ms"] = float(np.percentile(reads, 50) * 1e3)
            out["read_p99_ms"] = float(np.percentile(reads, 99) * 1e3)
        writes = self.latencies(WRITE)
        if writes.size:
            out["write_p99_ms"] = float(np.percentile(writes, 99) * 1e3)
        out["completion_rate"] = self.completion_rate()
        out["late_p99_ms"] = float(np.percentile(self.late(), 99) * 1e3)
        return out


def run_open_loop(
    submit: Callable[[int], Future],
    n: int,
    rate: float,
    *,
    name: str = "phase",
    kinds: np.ndarray | None = None,
    timeout: float = 60.0,
) -> Phase:
    """Send ``submit(i)`` for ``i < n`` on the fixed ``i / rate`` schedule.

    ``submit`` returns a future; a submit that raises, a future that
    resolves with an exception, or one still pending ``timeout`` seconds
    after the last send counts as failed.  Returns when every request
    has resolved (or timed out).
    """
    if rate <= 0 or n <= 0:
        raise ValueError("rate and n must be positive")
    due = np.arange(n, dtype=float) / rate
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    results: list = [None] * n
    errors: list = []
    lock = threading.Lock()
    remaining = [n]
    all_done = threading.Event()
    clock = time.perf_counter
    start = clock()

    def settle(i: int) -> None:
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    def on_done(future: Future, i: int) -> None:
        done[i] = clock() - start
        exc = future.exception()
        if exc is None:
            ok[i] = True
            results[i] = future.result()
        else:
            errors.append(repr(exc))
        settle(i)

    for i in range(n):
        wait = start + due[i] - clock()
        if wait > 0:
            time.sleep(wait)
        sent[i] = clock() - start
        try:
            future = submit(i)
        except Exception as exc:  # a refused submit is a failed request
            done[i] = sent[i]
            errors.append(repr(exc))
            settle(i)
            continue
        future.add_done_callback(lambda f, i=i: on_done(f, i))
    all_done.wait(timeout)
    return Phase(
        name=name,
        rate=float(rate),
        kinds=np.zeros(n, dtype=np.int8) if kinds is None else np.asarray(kinds),
        due=due,
        sent=sent,
        # Copies: a request that timed out may still resolve later.
        done=done.copy(),
        ok=ok.copy(),
        results=list(results),
        errors=list(errors),
    )


def zipf_stream(
    pool: np.ndarray, n: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """``n`` draws from ``pool`` with P(rank r) proportional to 1/r^alpha.

    Rank follows pool order, so ``pool[0]`` is the hottest user.
    """
    pool = np.asarray(pool)
    weights = 1.0 / np.power(np.arange(1, pool.size + 1, dtype=float), alpha)
    return rng.choice(pool, size=n, p=weights / weights.sum())


def rung_margin(
    phase: Phase, limit: float, pace: float, q: float = 90.0, window: float = 0.5
) -> float:
    """Log headroom of one ladder rung; >= 0 means the rung passed.

    A rung passes when it had no failures, its latency (from due time) is
    within ``limit`` seconds, and completions kept pace with arrivals: the
    completion rate is at least ``pace`` times the offered rate.  Latency
    is the median over ``window``-second slices of the slice's ``q``-th
    percentile (see :meth:`Phase.windowed_percentile`), leaving out the
    first slice: stepping up from a low rate costs this machine a transient
    of up to a second before latency settles.  A passing rung's
    margin is ``log(limit / latency)``, which shrinks smoothly as load
    approaches the limit; a rung that fell behind gets the (negative)
    ``log(completion_rate / (pace * rate))`` when that is lower.
    """
    counts = phase.counts()
    if counts["failed"] or counts["ok"] == 0:
        return -math.inf
    latency = phase.windowed_percentile(q, window, skip=window)
    margin = math.log(limit / max(latency, 1e-9))
    keep_pace = phase.completion_rate() / (pace * phase.rate)
    return margin if keep_pace >= 1.0 else min(margin, math.log(keep_pace))


def max_rate(rates: list[float], margins: list[float]) -> float:
    """Highest passing offered rate, interpolated between bracketing rungs.

    ``rates`` ascend and the ladder stops at its first failing rung.  The
    limit is placed where the margin crosses zero on the line through the
    last passing and the first failing rung, so the result moves smoothly
    instead of jumping a whole rung from run to run.  With no failing
    rung the top rate is returned; with no passing rung, the first rung's
    rate scaled by how far it missed.
    """
    if not rates or len(rates) != len(margins):
        raise ValueError("need one margin per rate")
    for i, margin in enumerate(margins):
        if margin >= 0:
            continue
        if i == 0:
            return rates[0] * math.exp(max(margin, -5.0))
        lo_rate, lo_margin = rates[i - 1], margins[i - 1]
        if not math.isfinite(margin):
            return lo_rate
        frac = lo_margin / (lo_margin - margin)
        return lo_rate + frac * (rates[i] - lo_rate)
    return rates[-1]
