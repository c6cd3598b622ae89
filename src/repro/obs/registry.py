"""Thread-safe metrics registry with exactly-mergeable histograms.

Every histogram in every process shares one fixed, log-spaced bucket
layout (:data:`BUCKET_EDGES`), so snapshots taken in different workers
merge *exactly*: bucket counts, observation counts, mins and maxes are
integers/extrema and add/extremise losslessly.  Percentiles read off the
merged buckets are therefore identical no matter where the observations
happened — the price is bucket resolution: a reported quantile is the
geometric midpoint of its bucket, i.e. within a factor of
``BUCKET_RATIO ** 0.5`` (~26%) of the true value.

Counters and gauges always update: the serving tiers' ``stats()`` is a
registry snapshot, and its request, cache, adaptation and stream tallies
must hold with observability off.  Each costs one dict write under a
lock.  Histogram observation and span timing — the per-event hot-path
costs — honour the registry's ``enabled`` flag and collapse to
near-nothing when observability is off (``REPRO_OBS=0``).
"""

from __future__ import annotations

import os
import threading
from time import perf_counter as _perf_counter
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "BUCKETS_PER_DECADE",
    "BUCKET_EDGES",
    "BUCKET_RATIO",
    "Histogram",
    "MetricsRegistry",
    "bucket_index",
    "merge_snapshots",
    "metrics",
    "obs_enabled",
    "set_default_enabled",
    "strip_gauges",
]

#: Buckets per factor-of-10; 5 gives a bucket ratio of 10^(1/5) ~ 1.585.
BUCKETS_PER_DECADE = 5

#: Ratio between consecutive bucket upper edges.
BUCKET_RATIO = 10.0 ** (1.0 / BUCKETS_PER_DECADE)

_MIN_DECADE = -7  # 100 ns — below any timer resolution we care about
_MAX_DECADE = 8  # 1e8 — covers second-scale latencies and payload sizes

#: Shared upper edges: value ``v`` lands in the first bucket whose edge
#: is ``>= v``.  One underflow bucket below ``10**_MIN_DECADE`` and one
#: overflow bucket above ``10**_MAX_DECADE`` bracket the range.
BUCKET_EDGES = np.power(
    10.0,
    np.arange(_MIN_DECADE * BUCKETS_PER_DECADE, _MAX_DECADE * BUCKETS_PER_DECADE + 1)
    / BUCKETS_PER_DECADE,
)
N_BUCKETS = len(BUCKET_EDGES) + 1  # + overflow


def bucket_index(value: float) -> int:
    """Index of the bucket holding ``value`` (vectorises over arrays)."""
    return int(np.searchsorted(BUCKET_EDGES, value, side="left"))


class Histogram:
    """Fixed log-bucket histogram; snapshots merge exactly by addition.

    Not itself locked — the owning :class:`MetricsRegistry` serialises
    access.  ``sum`` is a float accumulator and merges only up to
    float-addition reordering; everything else merges exactly.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = np.zeros(N_BUCKETS, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.size == 0:
            return
        idx = np.searchsorted(BUCKET_EDGES, arr, side="left")
        self.counts += np.bincount(idx, minlength=N_BUCKETS)
        self.count += int(arr.size)
        self.sum += float(arr.sum())
        lo, hi = float(arr.min()), float(arr.max())
        if self.min is None or lo < self.min:
            self.min = lo
        if self.max is None or hi > self.max:
            self.max = hi

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (geometric bucket midpoint).

        Exact up to bucket resolution: the true quantile lies in the
        same bucket, so the estimate is within ``sqrt(BUCKET_RATIO)``
        multiplicatively.  Clamped to the observed ``[min, max]``.
        """
        if self.count == 0:
            return float("nan")
        b = self.percentile_bucket(q)
        if b == 0:
            est = float(BUCKET_EDGES[0])
        elif b >= len(BUCKET_EDGES):
            est = float(BUCKET_EDGES[-1])
        else:
            est = float(np.sqrt(BUCKET_EDGES[b - 1] * BUCKET_EDGES[b]))
        lo = self.min if self.min is not None else est
        hi = self.max if self.max is not None else est
        return min(max(est, lo), hi)

    def percentile_bucket(self, q: float) -> int:
        """Bucket index containing the q-th percentile observation."""
        if self.count == 0:
            return -1
        rank = max(1, int(np.ceil(q / 100.0 * self.count)))
        cum = np.cumsum(self.counts)
        return int(np.searchsorted(cum, rank, side="left"))

    def merge(self, other: "Histogram") -> None:
        self.counts += other.counts
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_snapshot(self) -> dict:
        """JSON-serialisable sparse form (string bucket keys)."""
        nz = np.nonzero(self.counts)[0]
        return {
            "count": int(self.count),
            "sum": float(self.sum),
            "min": self.min,
            "max": self.max,
            "buckets": {str(int(i)): int(self.counts[i]) for i in nz},
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "Histogram":
        h = cls()
        h.count = int(snap.get("count", 0))
        h.sum = float(snap.get("sum", 0.0))
        h.min = snap.get("min")
        h.max = snap.get("max")
        for key, n in snap.get("buckets", {}).items():
            h.counts[int(key)] = int(n)
        return h


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "1").strip().lower() not in ("0", "false", "off")


_default_enabled: bool | None = None


def set_default_enabled(enabled: bool | None) -> None:
    """Override the ``REPRO_OBS`` default for registries created after.

    ``None`` restores env-variable control.  Does not retroactively
    change existing registries.
    """
    global _default_enabled
    _default_enabled = enabled


def obs_enabled() -> bool:
    """Effective default ``enabled`` for new registries."""
    return _env_enabled() if _default_enabled is None else _default_enabled


class _NullSpan:
    """No-op span used when observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class _Span:
    """Times a ``with`` block into ``<name>.seconds`` (+ ``<name>.size``).

    Spans nest: a per-thread stack tracks the active chain, so
    ``active_spans()`` can report e.g. ``("serve.score", "serve.adapt")``
    while adaptation runs inside scoring.  Re-entering the same name is
    fine — each entry times independently.
    """

    __slots__ = ("_registry", "_name", "_size", "_t0")

    _stacks = threading.local()

    def __init__(self, registry: "MetricsRegistry", name: str, size: float | None):
        self._registry = registry
        self._name = name
        self._size = size

    def __enter__(self) -> "_Span":
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        stack.append(self._name)
        self._t0 = _perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = _perf_counter() - self._t0
        self._stacks.stack.pop()
        reg = self._registry
        reg.observe(f"{self._name}.seconds", elapsed)
        if self._size is not None:
            reg.observe(f"{self._name}.size", self._size)


def active_spans() -> tuple:
    """Names of spans currently open on this thread, outermost first."""
    return tuple(getattr(_Span._stacks, "stack", ()))


class MetricsRegistry:
    """Thread-safe counters, gauges, histograms, spans and collectors.

    - *Counters* are monotone totals; they merge across processes by
      summing.  ``set_counter`` installs an absolute total (for
      mirroring an external counter such as the LRU cache's).
    - *Gauges* are instantaneous values; a merged snapshot sums them
      (useful for e.g. total pending depth across shards), and
      :func:`strip_gauges` drops them when folding a dead worker's
      retired snapshot.
    - *Histograms* share the module-wide bucket layout and merge
      exactly; see :class:`Histogram`.
    - *Collectors* are callbacks run at snapshot time to pull external
      state into the registry (cheap: snapshots are rare).

    When ``enabled`` is False, ``observe``/``span`` become no-ops while
    counters, gauges and collectors keep working, so the serving tiers'
    ``stats()`` snapshots stay truthful with observability off.
    """

    def __init__(self, enabled: bool | None = None) -> None:
        self.enabled = obs_enabled() if enabled is None else bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- counters / gauges -------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_counter(self, name: str, value: float) -> None:
        with self._lock:
            self._counters[name] = value

    def counter(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def inc_gauge(self, name: str, delta: float) -> None:
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + delta

    def gauge(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    # -- histograms / spans ------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    def observe_many(self, name: str, values) -> None:
        """Record a batch of observations into one histogram.

        One lock acquisition and one vectorized bucket count for the whole
        batch (see :meth:`Histogram.observe_many`) — the per-request cost
        of batch-serving sites recording e.g. per-request pool sizes.
        """
        if not self.enabled:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe_many(values)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def span(self, name: str, size: float | None = None):
        """Context manager timing its block into ``<name>.seconds``."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, size)

    # -- collectors / snapshots --------------------------------------------
    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        self._collectors.append(fn)

    def snapshot(self) -> dict:
        """JSON-serialisable point-in-time copy of every metric."""
        for fn in self._collectors:
            fn(self)
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.to_snapshot() for name, h in self._histograms.items()
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_snapshots(*snapshots: Mapping | None) -> dict:
    """Merge registry snapshots: counters/gauges sum, histograms add.

    Histogram merging is exact (shared bucket layout); ``None`` entries
    are skipped so callers can pass optional retired/live snapshots
    straight through.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, Histogram] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, v in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + v
        for name, v in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + v
        for name, hsnap in snap.get("histograms", {}).items():
            h = Histogram.from_snapshot(hsnap)
            if name in hists:
                hists[name].merge(h)
            else:
                hists[name] = h
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: h.to_snapshot() for name, h in hists.items()},
    }


def strip_gauges(snapshot: Mapping) -> dict:
    """Copy of ``snapshot`` without gauges.

    Used when folding a dead worker's last-known snapshot into retired
    totals: its counters and histograms are history worth keeping, but
    its gauges (cache size, pending depth) described state that died
    with the process.
    """
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": {},
        "histograms": dict(snapshot.get("histograms", {})),
    }


_global_lock = threading.Lock()
_global_registry: MetricsRegistry | None = None


def metrics() -> MetricsRegistry:
    """The process-global default registry (training instrumentation)."""
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = MetricsRegistry()
        return _global_registry
