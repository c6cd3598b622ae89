"""Benchmark-side tracing: wrappers around public calls, snapshot arithmetic.

The traced run needs per-layer numbers without adding spans inside the
program, so :class:`Tracer` temporarily replaces a few public callables
(a class method, a static method, a module-level function) with timing
wrappers and restores them afterwards.  Serving layers are read from the
registry snapshots the program already publishes; :func:`diff_snapshot`
narrows a cumulative snapshot to one measured phase.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Mapping

import numpy as np


def set_obs(enabled: bool) -> None:
    """Switch the program's own observability on or off.

    ``REPRO_OBS`` governs registries created from now on, including those
    of serving workers started later (they inherit the environment); the
    process-global training registry already exists, so it is flipped
    directly.
    """
    os.environ["REPRO_OBS"] = "1" if enabled else "0"
    from repro.obs import metrics

    metrics().enabled = enabled


class Tracer:
    """Times calls into the program from outside it.

    ``seconds[name]`` holds one duration per call and ``sizes[name]`` the
    optional work size per call.  :meth:`span` times a block of the
    benchmark's own code; :meth:`patch` wraps a callable attribute.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.sizes: dict[str, list[float]] = defaultdict(list)
        self._restore: list[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name].append(time.perf_counter() - t0)

    def _timed(self, fn, name: str, size: Callable | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name].append(time.perf_counter() - t0)
                if size is not None:
                    self.sizes[name].append(float(size(*args, **kwargs)))

        return wrapper

    def patch(self, owner, attr: str, name: str, size: Callable | None = None) -> None:
        """Wrap ``owner.attr`` so each call is recorded under ``name``.

        Works for plain and inherited methods, static methods, class
        methods and module-level functions.  ``size(*args, **kwargs)``
        (same arguments as the call, ``self``/``cls`` included for
        methods) gives the work size to record.
        """
        raw = inspect.getattr_static(owner, attr)
        had_own = attr in vars(owner)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._timed(raw.__func__, name, size))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self._timed(raw.__func__, name, size))
        else:
            replacement = self._timed(raw, name, size)
        setattr(owner, attr, replacement)

        def restore() -> None:
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

        self._restore.append(restore)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- summaries ------------------------------------------------------
    def median(self, name: str) -> float:
        values = self.seconds.get(name)
        return float(np.median(values)) if values else 0.0

    def total(self, name: str) -> float:
        return float(sum(self.seconds.get(name, ())))

    def size_total(self, name: str) -> float:
        return float(sum(self.sizes.get(name, ())))


def diff_snapshot(after: Mapping, before: Mapping | None) -> dict:
    """Counters and histograms accumulated between two registry snapshots.

    Histogram bucket counts, observation counts and sums subtract
    exactly; min/max cannot be recovered and are dropped, so percentiles
    of the difference are bucket midpoints.  Gauges are taken from
    ``after``.
    """
    before = before or {}
    counters = {
        name: value - before.get("counters", {}).get(name, 0)
        for name, value in after.get("counters", {}).items()
    }
    hists = {}
    old = before.get("histograms", {})
    for name, snap in after.get("histograms", {}).items():
        prev = old.get(name, {})
        buckets = {
            key: n - prev.get("buckets", {}).get(key, 0)
            for key, n in snap.get("buckets", {}).items()
        }
        hists[name] = {
            "count": snap.get("count", 0) - prev.get("count", 0),
            "sum": snap.get("sum", 0.0) - prev.get("sum", 0.0),
            "min": None,
            "max": None,
            "buckets": {key: n for key, n in buckets.items() if n},
        }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": hists,
    }


def hist_summary(snapshot: Mapping, name: str) -> dict:
    """count / sum / mean / p50 / p99 of one histogram (zeros when absent)."""
    from repro.obs import Histogram

    data = snapshot.get("histograms", {}).get(name)
    if not data or not data.get("count"):
        return {"count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0, "p99": 0.0}
    hist = Histogram.from_snapshot(data)
    return {
        "count": hist.count,
        "sum": hist.sum,
        "mean": hist.mean,
        "p50": hist.percentile(50),
        "p99": hist.percentile(99),
    }
