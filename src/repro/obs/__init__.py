"""repro.obs — unified metrics, tracing and profiling.

One observability layer for the whole stack: serving (both tiers),
meta-/CVAE-training, and the grid engine all report through a
:class:`MetricsRegistry` whose snapshots are plain JSON dicts and merge
exactly across processes.  See the README "Observability" section for
the metric naming scheme and CLI surfaces (``serve --metrics-json``,
``grid status --timings``).

The registry snapshot is the one metrics API of both serving tiers:
``RecommenderService.stats()`` and ``ShardedService.stats()`` return it
(merged across workers in the sharded tier).

Kill switch: ``REPRO_OBS=0`` disables histogram observation and span
timing process-wide (counters and gauges — the request, cache, adaptation
and stream tallies of every ``stats()`` snapshot — keep working).
"""

from repro.obs.profiler import PhaseProfiler, merge_phase_reports, peak_rss_bytes
from repro.obs.registry import (
    BUCKET_EDGES,
    BUCKET_RATIO,
    BUCKETS_PER_DECADE,
    Histogram,
    MetricsRegistry,
    active_spans,
    bucket_index,
    merge_snapshots,
    metrics,
    obs_enabled,
    set_default_enabled,
    strip_gauges,
)

__all__ = [
    "BUCKET_EDGES",
    "BUCKET_RATIO",
    "BUCKETS_PER_DECADE",
    "Histogram",
    "MetricsRegistry",
    "PhaseProfiler",
    "active_spans",
    "bucket_index",
    "merge_phase_reports",
    "merge_snapshots",
    "metrics",
    "obs_enabled",
    "peak_rss_bytes",
    "set_default_enabled",
    "strip_gauges",
]
