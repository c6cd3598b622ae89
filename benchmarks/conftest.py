"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
("fast") budget so the whole suite completes in minutes on a laptop.  Pass
``-s`` to see the regenerated tables; headline numbers are also attached to
each benchmark's ``extra_info``.

Machine-readable results: after a benchmark run, every benchmark writes a
``BENCH_<name>.json`` file (wall time, throughput, ``extra_info``) into
``benchmarks/results/`` (override with ``BENCH_RESULTS_DIR``), so the perf
trajectory is trackable across PRs and CI uploads the files as artifacts.
Memory wins are tracked alongside speedups: every payload's ``extra_info``
records the process peak RSS at session end, and memory-focused benches add
their own byte counts (e.g. ``corpus_bytes`` in ``bench_meta_corpus``).

Observability: when the process-global :mod:`repro.obs` registry recorded
anything (training spans, serving counters), a compact summary is folded
into every payload's ``extra_info["obs"]`` and the full snapshot is written
as ``BENCH_obs_snapshot.json`` so CI uploads it with the other artifacts.

Reference implementations the benches time against come from
``tests/oracles.py`` (the same file the equivalence suites check against),
so the tests directory is put on ``sys.path`` here.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark
from repro.obs import Histogram, metrics, peak_rss_bytes

_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


def _obs_summary() -> dict | None:
    """Compact view of the process-global registry for ``extra_info``.

    Counters verbatim; each histogram reduced to count/mean/p50/p99 so the
    per-epoch training spans (``meta.*``, ``cvae.*``) land in the stored
    payloads without dumping hundreds of bucket counts per benchmark.
    """
    snap = metrics().snapshot()
    histograms = {}
    for name, data in snap.get("histograms", {}).items():
        hist = Histogram.from_snapshot(data)
        if not hist.count:
            continue
        histograms[name] = {
            "count": hist.count,
            "mean": round(hist.mean, 6),
            "p50": round(hist.percentile(50), 6),
            "p99": round(hist.percentile(99), 6),
        }
    counters = dict(snap.get("counters", {}))
    if not counters and not histograms:
        return None
    return {"counters": counters, "histograms": histograms}


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<name>.json`` per completed benchmark."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    out_dir = Path(
        os.environ.get("BENCH_RESULTS_DIR", Path(__file__).parent / "results")
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    peak_rss = peak_rss_bytes() or None
    obs = _obs_summary()
    if obs is not None:
        # The full registry snapshot rides along as a BENCH_*.json so the
        # existing CI artifact glob uploads it next to the benchmark files.
        (out_dir / "BENCH_obs_snapshot.json").write_text(
            json.dumps(
                {"timestamp": time.time(), "metrics": metrics().snapshot()},
                indent=2,
                sort_keys=True,
                default=str,
            )
            + "\n"
        )
    for bench in bench_session.benchmarks:
        if getattr(bench, "has_error", False):
            continue
        if peak_rss is not None:
            bench.extra_info.setdefault("peak_rss_bytes", peak_rss)
        if obs is not None:
            bench.extra_info.setdefault("obs", obs)
        stats = bench.stats
        mean = float(stats.mean)
        payload = {
            "name": bench.name,
            "fullname": bench.fullname,
            "timestamp": time.time(),
            "wall_time_seconds": {
                "mean": mean,
                "min": float(stats.min),
                "max": float(stats.max),
                "stddev": float(stats.stddev),
                "rounds": int(stats.rounds),
            },
            "throughput_per_second": (1.0 / mean) if mean > 0 else None,
            "extra_info": dict(bench.extra_info),
        }
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", bench.name)
        path = out_dir / f"BENCH_{slug}.json"
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        )


@pytest.fixture(scope="session")
def dataset():
    """The five-domain benchmark at a size suitable for benchmarking."""
    return make_amazon_like_benchmark(
        scale=BenchmarkScale(user_base=160, item_base=110), seed=0
    )
