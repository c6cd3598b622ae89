"""The observability subsystem: registry, histograms, spans, profiler.

The load-bearing property is *exact cross-process merging*: every
histogram shares one fixed log-bucket layout, so snapshots taken in
different workers merge by integer addition — ``merge(a, b)`` must equal
observing the concatenated stream (hypothesis-checked below).  The rest
covers bucket-edge semantics, span nesting/reentrancy under threads and
disabled-mode no-ops.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    BUCKET_EDGES,
    BUCKET_RATIO,
    BUCKETS_PER_DECADE,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    active_spans,
    bucket_index,
    merge_phase_reports,
    merge_snapshots,
    strip_gauges,
)


# ----------------------------------------------------------------------
# bucket layout
# ----------------------------------------------------------------------
class TestBuckets:
    def test_edges_are_fixed_and_monotone(self):
        assert np.all(np.diff(BUCKET_EDGES) > 0)
        ratios = BUCKET_EDGES[1:] / BUCKET_EDGES[:-1]
        assert np.allclose(ratios, BUCKET_RATIO)
        assert BUCKET_RATIO == pytest.approx(10 ** (1 / BUCKETS_PER_DECADE))

    def test_bucket_index_edge_semantics(self):
        # A value exactly on an edge lands in the bucket that edge closes.
        edge = float(BUCKET_EDGES[10])
        assert bucket_index(edge) == 10
        assert bucket_index(edge * 1.0001) == 11
        # Underflow and overflow buckets bracket the range.
        assert bucket_index(0.0) == 0
        assert bucket_index(float(BUCKET_EDGES[-1]) * 2) == len(BUCKET_EDGES)

    def test_typical_latencies_and_sizes_in_range(self):
        # Microseconds to minutes, and payload sizes up to 10M, all land
        # in interior buckets (not under/overflow).
        for value in (1e-6, 1e-3, 0.05, 2.0, 60.0, 1.0, 32.0, 1e7):
            assert 0 < bucket_index(value) < len(BUCKET_EDGES)


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_basic_accounting(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.004, 1.0):
            h.observe(v)
        assert h.count == 4
        assert h.min == 0.001
        assert h.max == 1.0
        assert h.sum == pytest.approx(1.007)
        assert h.mean == pytest.approx(1.007 / 4)

    def test_observe_many_matches_observe(self):
        values = np.random.default_rng(0).lognormal(mean=-5, size=500)
        one = Histogram()
        for v in values:
            one.observe(float(v))
        many = Histogram()
        many.observe_many(values)
        assert np.array_equal(one.counts, many.counts)
        assert one.count == many.count
        assert one.min == many.min and one.max == many.max

    def test_percentile_within_one_bucket_of_truth(self):
        values = np.random.default_rng(1).lognormal(mean=-3, sigma=1.5, size=2000)
        h = Histogram()
        h.observe_many(values)
        for q in (50, 90, 99):
            est = h.percentile(q)
            true = float(np.percentile(values, q))
            # The documented bucket-resolution bound: same bucket ⇒ the
            # estimate is within one bucket ratio of the true quantile.
            assert true / BUCKET_RATIO <= est <= true * BUCKET_RATIO

    def test_percentile_empty_is_nan(self):
        assert np.isnan(Histogram().percentile(50))

    def test_snapshot_roundtrip_is_json_safe(self):
        h = Histogram()
        h.observe_many([0.01, 0.02, 5.0])
        snap = json.loads(json.dumps(h.to_snapshot()))
        back = Histogram.from_snapshot(snap)
        assert np.array_equal(back.counts, h.counts)
        assert (back.count, back.sum, back.min, back.max) == (
            h.count,
            h.sum,
            h.min,
            h.max,
        )


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.integers(min_value=1, max_value=10**9), max_size=60),
    b=st.lists(st.integers(min_value=1, max_value=10**9), max_size=60),
)
def test_merge_equals_concatenated_stream(a, b):
    """merge(observe(a), observe(b)) == observe(a + b), exactly.

    Integer observations keep even the float ``sum`` exact (all values
    and totals are far below 2**53), so equality here is ``==``, not
    approx — the cross-process merge contract.
    """
    ha, hb, hab = Histogram(), Histogram(), Histogram()
    for v in a:
        ha.observe(v)
    for v in b:
        hb.observe(v)
    for v in a + b:
        hab.observe(v)
    ha.merge(hb)
    assert np.array_equal(ha.counts, hab.counts)
    assert ha.count == hab.count
    assert ha.sum == hab.sum
    assert ha.min == hab.min and ha.max == hab.max
    for q in (50, 95):
        if hab.count:
            assert ha.percentile_bucket(q) == hab.percentile_bucket(q)


@settings(max_examples=30, deadline=None)
@given(
    streams=st.lists(
        st.lists(st.integers(min_value=1, max_value=10**6), max_size=30),
        min_size=1,
        max_size=4,
    )
)
def test_merge_snapshots_equals_one_registry(streams):
    """N per-process snapshots merge to what one process would have seen."""
    registries = [MetricsRegistry(enabled=True) for _ in streams]
    combined = MetricsRegistry(enabled=True)
    for reg, stream in zip(registries, streams):
        for v in stream:
            reg.observe("lat", v)
            reg.inc("n")
            combined.observe("lat", v)
            combined.inc("n")
    merged = merge_snapshots(*(r.snapshot() for r in registries))
    expected = combined.snapshot()
    assert merged["counters"] == expected["counters"]
    assert merged["histograms"] == expected["histograms"]


# ----------------------------------------------------------------------
# registry + spans
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_gauges_collectors(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("c")
        reg.inc("c", 4)
        reg.set_gauge("g", 7)
        reg.inc_gauge("g", -2)
        reg.add_collector(lambda r: r.set_counter("pulled", 42))
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5, "pulled": 42}
        assert snap["gauges"] == {"g": 5}

    def test_span_records_seconds_and_size(self):
        reg = MetricsRegistry(enabled=True)
        with reg.span("work", size=16):
            pass
        snap = reg.snapshot()
        assert snap["histograms"]["work.seconds"]["count"] == 1
        assert snap["histograms"]["work.size"]["count"] == 1
        assert reg.histogram("work.seconds").max < 1.0

    def test_span_nesting_and_reentrancy(self):
        reg = MetricsRegistry(enabled=True)
        with reg.span("outer"):
            assert active_spans() == ("outer",)
            with reg.span("inner"):
                assert active_spans() == ("outer", "inner")
                with reg.span("outer"):  # re-entering the same name is fine
                    assert active_spans() == ("outer", "inner", "outer")
        assert active_spans() == ()
        snap = reg.snapshot()
        assert snap["histograms"]["outer.seconds"]["count"] == 2
        assert snap["histograms"]["inner.seconds"]["count"] == 1

    def test_spans_and_observes_under_threads(self):
        reg = MetricsRegistry(enabled=True)
        n_threads, per_thread = 8, 200
        stacks_ok = []

        def work(tid: int) -> None:
            ok = True
            for _ in range(per_thread):
                with reg.span("t.outer"):
                    ok &= active_spans() == ("t.outer",)
                    with reg.span("t.inner"):
                        ok &= active_spans() == ("t.outer", "t.inner")
                reg.inc("t.count")
            ok &= active_spans() == ()
            stacks_ok.append(ok)

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(stacks_ok)
        snap = reg.snapshot()
        total = n_threads * per_thread
        # Exact totals under concurrency: the registry lock loses nothing.
        assert snap["counters"]["t.count"] == total
        assert snap["histograms"]["t.outer.seconds"]["count"] == total
        assert snap["histograms"]["t.inner.seconds"]["count"] == total

    def test_disabled_mode_is_noop_for_hot_paths(self):
        reg = MetricsRegistry(enabled=False)
        span = reg.span("x", size=3)
        with span:
            pass
        reg.observe("y", 1.0)
        snap = reg.snapshot()
        assert snap["histograms"] == {}
        # The same null singleton every time — no per-call allocation.
        assert reg.span("z") is reg.span("w")
        # Counters/gauges/collectors keep working: the serving tiers'
        # stats() snapshots stay truthful with observability off.
        reg.inc("c")
        assert reg.snapshot()["counters"] == {"c": 1}

    def test_strip_gauges(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("kept")
        reg.set_gauge("dropped", 9)
        stripped = strip_gauges(reg.snapshot())
        assert stripped["counters"] == {"kept": 1}
        assert stripped["gauges"] == {}

    def test_merged_gauges_sum(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.set_gauge("depth", 2)
        b.set_gauge("depth", 3)
        assert merge_snapshots(a.snapshot(), b.snapshot())["gauges"] == {
            "depth": 5
        }


# ----------------------------------------------------------------------
# phase profiler
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_report_shape_and_accumulation(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("fit"):
                pass
        with prof.phase("score"):
            pass
        report = prof.report()
        assert report["fit"]["calls"] == 3
        assert report["score"]["calls"] == 1
        assert report["fit"]["wall_s"] >= 0
        assert report["fit"]["peak_rss_bytes"] > 0

    def test_disabled_profiler_records_nothing(self):
        prof = PhaseProfiler(enabled=False)
        with prof.phase("fit"):
            pass
        assert prof.report() == {}

    def test_merge_phase_reports(self):
        a = {"fit": {"calls": 1, "wall_s": 1.5, "peak_rss_bytes": 100}}
        b = {
            "fit": {"calls": 2, "wall_s": 0.5, "peak_rss_bytes": 300},
            "score": {"calls": 1, "wall_s": 0.1, "peak_rss_bytes": 50},
        }
        merged = merge_phase_reports(a, None, b)
        assert merged["fit"] == {
            "calls": 3,
            "wall_s": 2.0,
            "peak_rss_bytes": 300,
        }
        assert merged["score"]["calls"] == 1
