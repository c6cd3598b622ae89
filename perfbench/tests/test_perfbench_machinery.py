"""Tests of the benchmark's own machinery (load generator, checks, metric names).

Fast and service-free: the open-loop generator runs against fake ``submit``
functions, the correctness checks against hand-made answers.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from mdpabench.checks import (
    CheckFailed,
    check_finite,
    check_sharded_answers,
    check_stream_accounting,
    check_topk,
)
from mdpabench.openloop import READ, WRITE, Phase, max_rate, rung_margin, run_open_loop
from mdpabench.spec import END_TO_END, NAME_RE, PER_LAYER, result_line
from mdpabench.tracing import Tracer, diff_snapshot
from mdpabench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _done(value=None) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def _phase(n: int, rate: float, latency: float) -> Phase:
    """A finished phase whose every request took ``latency`` seconds."""
    due = np.arange(n) / rate
    return Phase(
        name="synthetic",
        rate=rate,
        kinds=np.zeros(n, dtype=np.int8),
        due=due,
        sent=due.copy(),
        done=due + latency,
        ok=np.ones(n, dtype=bool),
        results=[None] * n,
    )


# -- due-time open-loop generator ----------------------------------------
def test_a_stall_makes_later_requests_late():
    stall_at, stall = 3, 0.06

    def submit(i: int) -> Future:
        if i == stall_at:
            time.sleep(stall)
        return _done(i)

    phase = run_open_loop(submit, 20, 1000.0)
    late, latency = phase.late(), phase.done - phase.due
    assert phase.counts() == {"sent": 20, "ok": 20, "failed": 0}
    assert latency[0] < 0.03
    # Request 4 was due 1 ms after the stalled one but could only be sent
    # once the stall ended: it is late, and its latency counts the wait.
    nxt = stall_at + 1
    assert late[nxt] >= stall - 0.015
    assert latency[nxt] >= stall - 0.015
    # A send-stamped measurement would have hidden it entirely.
    assert phase.done[nxt] - phase.sent[nxt] < 0.015
    assert (late[nxt:10] > 0.03).all()


def test_refused_and_failed_requests_count_as_failed():
    def submit(i: int) -> Future:
        if i == 1:
            raise RuntimeError("refused")
        future: Future = Future()
        if i == 2:
            future.set_exception(ValueError("failed"))
        else:
            future.set_result(i)
        return future

    kinds = np.array([READ, READ, WRITE, WRITE], dtype=np.int8)
    phase = run_open_loop(submit, 4, 2000.0, kinds=kinds)
    assert phase.counts() == {"sent": 4, "ok": 2, "failed": 2}
    assert phase.counts(WRITE) == {"sent": 2, "ok": 1, "failed": 1}
    assert phase.latencies(READ).size == 1
    assert len(phase.errors) == 2


def test_unresolved_requests_fail_at_the_timeout():
    pending: Future = Future()
    phase = run_open_loop(lambda i: pending if i == 0 else _done(), 3, 1000.0, timeout=0.05)
    assert phase.counts()["failed"] == 1
    assert not phase.ok[0]


def test_windowed_percentile_ignores_a_stalled_slice():
    phase = _phase(400, 100.0, 0.001)
    phase.done[(phase.due >= 1.0) & (phase.due < 2.0)] += 0.5
    assert np.percentile(phase.latencies(), 99) > 0.4
    assert phase.windowed_percentile(99, 1.0) == pytest.approx(0.001)
    assert phase.windowed_percentile(99, 1.0, skip=1.0) == pytest.approx(0.001)


def test_max_rate_interpolates_between_bracketing_rungs():
    rates = [1000.0, 1500.0, 2000.0]
    margins = [0.5, 0.25, -0.25]
    assert max_rate(rates, margins) == pytest.approx(1750.0)
    assert max_rate(rates, [0.5, 0.25, -math.inf]) == 1500.0
    assert max_rate(rates, [0.5, 0.4, 0.3]) == 2000.0
    assert 0 < max_rate(rates[:1], [-0.1]) < 1000.0


def test_rung_margin_fails_on_errors_slow_rungs_and_backlog():
    fast = _phase(200, 400.0, 0.005)
    assert rung_margin(fast, 0.025, 0.95, q=90, window=0.1) == pytest.approx(math.log(5.0))
    assert rung_margin(_phase(200, 400.0, 0.05), 0.025, 0.95, q=90, window=0.1) < 0
    behind = _phase(200, 400.0, 0.005)
    behind.done[-1] = 1.0  # the last request finished half a second late
    assert rung_margin(behind, 0.025, 0.95, q=90, window=0.1) < 0
    failed = _phase(200, 400.0, 0.005)
    failed.ok[7] = False
    assert rung_margin(failed, 0.025, 0.95) == -math.inf


# -- correctness checks ------------------------------------------------------
def _rec(user, items, scores, degraded=False):
    from repro.core.interface import Recommendation

    return Recommendation(user, np.asarray(items), np.asarray(scores, float), degraded)


def test_sharded_answer_check_fires_on_corruption():
    expected = {7: _rec(7, [3, 1, 2], [0.9, 0.5, 0.1])}
    assert check_sharded_answers([_rec(7, [3, 1, 2], [0.9, 0.5, 0.1])], expected) == 1
    corrupt = [
        _rec(7, [1, 3, 2], [0.9, 0.5, 0.1]),  # items reordered
        _rec(7, [3, 1, 2], [0.9, np.nextafter(0.5, 1.0), 0.1]),  # one ulp off
        _rec(7, [3, 1, 2], [0.9, 0.5, 0.1], degraded=True),
        _rec(8, [3, 1, 2], [0.9, 0.5, 0.1]),  # user without a reference
        _rec(7, [3, 1], [0.9, 0.5]),  # truncated
    ]
    for answer in corrupt:
        with pytest.raises(CheckFailed):
            check_sharded_answers([answer], expected)


def test_stream_accounting_check_fires_on_mismatch():
    counters = {
        "serve.stream.events": 15,
        "serve.responses.ok": 80,
        "serve.responses.degraded": 3,
        "serve.responses.error": 2,
    }
    check_stream_accounting(counters, writes_sent=15, reads_sent=85)
    with pytest.raises(CheckFailed):
        check_stream_accounting(counters, writes_sent=16, reads_sent=85)
    with pytest.raises(CheckFailed):
        check_stream_accounting(counters, writes_sent=15, reads_sent=86)


def test_topk_check_fires_on_a_wrong_ranking():
    pool = np.array([10, 11, 12, 13, 14])
    full = np.array([0.2, 0.9, 0.5, 0.9, 0.1], dtype=np.float32)
    order = np.argsort(-full.astype(float), kind="stable")[:3]
    good_scores = full.astype(float)[order]
    check_topk(pool[order], good_scores, pool, full, 3)
    with pytest.raises(CheckFailed):  # the tie broken the other way
        check_topk(np.array([13, 11, 12]), good_scores, pool, full, 3)
    with pytest.raises(CheckFailed):  # a lower item promoted
        check_topk(np.array([11, 13, 10]), good_scores, pool, full, 3)
    with pytest.raises(CheckFailed):  # right items, one score off by 1e-12
        check_topk(pool[order], good_scores + [0, 0, 1e-12], pool, full, 3)


def test_finite_check_fires_on_nan():
    check_finite("ndcg10", 0.1)
    with pytest.raises(CheckFailed):
        check_finite("ndcg10", float("nan"))


# -- metric names ---------------------------------------------------------------
@pytest.fixture(scope="module")
def benchmark_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_the_benchmark_prints_is_declared(benchmark_file):
    e2e = {m["name"]: m for m in benchmark_file["end_to_end"]}
    layers = {m["name"]: m for m in benchmark_file["per_layer"]}
    assert set(e2e) == set(END_TO_END)
    assert set(layers) == set(PER_LAYER)
    for table, declared in ((END_TO_END, e2e), (PER_LAYER, layers)):
        for name, (unit, better) in table.items():
            assert NAME_RE.fullmatch(name), name
            assert declared[name]["unit"] == unit
            assert declared[name]["better"] == better
    assert {w["name"] for w in benchmark_file["workloads"]} <= set(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in benchmark_file["end_to_end"])


def test_result_line_holds_every_declared_metric_and_no_other():
    full = {name: 0.5 for name in END_TO_END}
    line = json.loads(result_line(True, 3, 0, full, trace=False))
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {name: {"value": 0.5, "unit": END_TO_END[name][0]} for name in full},
    }
    with pytest.raises(KeyError):
        result_line(True, 1, 0, {**full, "latency_ms": 1.0}, trace=False)
    with pytest.raises(KeyError):  # a per-layer name in an untraced run
        result_line(True, 1, 0, {**full, "topk.busy_s": 1.0}, trace=False)
    with pytest.raises(KeyError):  # one end-to-end metric left out
        result_line(True, 1, 0, {"setup_s": 0.5}, trace=False)
    with pytest.raises(ValueError):
        result_line(True, 1, 0, {**full, "setup_s": float("inf")}, trace=False)
    # A failed check prints no metrics.
    assert json.loads(result_line(False, 1, 1, {}, trace=False))["metrics"] == {}


# -- tracing helpers ------------------------------------------------------------
class _Base:
    def inherited(self, x):
        return x + 1

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)


class _Child(_Base):
    pass


def test_tracer_patches_and_restores_every_kind_of_callable():
    originals = {name: _Base.__dict__[name] for name in ("static", "klass")}
    with Tracer() as tracer:
        tracer.patch(_Child, "inherited", "a", size=lambda self, x: x)
        tracer.patch(_Base, "static", "b")
        tracer.patch(_Base, "klass", "c")
        assert _Child().inherited(4) == 5
        assert _Base.static(3) == 6
        assert _Child.klass(1) == ("_Child", 1)
        assert [len(tracer.seconds[n]) for n in "abc"] == [1, 1, 1]
        assert tracer.size_total("a") == 4.0
    assert "inherited" not in vars(_Child)
    for name, raw in originals.items():
        assert _Base.__dict__[name] is raw


def test_diff_snapshot_subtracts_counters_and_buckets():
    before = {
        "counters": {"n": 2},
        "histograms": {"h": {"count": 1, "sum": 0.5, "buckets": {"3": 1}}},
    }
    after = {
        "counters": {"n": 5, "m": 1},
        "gauges": {"g": 4},
        "histograms": {"h": {"count": 3, "sum": 2.0, "buckets": {"3": 2, "4": 1}}},
    }
    diff = diff_snapshot(after, before)
    assert diff["counters"] == {"n": 3, "m": 1}
    assert diff["gauges"] == {"g": 4}
    assert diff["histograms"]["h"]["count"] == 2
    assert diff["histograms"]["h"]["sum"] == pytest.approx(1.5)
    assert diff["histograms"]["h"]["buckets"] == {"3": 1, "4": 1}
