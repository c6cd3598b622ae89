"""The lane policy and the lane runner of :mod:`repro.utils.blas`.

The lane count is ``max(1, usable cores // BLAS threads)``: every case of
that policy is pinned here with the core count and the BLAS thread query
replaced.  ``run_lanes`` hands every lane one shared task counter and
returns, or raises a lane's error, only after every lane has stopped.
Bitwise scoring at several lanes is pinned in
``tests/test_frozen_tower.py::TestBlockedPass``.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.utils import blas


@pytest.fixture()
def no_blas_env(monkeypatch):
    for name in blas._THREAD_ENV:
        monkeypatch.delenv(name, raising=False)


def _policy(monkeypatch, cores: int, threads: int | None) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    query = None if threads is None else (lambda: threads)
    monkeypatch.setattr(blas, "_live_thread_query", lambda: query)


class TestLanePolicy:
    def test_one_blas_thread_on_two_cores_gives_two_lanes(self, monkeypatch):
        _policy(monkeypatch, cores=2, threads=1)
        assert blas.blas_threads() == 1
        assert blas.score_lanes() == 2

    def test_two_blas_threads_on_two_cores_give_one_lane(self, monkeypatch):
        _policy(monkeypatch, cores=2, threads=2)
        assert blas.score_lanes() == 1

    def test_unknown_blas_threads_give_one_lane(self, monkeypatch, no_blas_env):
        _policy(monkeypatch, cores=2, threads=None)
        assert blas.blas_threads() == 2  # assumed: every usable core
        assert blas.score_lanes() == 1

    def test_affinity_to_one_cpu_gives_one_lane(self, monkeypatch):
        _policy(monkeypatch, cores=1, threads=1)
        assert blas.usable_cores() == 1
        assert blas.score_lanes() == 1

    def test_environment_is_the_fallback(self, monkeypatch, no_blas_env):
        _policy(monkeypatch, cores=4, threads=None)
        monkeypatch.setenv("OMP_NUM_THREADS", "not a number")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert blas.blas_threads() == 2
        assert blas.score_lanes() == 2

    def test_the_live_count_is_read(self):
        """numpy's BLAS answers through ctypes wherever it is OpenBLAS or MKL."""
        query = blas._live_thread_query()
        if query is None:
            pytest.skip("numpy's BLAS exposes no thread-count query here")
        assert blas.blas_threads() == max(1, query()) >= 1
        assert 1 <= blas.score_lanes() <= blas.usable_cores()


class TestRunLanes:
    def test_every_task_runs_once(self, monkeypatch):
        monkeypatch.setattr(blas, "score_lanes", lambda: 3)
        taken: list[int] = []
        lock = threading.Lock()

        def lane(tasks):
            for task in tasks:
                with lock:
                    taken.append(task)

        blas.run_lanes(lane, 100)
        assert sorted(taken) == list(range(100))

    def test_concurrent_callers_take_every_task_once(self, monkeypatch):
        """More lanes than cores, callers sharing the helper pool, and a
        thread switch every microsecond: no task is lost or taken twice."""
        monkeypatch.setattr(blas, "score_lanes", lambda: 4)
        failures: list[list[int]] = []

        def caller():
            for _ in range(30):
                taken: list[int] = []
                blas.run_lanes(lambda tasks: taken.extend(tasks), 50)
                if sorted(taken) != list(range(50)):
                    failures.append(taken)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(3)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert failures == []

    def test_a_helper_error_arrives_after_every_lane_stopped(self, monkeypatch):
        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        caller = threading.get_ident()
        helper_started = threading.Event()
        stopped: list[str] = []

        def lane(tasks):
            try:
                if threading.get_ident() != caller:
                    helper_started.set()
                    raise ValueError("helper failed")
                assert helper_started.wait(10)
                for _ in tasks:
                    time.sleep(0.005)
            finally:
                stopped.append("caller" if threading.get_ident() == caller else "helper")

        with pytest.raises(ValueError, match="helper failed"):
            blas.run_lanes(lane, 8)
        assert sorted(stopped) == ["caller", "helper"]

    def test_the_callers_error_waits_for_a_running_helper(self, monkeypatch):
        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        caller = threading.get_ident()
        helper_started = threading.Event()
        stopped: list[str] = []

        def lane(tasks):
            if threading.get_ident() != caller:
                helper_started.set()
                for _ in tasks:
                    time.sleep(0.01)
                stopped.append("helper")
                return
            assert helper_started.wait(10)
            raise KeyError("caller failed")

        with pytest.raises(KeyError, match="caller failed"):
            blas.run_lanes(lane, 8)
        assert stopped == ["helper"]

    def test_a_pool_that_refuses_work_leaves_the_caller_alone(self, monkeypatch):
        """At interpreter shutdown ``submit`` raises; the caller takes every task."""

        class Closed:
            def submit(self, *args):
                raise RuntimeError("cannot schedule new futures after shutdown")

        monkeypatch.setattr(blas, "score_lanes", lambda: 2)
        monkeypatch.setattr(blas, "_helper_pool", lambda: Closed())
        threads = set()

        def lane(tasks):
            for _ in tasks:
                threads.add(threading.get_ident())

        blas.run_lanes(lane, 5)
        assert threads == {threading.get_ident()}
