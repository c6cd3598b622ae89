"""BLAS threads, and the scoring lanes that use the cores BLAS leaves idle.

numpy's BLAS parallelizes inside one GEMM.  The blocked candidate-scoring
pass (:meth:`~repro.meta.model.PreferenceModel.score_pool`) can instead
score whole blocks on several threads at once, its *lanes*.  This module
sizes the lanes and runs them.

The lane count is derived, never set: ``max(1, usable cores // BLAS
threads)``, read at every call that could use a second lane.  The BLAS
thread count is read live through ``ctypes`` from the OpenBLAS (or MKL)
library numpy loaded, else from the environment variables BLAS reads when
it loads; when neither tells, BLAS is assumed to use every usable core,
which gives one lane.  So default OpenBLAS threads on a 2-core machine run
one lane, ``OPENBLAS_NUM_THREADS=1`` runs two, and a process pinned to one
core runs one.

The lanes are the calling thread plus a process-wide pool of helper
threads, created on first use.  A forked child (a shard worker, a grid
worker) inherits the pool object but none of its threads, so the child
drops it and builds its own when it first needs one.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent import futures
from typing import Callable, Iterable

import numpy  # noqa: F401  (maps numpy's BLAS library before it is looked up)

__all__ = ["blas_threads", "run_lanes", "score_lanes", "usable_cores"]

#: The "current thread count" query of each BLAS build numpy may ship with.
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)

#: The variables BLAS reads its thread count from when it loads.
_THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _live_thread_query() -> Callable[[], int] | None:
    """The loaded BLAS library's thread-count function, or None.

    Libraries are found in ``/proc/self/maps``; numpy's own build comes
    first, since SciPy maps a second OpenBLAS of its own.
    """
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if ("openblas" in name or "libmkl_rt" in name) and path not in paths:
                    paths.append(path)
    except OSError:
        return None
    paths.sort(key=lambda path: "numpy" not in path)
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes = []
                query.restype = ctypes.c_int
                return query
    return None


def blas_threads() -> int:
    """Threads numpy's BLAS runs one GEMM on.

    The live count when the library answers, else the first valid
    thread-count environment variable, else every usable core (BLAS's
    own default).
    """
    query = _live_thread_query()
    if query is not None:
        return max(1, query())
    for name in _THREAD_ENV:
        try:
            return max(1, int(os.environ[name]))
        except (KeyError, ValueError):
            continue
    return usable_cores()


def score_lanes() -> int:
    """Lanes a multi-block scoring pass runs on: the cores BLAS leaves idle."""
    return max(1, usable_cores() // blas_threads())


class _Tasks:
    """``range(n)`` shared by every lane of one call: each index is taken once."""

    def __init__(self, n: int):
        self._lock = threading.Lock()
        self._next = 0
        self._n = n

    def __iter__(self) -> "_Tasks":
        return self

    def __next__(self) -> int:
        with self._lock:
            task = self._next
            if task >= self._n:
                raise StopIteration
            self._next = task + 1
        return task


_helpers: futures.ThreadPoolExecutor | None = None
_helpers_lock = threading.Lock()


def _helper_pool() -> futures.ThreadPoolExecutor:
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            # Threads start on demand: one fewer than the lanes per call,
            # and room for concurrent calls up to one per usable core.
            _helpers = futures.ThreadPoolExecutor(
                max_workers=usable_cores(), thread_name_prefix="repro-lane"
            )
        return _helpers


def _drop_helpers_in_child() -> None:
    """A forked child's copy of the pool has no live thread; forget it."""
    global _helpers, _helpers_lock
    _helpers = None
    _helpers_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers_in_child)


def run_lanes(lane: Callable[[Iterable[int]], None], n_tasks: int) -> None:
    """Run ``lane(tasks)`` on up to :func:`score_lanes` lanes.

    Every lane is handed the same iterator over ``range(n_tasks)`` and
    works until it runs dry, so a lane the host slows takes fewer tasks
    instead of holding the others back.  The calling thread is one lane,
    and a single task runs on it alone without reading the lane count.
    Returns, or raises the first lane error (the caller's own first), only
    after every lane has stopped; a helper that has not started by then
    is cancelled.  When the pool cannot take work (at interpreter
    shutdown) the lanes already started take every task.
    """
    if n_tasks < 2:
        lane(range(n_tasks))
        return
    tasks = _Tasks(n_tasks)
    helpers: list[futures.Future] = []
    n_lanes = min(score_lanes(), n_tasks)
    if n_lanes > 1:
        pool = _helper_pool()
        try:
            for _ in range(n_lanes - 1):
                helpers.append(pool.submit(lane, tasks))
        except RuntimeError:
            pass  # the pool is shut down: the lanes already running take it all
    try:
        lane(tasks)
    finally:
        for helper in helpers:
            helper.cancel()
        futures.wait(helpers)
    for helper in helpers:
        if not helper.cancelled():
            helper.result()
