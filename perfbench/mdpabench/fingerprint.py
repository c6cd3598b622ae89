"""Machine and run fingerprint stamped next to every result.

A number without the machine that produced it cannot be compared with a
later one, so each run records the core count, the BLAS library (vendor,
version and the thread count it is *actually* running with, read through
``ctypes``), the numpy and Python versions, the multiprocessing start
method the serving tier will use, the git commit and the workload seed.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

#: environment variables pinned to one BLAS thread per benchmark process.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: symbol names of the "current thread count" query, per BLAS build.
_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def pin_blas_threads(env: dict | None = None) -> dict:
    """Pin every BLAS thread pool to one thread; returns what was set.

    Must run before numpy is imported: OpenBLAS reads the variables once,
    when the library loads.  Child processes inherit the environment, so
    serving workers are pinned too.  Two workers with default threads on a
    two-core machine oversubscribe the cores and make latency bimodal.
    """
    env = os.environ if env is None else env
    pinned = {}
    for name in BLAS_THREAD_ENV:
        pinned[name] = {"was": env.get(name), "now": "1"}
        env[name] = "1"
    return pinned


def _loaded_blas_paths() -> list[str]:
    """Paths of every BLAS shared library mapped into this process.

    numpy and scipy may each bring their own OpenBLAS build.
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
        pass
    return paths


def _live_threads(path: str) -> int | None:
    """Thread count one loaded BLAS library reports right now."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in _THREAD_QUERIES:
        fn = getattr(lib, symbol, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def blas_info() -> dict:
    """Vendor and version numpy was built against, plus live thread counts.

    ``live_threads`` maps each loaded BLAS library to the thread count it
    reports; with the pin in place every entry is 1.
    """
    import numpy as np

    info: dict = {"vendor": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    info["live_threads"] = {
        os.path.basename(path): _live_threads(path) for path in _loaded_blas_paths()
    }
    return info


def cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters from ``/proc/stat`` (empty if absent)."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_pct(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests, in percent.

    On a shared virtual machine this is the main cause of run-to-run
    spread: runs with a few percent steal read up to twice as slow.
    """
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return 100.0 * delta[7] / total if total else 0.0


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git.

    Returns ``"unknown"`` outside a git working tree (an exported
    checkout carries no history).
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except (OSError, IndexError):
        pass
    return "unknown"


def fingerprint(
    root: Path, workload: str, seed: int, trace: bool, pinned: dict
) -> dict:
    """Everything needed to tell whether two results are comparable."""
    import numpy as np

    from repro.serve.sharded import default_start_method

    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cores = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": usable_cores,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_pin": pinned,
        "start_method": default_start_method(),
        "git_commit": git_commit(root),
    }
