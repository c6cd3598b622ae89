"""One benchmark run: prepare inputs, measure, check, print the result.

An untraced run (``--trace 0``) measures the workload once with the
program's own observability off (``REPRO_OBS=0``) and no benchmark
wrappers installed, and prints the end-to-end metrics.  A traced run
(``--trace 1``) measures the workload twice on the same inputs — first
untraced, then traced — and prints the per-layer metrics of the traced
pass plus the traced-minus-untraced difference of every end-to-end
metric (``obs.trace_overhead_pct.*``).
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

from mdpabench.checks import CheckFailed
from mdpabench.fingerprint import cpu_ticks, fingerprint, steal_pct
from mdpabench.spec import OVERHEAD_PREFIX, PER_LAYER, result_line
from mdpabench.tracing import Tracer, set_obs
from mdpabench.workloads import WORKLOADS

#: scratch directory, inside the checkout, for artifacts a run writes.
WORK_DIR = ".perfbench_work"


def peak_rss_mb(workers_mb: float) -> float:
    """Peak RSS of this process or of its largest serving worker, in MB.

    The larger of the two: forked workers share the parent's pages, so
    their peaks already include what they inherited.  The child that
    prepared the inputs is not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(own, workers_mb)


def _report(kind: str, payload: dict) -> None:
    print(json.dumps({kind: payload}, default=str), flush=True)


def _measure(spec, inputs, seconds: float, tracer: Tracer | None):
    """One measured pass, reported with the hypervisor steal it suffered."""
    set_obs(tracer is not None)
    ticks = cpu_ticks()
    try:
        result = spec.run(inputs, seconds, tracer)
    finally:
        set_obs(False)
    result.e2e["peak_rss_mb"] = peak_rss_mb(result.child_rss_mb)
    _report(
        "untraced" if tracer is None else "traced",
        {
            "metrics": result.e2e,
            "ungated": result.info,
            "steal_pct": steal_pct(ticks, cpu_ticks()),
            "phases": result.phases,
        },
    )
    return result


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, pinned: dict) -> int:
    """Run one workload; prints report lines then the result line."""
    spec = WORKLOADS[workload]
    _report("fingerprint", fingerprint(root, workload, seed, trace, pinned))
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / WORK_DIR))
    try:
        set_obs(False)
        inputs = spec.prepare(seed, work)
        untraced = _measure(spec, inputs, seconds, None)
        if not trace:
            metrics = untraced.e2e
            result = untraced
        else:
            with Tracer() as tracer:
                result = _measure(spec, inputs, seconds, tracer)
            metrics = {name: 0.0 for name in PER_LAYER}
            metrics.update(result.layers)
            for name, base in untraced.e2e.items():
                if base:
                    metrics[f"{OVERHEAD_PREFIX}{name}"] = (
                        100.0 * (result.e2e[name] - base) / base
                    )
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr, flush=True)
        print(result_line(False, 1, 1, {}, trace), flush=True)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(True, result.attempted, result.failed, metrics, trace), flush=True)
    return 0
