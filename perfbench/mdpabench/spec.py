"""Metric declarations and the result line.

The names, units and directions here mirror ``BENCHMARK.json`` at the
repository root (a test keeps the two in step).  :func:`result_line`
refuses any metric name not declared here, so a run can only print
metrics the benchmark file describes.
"""

from __future__ import annotations

import json
import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: end-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them, each for its own unit of work (see
#: ``perfbench/README.md``): ``p50_ms`` is the median time of one fit
#: and its evaluation (train-eval), one read at the reference rate
#: (serve-read, serve-mixed) or one batched ``recommend_many`` call
#: (recommend-wide).  Workload-specific figures — ``fit_s``, ``eval_s``,
#: ``ndcg10``, ``p99_ms``, ``max_rate``, ``sat_qps``, ``write_p99_ms``,
#: ``error_frac``, ``recs_per_s`` — are printed in each pass's report
#: line, not gated.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "p50_ms": ("ms", "lower"),
}

#: per-layer metrics of the traced run: name -> (unit, better).  Every
#: traced run prints all of them; a layer the workload does not reach
#: reports 0 (it did no work).
_LAYERS = {
    "data.generate_s": ("s", "lower"),
    "data.prepare_s": ("s", "lower"),
    "cvae.fit_generate_s": ("s", "lower"),
    "cvae.step_count": ("count", "lower"),
    "cvae.step_busy_s": ("s", "lower"),
    "meta.corpus_build_s": ("s", "lower"),
    "meta.maml_fit_s": ("s", "lower"),
    "meta.step_count": ("count", "lower"),
    "meta.step_busy_s": ("s", "lower"),
    "meta.gather_busy_s": ("s", "lower"),
    "meta.score_busy_s": ("s", "lower"),
    "meta.candidates_per_s": ("1/s", "higher"),
    "topk.busy_s": ("s", "lower"),
    "eval.score_batch_s": ("s", "lower"),
    "eval.metrics_s": ("s", "lower"),
    "core.artifact_load_s": ("s", "lower"),
    "serve.ready_s": ("s", "lower"),
    "serve.queue_wait_p50_ms": ("ms", "lower"),
    "serve.queue_wait_p99_ms": ("ms", "lower"),
    "serve.rpc_count": ("count", "lower"),
    "serve.rpc_p99_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("count", "higher"),
    "serve.restarts": ("count", "lower"),
    "serve.responses_error": ("count", "lower"),
    "service.adapt_busy_s": ("s", "lower"),
    "service.adapt_users_per_batch": ("count", "higher"),
    "service.cache_hit_ratio": ("ratio", "higher"),
    "service.cache_lookups": ("count", "lower"),
    "service.refresh_count": ("count", "lower"),
    "service.refresh_busy_s": ("s", "lower"),
    "service.score_busy_s": ("s", "lower"),
    "bench.gen_late_p99_ms": ("ms", "lower"),
    "bench.error_frac": ("ratio", "lower"),
}

#: traced-minus-untraced difference of each end-to-end metric, in percent
#: of the untraced value.
OVERHEAD_PREFIX = "obs.trace_overhead_pct."

PER_LAYER = {
    **_LAYERS,
    **{f"{OVERHEAD_PREFIX}{name}": ("%", "lower") for name in END_TO_END},
}


def _entry(name: str, value: float, table: dict) -> dict:
    if name not in table or not NAME_RE.fullmatch(name):
        raise KeyError(f"undeclared metric {name!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric {name} is not finite: {value!r}")
    return {"value": value, "unit": table[name][0]}


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict, trace: bool
) -> str:
    """The final stdout line: ``correct``, ``attempted``, ``failed``, ``metrics``.

    Untraced runs print every end-to-end metric, traced runs every
    per-layer one; a name missing from the matching table, or a metric of
    the table missing from a correct run, raises ``KeyError``.
    """
    table = PER_LAYER if trace else END_TO_END
    missing = set(table) - set(metrics)
    if correct and missing:
        raise KeyError(f"metrics missing from the result: {sorted(missing)}")
    body = {name: _entry(name, value, table) for name, value in metrics.items()}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": max(int(attempted), 1),
            "failed": int(failed),
            "metrics": body,
        }
    )
