"""Evaluation: ranking metrics, the leave-one-out protocol, significance tests."""

from repro.eval.metrics import MetricSet
from repro.eval.protocol import EvaluationResult
from repro.eval.significance import SignificanceResult, wilcoxon_one_sided
from repro.eval.temporal import (
    ObserveEvent,
    TemporalEvalReport,
    compare_refresh_cadence,
    evaluate_stream,
    split_task_stream,
)

__all__ = [
    "MetricSet",
    "EvaluationResult",
    "SignificanceResult",
    "wilcoxon_one_sided",
    "ObserveEvent",
    "TemporalEvalReport",
    "compare_refresh_cadence",
    "evaluate_stream",
    "split_task_stream",
]
