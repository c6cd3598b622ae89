"""The end-to-end evaluation protocol of Section V-A2.

For each scenario:

1. build meta-test tasks from the scenario's block of the rating matrix,
2. build leave-one-out instances (one query positive vs 99 sampled
   negatives) from each task,
3. let the method score each instance, passing the task's support set so
   meta-learners can fine-tune,
4. aggregate HR@k / MRR@k / NDCG@k / AUC.

:func:`repro.data.experiment.prepare_experiment` runs steps 1-2 once per
(dataset, target, seed); :func:`evaluate_prepared` runs steps 3-4 on that
bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.interface import Recommender
from repro.data.negative_sampling import EvalInstance
from repro.data.splits import Scenario
from repro.data.tasks import PreferenceTask
from repro.eval.metrics import MetricSet, ndcg_curve


@dataclass
class EvaluationResult:
    """Scores of one method on one (domain, scenario) pair."""

    method: str
    domain: str
    scenario: Scenario
    metrics: MetricSet
    score_lists: list[np.ndarray] = field(repr=False, default_factory=list)

    def ndcg_at(self, ks: list[int]) -> dict[int, float]:
        """NDCG@k curve over the stored per-instance score lists."""
        return ndcg_curve(self.score_lists, ks)


def align_tasks(
    tasks: Iterable[PreferenceTask], instances: Sequence[EvalInstance]
) -> list[PreferenceTask | None]:
    """The support task backing each instance's user (``None`` if task-free).

    Methods receive tasks positionally aligned with the instances they
    score; this is the single place that alignment is computed for
    :func:`evaluate_prepared` and the grid runner.
    """
    task_by_user = {task.user_row: task for task in tasks}
    return [task_by_user.get(instance.user_row) for instance in instances]


def resolve_method(method, seed: int = 0, profile: str | None = None) -> Recommender:
    """Accept a :class:`Recommender`, a registry name, or a config dict.

    :func:`evaluate_prepared` routes through this, so callers can pass the
    declarative form — ``{"name": "MetaDPA", "cvae_epochs": 60}`` — instead
    of constructing method objects by hand.
    """
    if isinstance(method, Recommender):
        return method
    if isinstance(method, (str, Mapping)):
        from repro.registry import build_method

        return build_method(method, seed=seed, profile=profile)
    from repro.registry import MethodConfig, build_method

    if isinstance(method, MethodConfig):
        return build_method(method, seed=seed)
    raise TypeError(
        f"cannot resolve a method from {type(method).__name__}; "
        "pass a Recommender, a registered name, or a config dict"
    )


def evaluate_prepared(
    method,
    experiment,
    scenarios: list[Scenario] | None = None,
    k: int = 10,
    fit: bool = True,
) -> dict[Scenario, EvaluationResult]:
    """Evaluate on a :class:`repro.data.experiment.Experiment` bundle.

    This is the evaluation entry point: the experiment bundle owns the
    leak-free splits, tasks, instances and visibility matrices, so every
    method is scored on *identical* candidate lists.  ``method`` may be a
    fitted/unfitted :class:`Recommender`, a registered method name, or a
    config dict accepted by :func:`repro.registry.build_method`.
    """
    method = resolve_method(method, seed=experiment.seed)
    if fit:
        method.fit(experiment.ctx)
    results: dict[Scenario, EvaluationResult] = {}
    for scenario in scenarios or list(experiment.task_sets):
        tasks = experiment.task_sets[scenario]
        instances = experiment.instances[scenario]
        score_lists = method.score_batch(align_tasks(tasks, instances), instances)
        results[scenario] = EvaluationResult(
            method=method.name,
            domain=experiment.domain.name,
            scenario=scenario,
            metrics=MetricSet.from_score_lists(score_lists, k=k),
            score_lists=score_lists,
        )
    return results


def format_results_table(
    results: dict[str, dict[Scenario, EvaluationResult]],
    scenarios: list[Scenario] | None = None,
) -> str:
    """Render a Table-III-style block: rows = methods, grouped by scenario."""
    lines: list[str] = []
    for scenario in scenarios or list(Scenario):
        lines.append(f"--- {scenario.value} ---")
        header = f"{'Method':<12} {'HR@10':>8} {'MRR@10':>8} {'NDCG@10':>8} {'AUC':>8}"
        lines.append(header)
        for method_name, per_scenario in results.items():
            res = per_scenario.get(scenario)
            if res is None:
                continue
            m = res.metrics
            lines.append(
                f"{method_name:<12} {m.hr:>8.4f} {m.mrr:>8.4f} {m.ndcg:>8.4f} {m.auc:>8.4f}"
            )
        lines.append("")
    return "\n".join(lines)
