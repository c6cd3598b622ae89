"""Temporal-split evaluation: train before t, serve (and observe) after t.

The offline leave-one-out protocol of :mod:`repro.eval.protocol` freezes
each user's full support history before scoring — it cannot answer the
streaming questions: how much do rankings decay as new interactions arrive
*after* the artifact was trained, and how much of that decay does a
periodic reptile meta-refresh claw back?

This module's protocol:

1. :func:`split_task_stream` stamps every support interaction of every task
   with a seeded pseudo-time in ``[0, 1)`` and cuts at the
   ``initial_frac`` quantile per task: the earliest interactions form the
   *initial* support task (what the artifact served at deploy time, ≤ t);
   the rest become a time-ordered :class:`ObserveEvent` stream (> t).  The
   query side — the held-out positives being ranked — is never touched.
2. :func:`evaluate_stream` registers the initial tasks with a
   :class:`~repro.service.RecommenderService`, scores every instance
   through the *serving* path (cached adaptations, batched cold-start), and
   then replays the event stream in ``n_windows`` slices — ``observe`` per
   event, optionally ``meta_refresh`` per window — re-scoring after each.

Because scoring always goes through ``service.score_instances``, the
reported serve cost (adapted users per window) is the cost a production
deployment would pay; refresh-vs-no-refresh runs are compared at equal
serve cost with :func:`compare_refresh_cadence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.negative_sampling import EvalInstance
from repro.data.tasks import PreferenceTask
from repro.eval.metrics import MetricSet


@dataclass(frozen=True)
class ObserveEvent:
    """One post-t interaction: ``(user, item, rating)`` at pseudo-time ``time``."""

    user_row: int
    item_row: int
    rating: float
    time: float


def split_task_stream(
    tasks: list[PreferenceTask],
    initial_frac: float = 0.5,
    seed: int = 0,
) -> tuple[list[PreferenceTask], list[ObserveEvent]]:
    """Split each task's support set into initial history and future events.

    Benchmark tasks carry no timestamps, so each support interaction gets a
    seeded uniform pseudo-time; per task, the earliest ``initial_frac``
    fraction (at least one interaction) stays in the returned initial task
    and the remainder becomes the event stream, globally sorted by time.
    Query sets pass through unchanged — they are the post-t evaluation
    target.
    """
    if not 0.0 < initial_frac <= 1.0:
        raise ValueError("initial_frac must be in (0, 1]")
    rng = np.random.default_rng(seed)
    initial: list[PreferenceTask] = []
    events: list[ObserveEvent] = []
    for task in tasks:
        n = task.n_support
        if n == 0:
            initial.append(task)
            continue
        times = rng.random(n)
        order = np.argsort(times, kind="stable")
        n_init = max(1, int(np.floor(initial_frac * n)))
        keep = np.sort(order[:n_init])
        initial.append(
            replace(
                task,
                support_items=task.support_items[keep],
                support_labels=task.support_labels[keep],
            )
        )
        for idx in order[n_init:]:
            events.append(
                ObserveEvent(
                    user_row=int(task.user_row),
                    item_row=int(task.support_items[idx]),
                    rating=float(task.support_labels[idx]),
                    time=float(times[idx]),
                )
            )
    events.sort(key=lambda e: e.time)
    return initial, events


@dataclass(frozen=True)
class StreamWindow:
    """Metrics and serve cost after ingesting one slice of the event stream."""

    index: int
    n_events: int
    metrics: MetricSet
    adapted_users: int  # users fine-tuned while scoring this window
    refreshes: int  # cumulative service meta-refreshes so far


@dataclass
class TemporalEvalReport:
    """Metric trajectory of one temporal-split run."""

    initial: MetricSet
    windows: list[StreamWindow] = field(default_factory=list)

    @property
    def final(self) -> MetricSet:
        return self.windows[-1].metrics if self.windows else self.initial

    @property
    def total_adapted_users(self) -> int:
        return sum(w.adapted_users for w in self.windows)

    def trace(self, name: str) -> list[float]:
        """One metric (``hr``/``mrr``/``ndcg``/``auc``) across all windows."""
        return [getattr(self.initial, name)] + [
            getattr(w.metrics, name) for w in self.windows
        ]

    def to_dict(self) -> dict:
        def row(m: MetricSet) -> dict:
            return {"hr": m.hr, "mrr": m.mrr, "ndcg": m.ndcg, "auc": m.auc}

        return {
            "initial": row(self.initial),
            "windows": [
                {
                    "index": w.index,
                    "n_events": w.n_events,
                    "adapted_users": w.adapted_users,
                    "refreshes": w.refreshes,
                    **row(w.metrics),
                }
                for w in self.windows
            ],
        }


def evaluate_stream(
    service,
    initial_tasks: list[PreferenceTask],
    instances: list[EvalInstance],
    events: list[ObserveEvent],
    n_windows: int = 4,
    k: int = 10,
    refresh_each_window: bool = False,
    clear_cache_each_window: bool = False,
) -> TemporalEvalReport:
    """Serve, observe, and re-score through a windowed event stream.

    ``service`` is a :class:`~repro.service.RecommenderService` (any method
    with serving support; ``refresh_each_window`` additionally needs
    ``supports_meta_refresh``).  The initial tasks are registered, every
    instance is scored through the serving path (window "initial"), then
    the events are replayed in ``n_windows`` consecutive slices — after
    each slice the instances are re-scored, so the report traces ranking
    quality against event ingestion and refresh cadence.

    ``clear_cache_each_window`` drops the adaptation cache where a refresh
    *would* have (a refresh invalidates everything) without touching the
    meta-parameters — the control arm that equalizes per-window adaptation
    cost between refresh and no-refresh runs.
    """
    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    for task in initial_tasks:
        service.register_user_history(task)
    initial = MetricSet.from_score_lists(service.score_instances(instances), k=k)
    report = TemporalEvalReport(initial=initial)
    bounds = np.linspace(0, len(events), n_windows + 1).astype(int)
    for w in range(n_windows):
        window_events = events[bounds[w] : bounds[w + 1]]
        for event in window_events:
            service.observe(event.user_row, event.item_row, event.rating)
        if refresh_each_window:
            service.meta_refresh()
        elif clear_cache_each_window:
            service.clear_cache()
        adapted_before = service.metrics.counter("serve.adapt.users")
        metrics = MetricSet.from_score_lists(
            service.score_instances(instances), k=k
        )
        report.windows.append(
            StreamWindow(
                index=w,
                n_events=len(window_events),
                metrics=metrics,
                adapted_users=int(
                    service.metrics.counter("serve.adapt.users") - adapted_before
                ),
                refreshes=int(service.metrics.counter("serve.stream.refreshes")),
            )
        )
    return report


def compare_refresh_cadence(
    make_service,
    tasks: list[PreferenceTask],
    instances: list[EvalInstance],
    initial_frac: float = 0.5,
    n_windows: int = 4,
    k: int = 10,
    seed: int = 0,
) -> dict[str, TemporalEvalReport]:
    """Run the temporal protocol with and without periodic meta-refresh.

    ``make_service`` builds a *fresh* service around an identically
    initialized method on every call (each arm must start from the same
    parameters).  Both arms see the same split and the same event stream,
    and both drop the adaptation cache at every window boundary (a refresh
    does so implicitly, the control explicitly), so they adapt the same
    users at the same points — the metric gap is attributable to the
    refresh itself at equal serve cost.
    """
    initial, events = split_task_stream(tasks, initial_frac=initial_frac, seed=seed)
    reports: dict[str, TemporalEvalReport] = {}
    for label, refresh in (("no_refresh", False), ("refresh", True)):
        service = make_service()
        reports[label] = evaluate_stream(
            service,
            initial,
            instances,
            events,
            n_windows=n_windows,
            k=k,
            refresh_each_window=refresh,
            clear_cache_each_window=not refresh,
        )
    return reports
