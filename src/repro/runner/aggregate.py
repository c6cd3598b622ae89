"""Fold stored grid cells back into the repo's result objects.

The grid engine persists raw per-cell score lists; these helpers rebuild
the result objects of the paper's tables and figures from them: a
:class:`~repro.experiments.table3.Table3Result` for Table III and the
significance test (:func:`table3_from_store`), and the mean NDCG@k curves
plus augmentation diversity behind Figs. 3–5 and 7–8
(:func:`ndcg_curves_from_store`, which :func:`ablation_from_store` wraps
into Fig. 5's :class:`~repro.experiments.ablation.AblationResult`).  The
experiment runners fold their temporary grids through these, and
``grid report`` folds a kept run directory the same way, so every report
writer (console tables, CSV, Markdown) reads either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.data.splits import Scenario
from repro.eval.metrics import ndcg_curve
from repro.eval.protocol import EvaluationResult
from repro.runner.spec import GridCell, GridSpec
from repro.runner.store import CellResult, RunStore


class IncompleteGridError(RuntimeError):
    """Aggregation was asked for cells the store does not have yet."""


@dataclass
class GridStatus:
    """Completion state of one grid run directory.

    Besides cell completion, reports the augmentation cache's state: how
    many distinct augmentations the run directory holds and how many stored
    cells recorded a cache hit versus a miss (i.e. how many MetaDPA-family
    fits skipped their k Dual-CVAE trainings entirely).
    """

    run_dir: str
    n_cells: int
    n_complete: int
    missing: list[GridCell] = field(default_factory=list)
    n_augmentations_cached: int = 0
    augmentation_hits: int = 0
    augmentation_misses: int = 0
    #: per-method phase timings folded over every stored cell:
    #: ``{method_label: {phase: {calls, wall_s, peak_rss_bytes}}}``
    phase_timings: dict[str, dict] = field(default_factory=dict)
    #: crash records of still-missing cells: ``(cell, failure payload)``
    #: with the error message and full traceback the engine persisted.
    failures: list[tuple[GridCell, dict]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing

    def format_table(self) -> str:
        lines = [
            f"grid {self.run_dir}: {self.n_complete}/{self.n_cells} cells complete"
        ]
        by_unit: dict[tuple[str, int, str], int] = {}
        for cell in self.missing:
            unit = (cell.target, cell.seed, cell.method_label)
            by_unit[unit] = by_unit.get(unit, 0) + 1
        for (target, seed, label), count in sorted(by_unit.items()):
            lines.append(
                f"  missing {count} cell(s): {label} on {target} seed={seed}"
            )
        # One line per failed *unit* (every cell of a unit records the same
        # crash), with the traceback's culprit line so the status table
        # answers "why" without the user digging into the run directory.
        seen_units: set[tuple[str, int, str]] = set()
        for cell, payload in self.failures:
            unit = (cell.target, cell.seed, cell.method_label)
            if unit in seen_units:
                continue
            seen_units.add(unit)
            target, seed, label = unit
            lines.append(
                f"  FAILED {label} on {target} seed={seed}: "
                f"{payload.get('error', 'unknown error')}"
            )
            trace = payload.get("traceback")
            if trace:
                culprit = [
                    ln for ln in trace.strip().splitlines() if ln.strip()
                ]
                for ln in culprit[-3:-1]:
                    lines.append(f"    {ln.strip()}")
        if (
            self.n_augmentations_cached
            or self.augmentation_hits
            or self.augmentation_misses
        ):
            lines.append(
                f"  augmentation cache: {self.n_augmentations_cached} entr"
                f"{'y' if self.n_augmentations_cached == 1 else 'ies'}; "
                f"{self.augmentation_hits} cell(s) hit, "
                f"{self.augmentation_misses} missed"
            )
        return "\n".join(lines)

    def format_timings(self) -> str:
        """Per-method phase timing table (``grid status --timings``).

        Wall times are summed over every stored cell of the method (each
        *unit* is profiled once and its report stored on each of its
        cells, so the sums weight multi-scenario units per cell — a
        consistent, comparable convention across methods); peak RSS is
        the max over the cells' worker processes.
        """
        if not self.phase_timings:
            return "no phase timings recorded (grid predates the profiler)"
        phases = ["prepare", "fit", "score"]
        extra = sorted(
            {p for report in self.phase_timings.values() for p in report}
            - set(phases)
        )
        phases += extra
        width = max(len(label) for label in self.phase_timings)
        header = f"{'method':<{width}}  " + "".join(
            f"{p + ' (s)':>12}" for p in phases
        ) + f"{'peak rss':>12}"
        lines = [header]
        for label in sorted(self.phase_timings):
            report = self.phase_timings[label]
            row = f"{label:<{width}}  "
            for phase in phases:
                wall = report.get(phase, {}).get("wall_s", 0.0)
                row += f"{wall:>12.2f}"
            peak = max(
                (entry.get("peak_rss_bytes", 0) for entry in report.values()),
                default=0,
            )
            row += f"{peak / 2**20:>10.0f}MB"
            lines.append(row)
        return "\n".join(lines)


def _resolve(run: RunStore | str | Path, spec: GridSpec | None) -> tuple[RunStore, GridSpec]:
    store = run if isinstance(run, RunStore) else RunStore(run)
    return store, spec or store.load_spec()


def grid_status(run: RunStore | str | Path, spec: GridSpec | None = None) -> GridStatus:
    """How much of the grid is done, and which cells are still missing."""
    from repro.obs import merge_phase_reports

    store, spec = _resolve(run, spec)
    cells = spec.expand()
    missing: list[GridCell] = []
    hits = misses = 0
    timings: dict[str, dict] = {}
    failed = store.failed_keys()
    failures: list[tuple[GridCell, dict]] = []
    for cell in cells:
        result = store.load_cell(cell.key)
        if result is None:
            missing.append(cell)
            if cell.key in failed:
                payload = store.load_failure(cell.key)
                if payload is not None:
                    failures.append((cell, payload))
            continue
        state = result.extras.get("augmentation_cache")
        if state == "hit":
            hits += 1
        elif state == "miss":
            misses += 1
        phases = result.extras.get("phases")
        if phases:
            timings[cell.method_label] = merge_phase_reports(
                timings.get(cell.method_label), phases
            )
    augmented_dir = store.run_dir / "augmented"
    n_cached = len(list(augmented_dir.glob("*.npz"))) if augmented_dir.exists() else 0
    return GridStatus(
        run_dir=str(store.run_dir),
        n_cells=len(cells),
        n_complete=len(cells) - len(missing),
        missing=missing,
        n_augmentations_cached=n_cached,
        augmentation_hits=hits,
        augmentation_misses=misses,
        phase_timings=timings,
        failures=failures,
    )


def load_cells(
    run: RunStore | str | Path, spec: GridSpec | None = None
) -> dict[tuple[str, Scenario, str, int], CellResult]:
    """Every stored cell of the grid, keyed by (target, scenario, label, seed)."""
    store, spec = _resolve(run, spec)
    loaded: dict[tuple[str, Scenario, str, int], CellResult] = {}
    missing: list[str] = []
    for cell in spec.expand():
        result = store.load_cell(cell.key)
        if result is None:
            missing.append(f"{cell.method_label}/{cell.target}/{cell.scenario.value}/seed{cell.seed}")
            continue
        loaded[(cell.target, cell.scenario, cell.method_label, cell.seed)] = result
    if missing:
        preview = ", ".join(missing[:6]) + ("…" if len(missing) > 6 else "")
        raise IncompleteGridError(
            f"{len(missing)} cell(s) missing from {store.run_dir} ({preview}); "
            "run `grid run` to completion first"
        )
    return loaded


def evaluation_results(
    run: RunStore | str | Path, spec: GridSpec | None = None
) -> dict[str, dict[Scenario, list[EvaluationResult]]]:
    """Stored cells as ``results[label][scenario]`` → per-seed EvaluationResults."""
    store, spec = _resolve(run, spec)
    cells = load_cells(store, spec)
    out: dict[str, dict[Scenario, list[EvaluationResult]]] = {}
    for label in spec.method_labels:
        per_scenario: dict[Scenario, list[EvaluationResult]] = {}
        for scenario in spec.scenarios:
            per_scenario[scenario] = [
                _to_evaluation_result(cells[(target, scenario, label, seed)], scenario)
                for target in spec.targets
                for seed in spec.seeds
            ]
        out[label] = per_scenario
    return out


def _to_evaluation_result(cell: CellResult, scenario: Scenario) -> EvaluationResult:
    return EvaluationResult(
        method=cell.meta["method_label"],
        domain=cell.meta["target"],
        scenario=scenario,
        metrics=cell.metrics,
        score_lists=cell.score_lists,
    )


def table3_from_store(run: RunStore | str | Path, spec: GridSpec | None = None):
    """Rebuild a :class:`Table3Result` (feeds CSV/Markdown/significance)."""
    from repro.experiments.table3 import METRIC_NAMES, Table3Result

    store, spec = _resolve(run, spec)
    cells = load_cells(store, spec)
    result = Table3Result(
        targets=list(spec.targets),
        methods=list(spec.method_labels),
        seeds=list(spec.seeds),
        scenarios=list(spec.scenarios),
    )
    for (target, scenario, label, _seed), cell in cells.items():
        slot = result.cells.setdefault(
            (target, scenario, label), {metric: [] for metric in METRIC_NAMES}
        )
        for metric in METRIC_NAMES:
            slot[metric].append(getattr(cell.metrics, metric))
    return result


def ndcg_curves_from_store(
    run: RunStore | str | Path,
    spec: GridSpec | None,
    ks: Sequence[int],
    target: str,
) -> tuple[dict[tuple[Scenario, str], list[float]], dict[str, float]]:
    """Mean NDCG@k curve per (scenario, label), and mean diversity per label.

    The one curve aggregation of Figs. 3–5 and 7–8: each cell's curve is
    recomputed from the per-instance scores it stored and averaged over the
    seeds.  Diversity is the mean augmentation diversity the engine
    recorded at fit time, for the labels whose method augments.
    """
    store, spec = _resolve(run, spec)
    if target not in spec.targets:
        raise ValueError(f"target {target!r} is not in the grid ({spec.targets})")
    ks = list(ks)
    cells = load_cells(store, spec)
    curves: dict[tuple[Scenario, str], list[float]] = {}
    diversity: dict[str, list[float]] = {}
    for label in spec.method_labels:
        for scenario in spec.scenarios:
            rows = []
            for seed in spec.seeds:
                curve = ndcg_curve(cells[(target, scenario, label, seed)].score_lists, ks)
                rows.append([curve[k] for k in ks])
            curves[(scenario, label)] = list(np.mean(np.asarray(rows), axis=0))
        for seed in spec.seeds:
            extras = cells[(target, spec.scenarios[0], label, seed)].extras
            if "diversity" in extras:
                diversity.setdefault(label, []).append(float(extras["diversity"]))
    return curves, {label: float(np.mean(v)) for label, v in diversity.items()}


def ablation_from_store(
    run: RunStore | str | Path,
    spec: GridSpec | None = None,
    ks: tuple[int, ...] | None = None,
    target: str | None = None,
):
    """Rebuild a Fig.-5 :class:`AblationResult` from stored score lists."""
    from repro.experiments.ablation import AblationResult
    from repro.experiments.ndcg_curves import DEFAULT_KS

    store, spec = _resolve(run, spec)
    ks = list(ks or DEFAULT_KS)
    target = target or spec.targets[0]
    curves, diversity = ndcg_curves_from_store(store, spec, ks, target)
    return AblationResult(
        target=target,
        ks=ks,
        variants=list(spec.method_labels),
        seeds=list(spec.seeds),
        curves=curves,
        diversity=diversity,
        scenarios=list(spec.scenarios),
    )
