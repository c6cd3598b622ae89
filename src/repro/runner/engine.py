"""The grid execution engine: shard, execute, persist, resume.

:func:`run_grid` expands a :class:`~repro.runner.spec.GridSpec` into work
units, drops every unit whose cells are already complete in the
:class:`~repro.runner.store.RunStore`, and executes the rest either inline
or across ``multiprocessing`` workers.  Each worker:

1. builds the benchmark dataset once per process (memoized),
2. loads the shared prepared-experiment bundle for the unit's
   (target, seed) from the on-disk cache — preparing and publishing it if
   it is first,
3. fits the unit's method once and scores every still-missing scenario,
4. commits each scenario cell to the store as soon as it is scored,

so an interrupted run loses at most the units in flight and a relaunch
resumes exactly where it stopped.  A unit that raises is recorded in the
report and does not take the rest of the grid down with it.
"""

from __future__ import annotations

import multiprocessing as mp
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.data.splits import Scenario
from repro.runner import prepared
from repro.runner.spec import GridSpec, WorkUnit
from repro.runner.store import RunStore


@dataclass
class GridRunReport:
    """What one :func:`run_grid` invocation did."""

    run_dir: str
    workers: int
    n_cells: int
    n_computed: int = 0
    n_skipped: int = 0
    elapsed: float = 0.0
    #: (unit description, error message) for every unit that raised.
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format_summary(self) -> str:
        lines = [
            f"grid run in {self.run_dir}: {self.n_cells} cells "
            f"({self.n_computed} computed, {self.n_skipped} resumed, "
            f"{len(self.failures)} failed units) "
            f"in {self.elapsed:.2f}s with {self.workers} worker(s)"
        ]
        for desc, error in self.failures:
            lines.append(f"  FAILED {desc}: {error}")
        return "\n".join(lines)


def _unit_description(unit: WorkUnit) -> str:
    return f"{unit.method_label} on {unit.target} seed={unit.seed}"


def _record_unit_failure(
    store: RunStore,
    unit: WorkUnit,
    scenarios: list[Scenario],
    error: str,
    traceback_text: str,
) -> None:
    """Stamp the failure (with its full traceback) on every missing cell.

    Best-effort: a store that cannot be written must not mask the original
    unit exception.
    """
    for scenario in scenarios:
        try:
            store.record_failure(
                unit.cells[scenario], error, traceback_text=traceback_text
            )
        except OSError:
            pass


def _missing_scenarios(store: RunStore, unit: WorkUnit):
    return [sc for sc, cell in unit.cells.items() if not store.is_complete(cell.key)]


def _process_unit(
    store: RunStore,
    spec: GridSpec,
    unit: WorkUnit,
    scenarios: list[Scenario],
    bundles: prepared.PreparedCache,
) -> int:
    """Fit/score the given scenarios of one unit; returns cells computed.

    The caller decides which scenarios to (re)compute — the resume scan in
    :func:`run_grid` already validated every stored cell, so this does not
    re-read the store.
    """
    from repro.cvae.cache import AugmentationCache
    from repro.eval.protocol import evaluate_prepared
    from repro.obs import PhaseProfiler
    from repro.registry import build_method
    from repro.utils.persist import canonical_json

    if not scenarios:
        return 0
    profiler = PhaseProfiler()
    with profiler.phase("prepare"):
        experiment = bundles.get(spec, unit.target, unit.seed)
    method = build_method(dict(unit.method_config), seed=unit.seed)
    if hasattr(method, "set_augmentation_cache"):
        # Augmentations depend only on (dataset, target, seed, CVAE knobs),
        # so cells sweeping meta-level settings share one cached entry and
        # a replayed cell retrains zero Dual-CVAEs.
        method.set_augmentation_cache(
            AugmentationCache(store.run_dir / "augmented"),
            token=canonical_json({"dataset": spec.dataset.to_dict()}),
        )
    # Fit outside evaluate_prepared so the profiler can attribute fit vs
    # score time; fit=False then skips refitting, identical behaviour.
    with profiler.phase("fit"):
        method.fit(experiment.ctx)
    with profiler.phase("score"):
        results = evaluate_prepared(
            method, experiment, scenarios=scenarios, k=spec.k, fit=False
        )

    extras: dict[str, object] = {"phases": profiler.report()}
    augmented = getattr(method, "augmented", None)
    if augmented is not None:
        from repro.cvae.augment import rating_diversity

        extras["diversity"] = float(rating_diversity(augmented))
    augmentation_info = getattr(method, "augmentation_info", None)
    if augmentation_info:
        extras.update(augmentation_info)

    for scenario in scenarios:
        result = results[scenario]
        store.save_cell(
            unit.cells[scenario], result.metrics, result.score_lists, extras=extras
        )
    return len(scenarios)


# ----------------------------------------------------------------------
# Worker-process plumbing.  Workers receive the spec as a plain dict and
# re-expand it locally: unit indices are stable because expansion is
# deterministic, and shipping (index, missing scenarios) is cheaper than
# pickling cells — and spares workers re-validating stored cells the
# parent's resume scan already checked.
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(spec_payload: dict, run_dir: str) -> None:
    spec = GridSpec.from_dict(spec_payload)
    _WORKER_STATE["spec"] = spec
    _WORKER_STATE["store"] = store = RunStore(run_dir)
    _WORKER_STATE["bundles"] = prepared.PreparedCache(store.prepared_dir)
    _WORKER_STATE["units"] = spec.work_units()


def _worker_run_unit(
    item: tuple[int, list[Scenario]]
) -> tuple[int, int, str | None]:
    unit_index, scenarios = item
    spec: GridSpec = _WORKER_STATE["spec"]
    store: RunStore = _WORKER_STATE["store"]
    unit: WorkUnit = _WORKER_STATE["units"][unit_index]
    bundles: prepared.PreparedCache = _WORKER_STATE["bundles"]
    try:
        return unit_index, _process_unit(store, spec, unit, scenarios, bundles), None
    except Exception as exc:  # noqa: BLE001 — isolate unit failures
        error = f"{type(exc).__name__}: {exc}"
        _record_unit_failure(store, unit, scenarios, error, traceback.format_exc())
        return unit_index, 0, error


def run_grid(
    spec: GridSpec,
    run_dir: str | Path,
    workers: int = 1,
    dataset=None,
    resume: bool = True,
    force_spec: bool = False,
    progress: Callable[[str], None] | None = None,
) -> GridRunReport:
    """Execute (or resume) a grid into ``run_dir``.

    Parameters
    ----------
    workers:
        number of ``multiprocessing`` workers; ``<= 1`` runs inline (which
        also lets tests inject a prebuilt ``dataset``).
    dataset:
        optional prebuilt benchmark for the inline path; combining it with
        ``workers > 1`` raises, because worker processes always build from
        ``spec.dataset`` and would silently ignore it.
    resume:
        when ``False``, recompute every cell even if the store has it.
    force_spec:
        rebind a run directory that holds a different spec (the default is
        to refuse, so two grids never interleave cells).
    """
    if dataset is not None and workers > 1:
        raise ValueError(
            "an injected dataset is only honored with workers <= 1; "
            "multiprocessing workers build the dataset from spec.dataset"
        )
    say = progress or (lambda message: None)
    store = RunStore(run_dir)
    store.write_spec(spec, force=force_spec)
    units = spec.work_units()
    report = GridRunReport(
        run_dir=str(run_dir),
        workers=max(1, workers),
        n_cells=sum(len(u.cells) for u in units),
    )

    started = time.perf_counter()
    # One validation pass over the store decides what runs; workers receive
    # the missing-scenario lists instead of re-checking every stored cell.
    pending: list[tuple[int, list[Scenario]]] = []
    for index, unit in enumerate(units):
        missing = _missing_scenarios(store, unit) if resume else list(unit.cells)
        if missing:
            pending.append((index, missing))
        report.n_skipped += len(unit.cells) - len(missing)

    say(
        f"[grid] {report.n_cells} cells in {len(units)} units; "
        f"{len(pending)} unit(s) to run, {report.n_skipped} cells resumed"
    )

    if workers > 1 and len(pending) > 1:
        n_procs = min(workers, len(pending))
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        with ctx.Pool(
            processes=n_procs,
            initializer=_worker_init,
            initargs=(spec.to_dict(), str(run_dir)),
        ) as pool:
            for index, n_computed, error in pool.imap_unordered(
                _worker_run_unit, pending
            ):
                desc = _unit_description(units[index])
                if error is not None:
                    report.failures.append((desc, error))
                    say(f"[grid] FAILED {desc}: {error}")
                else:
                    report.n_computed += n_computed
                    say(f"[grid] done {desc} ({n_computed} cells)")
    else:
        bundles = prepared.PreparedCache(store.prepared_dir, dataset=dataset)
        for index, missing in pending:
            unit = units[index]
            desc = _unit_description(unit)
            try:
                n_computed = _process_unit(store, spec, unit, missing, bundles)
            except Exception as exc:  # noqa: BLE001 — isolate unit failures
                error = f"{type(exc).__name__}: {exc}"
                _record_unit_failure(
                    store, unit, missing, error, traceback.format_exc()
                )
                report.failures.append((desc, error))
                say(f"[grid] FAILED {desc}: {exc}")
            else:
                report.n_computed += n_computed
                say(f"[grid] done {desc} ({n_computed} cells)")

    report.elapsed = time.perf_counter() - started
    return report


@contextmanager
def temporary_grid(
    spec: GridSpec,
    dataset=None,
    progress: Callable[[str], None] | None = None,
) -> Iterator[Path]:
    """Run ``spec`` inline in a temporary run directory and yield it.

    Every paper table and figure runs this way: the caller folds the stored
    cells (:mod:`repro.runner.aggregate`) inside the ``with`` block, and the
    directory is removed when the block exits.  A failed unit raises
    :class:`RuntimeError` with the run summary, so the caller sees why it
    failed rather than which cells are missing.  With ``dataset`` given,
    ``spec.dataset`` only names the cells; the fresh directory holds cells
    of no other data.
    """
    with tempfile.TemporaryDirectory(prefix="repro-grid-") as run_dir:
        report = run_grid(spec, run_dir, dataset=dataset, progress=progress)
        if not report.ok:
            raise RuntimeError(report.format_summary())
        yield Path(run_dir)
