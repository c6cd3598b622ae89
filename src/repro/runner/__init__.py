"""Parallel, resumable experiment-grid runner.

The paper's evaluation is one grid of (method × target × scenario × seed)
cells.  This package evaluates such grids as a declarative spec
(:class:`GridSpec`) executed across ``multiprocessing`` workers
(:func:`run_grid`), with every cell committed to a content-addressed
:class:`RunStore` the moment it finishes — interrupting a run loses only
the work in flight, and relaunching the same spec skips every completed
cell.  Aggregation helpers (:func:`table3_from_store`,
:func:`ndcg_curves_from_store`, :func:`ablation_from_store`,
:func:`grid_status`) fold a run directory back into the repo's standard
result objects and report writers.

Every paper table and figure runner in :mod:`repro.experiments` is a
:class:`GridSpec` builder: it runs its spec inline in a temporary
directory (:func:`temporary_grid`) and folds the cells with the same
helpers ``grid report`` uses.

Quickstart::

    from repro.runner import GridSpec, run_grid, table3_from_store

    spec = GridSpec(methods=["Popularity", "MeLU"], targets=["Books"],
                    seeds=[0, 1], profile="fast")
    report = run_grid(spec, "runs/demo", workers=4)
    print(table3_from_store("runs/demo").format_table())
"""

from repro.runner.aggregate import (
    GridStatus,
    IncompleteGridError,
    ablation_from_store,
    evaluation_results,
    grid_status,
    load_cells,
    ndcg_curves_from_store,
    table3_from_store,
)
from repro.runner.engine import GridRunReport, run_grid, temporary_grid
from repro.runner.spec import DatasetSpec, GridCell, GridSpec, WorkUnit
from repro.runner.store import CellResult, GridSpecMismatch, RunStore

__all__ = [
    "DatasetSpec",
    "GridCell",
    "GridSpec",
    "WorkUnit",
    "GridRunReport",
    "run_grid",
    "temporary_grid",
    "RunStore",
    "CellResult",
    "GridSpecMismatch",
    "GridStatus",
    "IncompleteGridError",
    "grid_status",
    "load_cells",
    "evaluation_results",
    "table3_from_store",
    "ndcg_curves_from_store",
    "ablation_from_store",
]
