"""Experiment runners: one per table/figure of the paper's evaluation.

| Paper artifact | Runner |
|---|---|
| Tables I–II (dataset statistics) | :mod:`repro.experiments.stats_tables` |
| Table III (overall comparison)   | :mod:`repro.experiments.table3` |
| Figs. 3–4 (NDCG@k curves)        | :mod:`repro.experiments.ndcg_curves` |
| Fig. 5 (ME / MDI ablation)       | :mod:`repro.experiments.ablation` |
| Fig. 6 (scalability)             | :mod:`repro.experiments.scalability` |
| Figs. 7–8 (β1 / β2 sensitivity)  | :mod:`repro.experiments.hyperparams` |
| Sec. V-D (significance test)     | :mod:`repro.experiments.significance` |

Every runner accepts a ``profile`` ("fast" for CI/benchmarks, "full" for
faithful budgets) and a seed list, and returns a plain result object with a
``format_table()`` method that prints the same rows/series the paper
reports.

Except Fig. 6, which times blocks rather than scoring cells, every runner
is a :class:`repro.runner.GridSpec` builder: it runs its grid inline in a
temporary directory (:func:`repro.runner.temporary_grid`), folds the cells
with :mod:`repro.runner.aggregate` and renders the result.  For a kept,
resumable or multi-worker run of the same cells, use ``grid run`` and
``grid report``.
"""

from repro.registry import make_method, method_names
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.ndcg_curves import NdcgCurvesResult, run_ndcg_curves
from repro.experiments.ablation import AblationResult, run_ablation
from repro.experiments.scalability import ScalabilityResult, run_scalability
from repro.experiments.hyperparams import HyperparamResult, run_hyperparam_sweep
from repro.experiments.significance import (
    SignificanceReport,
    run_significance,
    significance_report,
)
from repro.experiments.stats_tables import run_dataset_statistics

__all__ = [
    "make_method",
    "method_names",
    "Table3Result",
    "run_table3",
    "NdcgCurvesResult",
    "run_ndcg_curves",
    "AblationResult",
    "run_ablation",
    "ScalabilityResult",
    "run_scalability",
    "HyperparamResult",
    "run_hyperparam_sweep",
    "SignificanceReport",
    "run_significance",
    "significance_report",
    "run_dataset_statistics",
]
