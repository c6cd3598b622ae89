"""Section V-D: Wilcoxon signed-rank significance of MetaDPA's wins.

The paper re-splits train/test 30 times and tests, per metric and scenario,
whether MetaDPA's improvement over the second-best method has positive
median (one-sided Wilcoxon signed-rank, α = 0.05).  The test reads the
per-seed series of a :class:`Table3Result`: the ``significance`` command
runs Table III's grid for them, ``grid report --significance`` reads a kept
run directory, and both call :func:`significance_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.domain import MultiDomainDataset
from repro.data.splits import Scenario
from repro.eval.significance import SignificanceResult, wilcoxon_one_sided
from repro.experiments.table3 import METRIC_NAMES, Table3Result, run_table3


@dataclass
class SignificanceReport:
    """Per (target, scenario, metric) test of MetaDPA vs the runner-up."""

    target: str
    n_seeds: int
    #: results[(scenario, metric)] -> (runner_up_name, SignificanceResult)
    results: dict[tuple[Scenario, str], tuple[str, SignificanceResult]] = field(
        default_factory=dict
    )

    def format_table(self) -> str:
        lines = [
            f"===== Significance (Sec. V-D) on {self.target}, "
            f"{self.n_seeds} random splits ====="
        ]
        lines.append(
            f"{'scenario':<24} {'metric':<8} {'runner-up':<12} "
            f"{'median diff':>12} {'p-value':>10}  sig?"
        )
        for (scenario, metric), (runner_up, res) in self.results.items():
            lines.append(
                f"{scenario.value:<24} {metric:<8} {runner_up:<12} "
                f"{res.median_difference:>12.4f} {res.p_value:>10.2e}  "
                f"{'yes' if res.significant else 'no'}"
            )
        return "\n".join(lines)


def _check_testable(methods, seeds, ours: str) -> None:
    """Reject inputs the test cannot run on, before anything is fitted."""
    if len(seeds) < 3 or len(methods) < 2:
        raise ValueError(
            "the significance test needs at least 3 seeds and 2 methods; "
            f"got {len(seeds)} seed(s) and {len(methods)} method(s)"
        )
    if ours not in methods:
        raise ValueError(f"{ours!r} must be among the evaluated methods")


def significance_report(
    table: Table3Result, target: str, ours: str = "MetaDPA"
) -> SignificanceReport:
    """Test ``ours`` against the per-cell runner-up among ``table``'s methods."""
    _check_testable(table.methods, table.seeds, ours)
    report = SignificanceReport(target=target, n_seeds=len(table.seeds))
    rivals = [m for m in table.methods if m != ours]
    for scenario in table.scenarios:
        for metric in METRIC_NAMES:
            runner_up = max(
                rivals, key=lambda m: table.mean(target, scenario, m, metric)
            )
            ours_series = table.series(target, scenario, ours, metric)
            theirs_series = table.series(target, scenario, runner_up, metric)
            res = wilcoxon_one_sided(ours_series, theirs_series, metric=metric)
            report.results[(scenario, metric)] = (runner_up, res)
    return report


def run_significance(
    dataset: MultiDomainDataset,
    target: str = "CDs",
    methods: tuple[str, ...] = ("MeLU", "CoNN", "MetaCF", "MetaDPA"),
    seeds: tuple[int, ...] = tuple(range(8)),
    profile: str = "full",
    ours: str = "MetaDPA",
    table: Table3Result | None = None,
) -> SignificanceReport:
    """Test ``ours`` against the per-cell runner-up over repeated splits.

    ``seeds`` defaults to 8 splits (the paper uses 30; pass
    ``tuple(range(30))`` for the full budget).  Inputs the test cannot run
    on fail before any fit.  An existing Table-III result can be supplied
    to avoid recomputation; the test then reads its methods and seeds.
    """
    if table is None:
        _check_testable(methods, seeds, ours)
        table = run_table3(
            dataset, targets=(target,), methods=methods, seeds=seeds, profile=profile
        )
    return significance_report(table, target, ours)
