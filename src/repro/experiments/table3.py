"""Table III: overall comparison of all methods on both target domains.

For each (target, method, scenario) cell this runner reports HR@10, MRR@10,
NDCG@10 and AUC averaged over independent random splits (seeds), in the same
layout as the paper's Table III.  It runs the table as a grid
(:mod:`repro.runner`), so ``table3`` and ``grid run`` + ``grid report``
print and export the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.domain import MultiDomainDataset
from repro.data.splits import Scenario
from repro.registry import TABLE3_METHODS
from repro.runner import GridSpec, table3_from_store, temporary_grid

METRIC_NAMES = ("hr", "mrr", "ndcg", "auc")


@dataclass
class Table3Result:
    """Mean metrics per (target, scenario, method), plus per-seed values."""

    targets: list[str]
    methods: list[str]
    seeds: list[int]
    #: cells[(target, scenario, method)][metric] -> list of per-seed values
    cells: dict[tuple[str, Scenario, str], dict[str, list[float]]] = field(
        default_factory=dict
    )
    #: scenario blocks the result covers (grid runs may evaluate a subset).
    scenarios: list[Scenario] = field(default_factory=lambda: list(Scenario))

    def mean(self, target: str, scenario: Scenario, method: str, metric: str) -> float:
        return float(np.mean(self.cells[(target, scenario, method)][metric]))

    def series(
        self, target: str, scenario: Scenario, method: str, metric: str
    ) -> list[float]:
        """Per-seed values (input to the Wilcoxon significance test)."""
        return list(self.cells[(target, scenario, method)][metric])

    def winner(self, target: str, scenario: Scenario, metric: str = "ndcg") -> str:
        """Best-scoring method of one cell group."""
        return max(
            self.methods, key=lambda m: self.mean(target, scenario, m, metric)
        )

    def format_table(self) -> str:
        """Render in the paper's layout: scenario blocks × method rows."""
        lines: list[str] = []
        for target in self.targets:
            lines.append(f"===== Target domain: {target} (mean of {len(self.seeds)} seeds) =====")
            for scenario in self.scenarios:
                lines.append(f"--- {scenario.value} ---")
                lines.append(
                    f"{'Method':<12} {'HR@10':>8} {'MRR@10':>8} {'NDCG@10':>8} {'AUC':>8}"
                )
                for method in self.methods:
                    vals = [
                        self.mean(target, scenario, method, metric)
                        for metric in METRIC_NAMES
                    ]
                    marker = " *" if self.winner(target, scenario) == method else ""
                    lines.append(
                        f"{method:<12} "
                        + " ".join(f"{v:>8.4f}" for v in vals)
                        + marker
                    )
                lines.append("")
        return "\n".join(lines)


def run_table3(
    dataset: MultiDomainDataset,
    targets: tuple[str, ...] = ("Books", "CDs"),
    methods: tuple[str, ...] = TABLE3_METHODS,
    seeds: tuple[int, ...] = (0, 1, 2),
    profile: str = "full",
    verbose: bool = False,
) -> Table3Result:
    """Run the full Table III comparison."""
    spec = GridSpec(
        methods=list(methods), targets=list(targets), seeds=list(seeds), profile=profile
    )
    with temporary_grid(spec, dataset, progress=print if verbose else None) as run_dir:
        return table3_from_store(run_dir, spec)
