"""Figures 3–4: NDCG@k versus position k on each target domain.

The paper plots NDCG@k for k ∈ {5, 10, 15, 20, 25, 30} for all methods in
all four scenarios, one figure per target domain (Fig. 3 Books, Fig. 4 CDs).
This runner produces those series as text/dicts, folded from a grid run's
stored score lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.domain import MultiDomainDataset
from repro.data.splits import Scenario
from repro.registry import TABLE3_METHODS
from repro.runner import GridSpec, ndcg_curves_from_store, temporary_grid

DEFAULT_KS = (5, 10, 15, 20, 25, 30)


@dataclass
class NdcgCurvesResult:
    """NDCG@k series per (scenario, method) for one target domain."""

    target: str
    ks: list[int]
    methods: list[str]
    seeds: list[int]
    #: curves[(scenario, method)] -> list (aligned with ks) of per-seed means
    curves: dict[tuple[Scenario, str], list[float]] = field(default_factory=dict)

    def curve(self, scenario: Scenario, method: str) -> list[float]:
        return self.curves[(scenario, method)]

    def format_table(self) -> str:
        lines = [f"===== NDCG@k curves on {self.target} (mean of {len(self.seeds)} seeds) ====="]
        for scenario in Scenario:
            lines.append(f"--- {scenario.value} ---")
            header = f"{'Method':<12} " + " ".join(f"k={k:<6}" for k in self.ks)
            lines.append(header)
            for method in self.methods:
                vals = self.curves[(scenario, method)]
                lines.append(
                    f"{method:<12} " + " ".join(f"{v:<8.4f}" for v in vals)
                )
            lines.append("")
        return "\n".join(lines)


def run_ndcg_curves(
    dataset: MultiDomainDataset,
    target: str,
    methods: tuple[str, ...] = TABLE3_METHODS,
    ks: tuple[int, ...] = DEFAULT_KS,
    seeds: tuple[int, ...] = (0, 1),
    profile: str = "full",
) -> NdcgCurvesResult:
    """Reproduce one of Figs. 3–4 for the given target domain."""
    spec = GridSpec(
        methods=list(methods), targets=[target], seeds=list(seeds), profile=profile
    )
    with temporary_grid(spec, dataset) as run_dir:
        curves, _ = ndcg_curves_from_store(run_dir, spec, ks, target)
    return NdcgCurvesResult(
        target=target, ks=list(ks), methods=list(methods), seeds=list(seeds), curves=curves
    )
