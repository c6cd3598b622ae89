"""Figures 7–8: sensitivity to the constraint weights β1 (MDI) and β2 (ME).

The paper grid-searches β ∈ {1e-2, 1e-1, 1, 1e1, 1e2} on CDs and plots
NDCG@20 for the four scenarios, concluding that β1 is more sensitive than
β2 and that the best region is around β1 = 0.1, β2 = 1.
:func:`sensitivity_range` quantifies the "more sensitive" claim as the
max-min spread of NDCG across the grid.  Each β value is a labelled MetaDPA
entry of one grid, e.g. ``{"name": "MetaDPA", "beta1": 0.1, "label":
"beta1=0.1"}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.domain import MultiDomainDataset
from repro.data.splits import Scenario
from repro.runner import GridSpec, ndcg_curves_from_store, temporary_grid

DEFAULT_GRID = (1e-2, 1e-1, 1.0, 1e1, 1e2)


@dataclass
class HyperparamResult:
    """NDCG@20 per (scenario, β value) for one swept hyper-parameter."""

    target: str
    param: str  # "beta1" or "beta2"
    grid: list[float]
    seeds: list[int]
    k: int
    curves: dict[Scenario, list[float]] = field(default_factory=dict)

    def sensitivity_range(self, scenario: Scenario) -> float:
        """Spread (max - min) of NDCG across the grid — larger = more sensitive."""
        vals = self.curves[scenario]
        return float(max(vals) - min(vals))

    def format_table(self) -> str:
        lines = [
            f"===== {self.param} sensitivity on {self.target} "
            f"(NDCG@{self.k}, mean of {len(self.seeds)} seeds) ====="
        ]
        lines.append(
            f"{'scenario':<24} " + " ".join(f"{b:<8.0e}" for b in self.grid) + "  spread"
        )
        for scenario in Scenario:
            vals = self.curves[scenario]
            lines.append(
                f"{scenario.value:<24} "
                + " ".join(f"{v:<8.4f}" for v in vals)
                + f"  {self.sensitivity_range(scenario):.4f}"
            )
        return "\n".join(lines)


def run_hyperparam_sweep(
    dataset: MultiDomainDataset,
    param: str,
    target: str = "CDs",
    grid: tuple[float, ...] = DEFAULT_GRID,
    seeds: tuple[int, ...] = (0,),
    profile: str = "full",
    k: int = 20,
) -> HyperparamResult:
    """Sweep β1 (Fig. 7) or β2 (Fig. 8) and record NDCG@k per scenario."""
    if param not in ("beta1", "beta2"):
        raise ValueError("param must be 'beta1' or 'beta2'")
    labels = [f"{param}={float(beta)!r}" for beta in grid]
    spec = GridSpec(
        methods=[
            {"name": "MetaDPA", param: beta, "label": label}
            for beta, label in zip(grid, labels)
        ],
        targets=[target],
        seeds=list(seeds),
        profile=profile,
    )
    with temporary_grid(spec, dataset) as run_dir:
        curves, _ = ndcg_curves_from_store(run_dir, spec, [k], target)
    result = HyperparamResult(
        target=target, param=param, grid=list(grid), seeds=list(seeds), k=k
    )
    for scenario in Scenario:
        result.curves[scenario] = [curves[(scenario, label)][0] for label in labels]
    return result
