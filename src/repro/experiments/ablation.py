"""Figure 5: effectiveness of the ME and MDI constraints (ablation).

The paper compares, on CDs in all four scenarios:

- **MetaDPA** — both constraints active (β1 = 0.1, β2 = 1),
- **MetaDPA-ME** — only the ME constraint (β1 = 0),
- **MetaDPA-MDI** — only the MDI constraint (β2 = 0),

with the expected ordering MetaDPA > MetaDPA-MDI > MetaDPA-ME.  This runner
also reports the generated-rating diversity of each variant, which is the
mechanism the ME constraint acts through, and includes MeLU as the
no-augmentation reference the paper's Fig. 5 discussion mentions.  Every
variant is a registered method name, so the ablation is one grid over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.domain import MultiDomainDataset
from repro.data.splits import Scenario
from repro.experiments.ndcg_curves import DEFAULT_KS
from repro.runner import GridSpec, ablation_from_store, temporary_grid

ABLATION_VARIANTS = ("MetaDPA", "MetaDPA-MDI", "MetaDPA-ME", "MeLU")


@dataclass
class AblationResult:
    """NDCG@k per (scenario, variant) plus augmentation diversity."""

    target: str
    ks: list[int]
    variants: list[str]
    seeds: list[int]
    curves: dict[tuple[Scenario, str], list[float]] = field(default_factory=dict)
    diversity: dict[str, float] = field(default_factory=dict)
    #: scenario blocks the result covers (grid runs may evaluate a subset).
    scenarios: list[Scenario] = field(default_factory=lambda: list(Scenario))

    def ndcg(self, scenario: Scenario, variant: str, k: int) -> float:
        return self.curves[(scenario, variant)][self.ks.index(k)]

    def format_table(self) -> str:
        lines = [
            f"===== Ablation (Fig. 5) on {self.target} (mean of {len(self.seeds)} seeds) ====="
        ]
        lines.append("Generated-rating diversity (mean pairwise L2 across sources):")
        for variant in self.variants:
            if variant in self.diversity:
                lines.append(f"  {variant:<14} {self.diversity[variant]:.4f}")
        lines.append("")
        for scenario in self.scenarios:
            lines.append(f"--- {scenario.value} ---")
            lines.append(f"{'Variant':<14} " + " ".join(f"k={k:<6}" for k in self.ks))
            for variant in self.variants:
                vals = self.curves[(scenario, variant)]
                lines.append(f"{variant:<14} " + " ".join(f"{v:<8.4f}" for v in vals))
            lines.append("")
        return "\n".join(lines)


def run_ablation(
    dataset: MultiDomainDataset,
    target: str = "CDs",
    variants: tuple[str, ...] = ABLATION_VARIANTS,
    ks: tuple[int, ...] = DEFAULT_KS,
    seeds: tuple[int, ...] = (0, 1),
    profile: str = "full",
) -> AblationResult:
    """Reproduce the Fig. 5 ablation on one target domain."""
    spec = GridSpec(
        methods=list(variants), targets=[target], seeds=list(seeds), profile=profile
    )
    with temporary_grid(spec, dataset) as run_dir:
        return ablation_from_store(run_dir, spec, ks=ks, target=target)
