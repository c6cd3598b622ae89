"""Declarative experiment grids.

A :class:`GridSpec` names everything a grid run depends on — the synthetic
benchmark parameters, the target domains, the evaluation scenarios, the
seeds, and the methods as registry config dicts — and expands into
independent :class:`GridCell` s, one per (method, target, scenario, seed).

Cells are *content addressed*: :attr:`GridCell.key` hashes the cell's fully
resolved configuration (profile presets folded into concrete hyper-parameter
values), so two specs that describe the same computation share cells in a
:class:`repro.runner.store.RunStore` and a changed hyper-parameter changes
the key instead of silently reusing stale results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.data.splits import Scenario
from repro.registry import TABLE3_METHODS, PROFILES, config_class
from repro.utils.persist import canonical_json

__all__ = [
    "DatasetSpec", "GridCell", "GridSpec", "WorkUnit",
    "canonical_json", "parse_scenario", "scenarios_from",
]

#: keys of a method entry that are not hyper-parameter overrides.
_METHOD_META_KEYS = ("name", "label", "profile")


def parse_scenario(value: str | Scenario) -> Scenario:
    """Accept a :class:`Scenario`, its value (``"warm-start"``) or its name."""
    if isinstance(value, Scenario):
        return value
    try:
        return Scenario(value)
    except ValueError:
        pass
    try:
        return Scenario[value.upper().replace("-", "_")]
    except KeyError:
        valid = [s.value for s in Scenario] + [s.name for s in Scenario]
        raise ValueError(f"unknown scenario {value!r}; use one of {valid}") from None


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of the synthetic Amazon-like benchmark a grid runs on."""

    user_base: int = 240
    item_base: int = 150
    seed: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "user_base": self.user_base,
            "item_base": self.item_base,
            "seed": self.seed,
        }

    def build(self):
        from repro.data.amazon import BenchmarkScale, make_amazon_like_benchmark

        return make_amazon_like_benchmark(
            scale=BenchmarkScale(user_base=self.user_base, item_base=self.item_base),
            seed=self.seed,
        )


@dataclass(frozen=True)
class GridCell:
    """One unit of stored work: a method on one (target, scenario, seed)."""

    target: str
    seed: int
    scenario: Scenario
    method_label: str
    #: fully resolved method config including ``name`` (profile folded in).
    method_config: Mapping[str, Any]
    dataset: DatasetSpec
    n_negatives: int = 99
    k: int = 10

    @property
    def key(self) -> str:
        """Content hash of everything the cell's result depends on."""
        payload = {
            "dataset": self.dataset.to_dict(),
            "target": self.target,
            "seed": self.seed,
            "scenario": self.scenario.value,
            "method": dict(self.method_config),
            "n_negatives": self.n_negatives,
            "k": self.k,
        }
        digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        return digest[:20]

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "seed": self.seed,
            "scenario": self.scenario.value,
            "method_label": self.method_label,
            "method_config": dict(self.method_config),
            "dataset": self.dataset.to_dict(),
            "n_negatives": self.n_negatives,
            "k": self.k,
        }


@dataclass(frozen=True)
class WorkUnit:
    """The scheduling unit: one fit shared by that method's scenario cells.

    ``evaluate_prepared`` fits a method once and scores every scenario from
    the same fit, so cells of one (method, target, seed) are computed
    together; each scenario still lands in the store as its own cell, which
    is what makes partial runs resumable at cell granularity.
    """

    target: str
    seed: int
    method_label: str
    method_config: Mapping[str, Any]
    cells: dict[Scenario, GridCell]


def _normalize_method(entry: str | Mapping[str, Any]) -> dict[str, Any]:
    if isinstance(entry, str):
        entry = {"name": entry}
    entry = dict(entry)
    if not entry.get("name"):
        raise ValueError("method entry requires a 'name' key")
    return entry


@dataclass
class GridSpec:
    """A declarative (methods × targets × scenarios × seeds) grid."""

    methods: list[dict[str, Any]] = field(
        default_factory=lambda: [{"name": m} for m in TABLE3_METHODS]
    )
    targets: list[str] = field(default_factory=lambda: ["Books", "CDs"])
    scenarios: list[Scenario] = field(default_factory=lambda: list(Scenario))
    seeds: list[int] = field(default_factory=lambda: [0])
    profile: str = "fast"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    n_negatives: int = 99
    k: int = 10

    def __post_init__(self) -> None:
        self.methods = [_normalize_method(m) for m in self.methods]
        self.scenarios = [parse_scenario(s) for s in self.scenarios]
        self.seeds = [int(s) for s in self.seeds]
        self.targets = [str(t) for t in self.targets]
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}; use one of {PROFILES}")
        if not self.methods or not self.targets or not self.scenarios or not self.seeds:
            raise ValueError("grid spec must name at least one method/target/scenario/seed")
        # A repeated entry on any axis names the same cells twice: they would
        # be computed twice and, for seeds, counted as two splits.
        for axis, values in (
            ("seed", self.seeds),
            ("target", self.targets),
            ("scenario", [s.value for s in self.scenarios]),
            ("method label", self.method_labels),
        ):
            dupes = sorted({v for v in values if values.count(v) > 1})
            if dupes:
                hint = "; give variants distinct 'label' keys" if axis == "method label" else ""
                raise ValueError(f"duplicate {axis}(s) {dupes} in grid spec{hint}")

    # ------------------------------------------------------------------
    def method_label(self, entry: Mapping[str, Any]) -> str:
        return str(entry.get("label") or entry["name"])

    def resolve_method(self, entry: Mapping[str, Any]) -> dict[str, Any]:
        """Fold profile presets into concrete field values (the cell identity)."""
        overrides = {k: v for k, v in entry.items() if k not in _METHOD_META_KEYS}
        profile = entry.get("profile", self.profile)
        config = config_class(entry["name"]).from_dict(overrides, profile=profile)
        return {"name": entry["name"], **config.to_dict()}

    def work_units(self) -> list[WorkUnit]:
        """Expand into work units in a deterministic order.

        Units are sorted so that all methods of one (target, seed) are
        adjacent — workers striding through the list reuse one prepared
        experiment bundle for many consecutive units.
        """
        units: list[WorkUnit] = []
        for target in self.targets:
            for seed in self.seeds:
                for entry in self.methods:
                    label = self.method_label(entry)
                    resolved = self.resolve_method(entry)
                    cells = {
                        scenario: GridCell(
                            target=target,
                            seed=seed,
                            scenario=scenario,
                            method_label=label,
                            method_config=resolved,
                            dataset=self.dataset,
                            n_negatives=self.n_negatives,
                            k=self.k,
                        )
                        for scenario in self.scenarios
                    }
                    units.append(
                        WorkUnit(
                            target=target,
                            seed=seed,
                            method_label=label,
                            method_config=resolved,
                            cells=cells,
                        )
                    )
        return units

    def expand(self) -> list[GridCell]:
        """All cells of the grid, in work-unit order."""
        return [cell for unit in self.work_units() for cell in unit.cells.values()]

    @property
    def method_labels(self) -> list[str]:
        return [self.method_label(m) for m in self.methods]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "methods": [dict(m) for m in self.methods],
            "targets": list(self.targets),
            "scenarios": [s.value for s in self.scenarios],
            "seeds": list(self.seeds),
            "profile": self.profile,
            "dataset": self.dataset.to_dict(),
            "n_negatives": self.n_negatives,
            "k": self.k,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridSpec":
        payload = dict(payload)
        unknown = sorted(
            set(payload)
            - {"methods", "targets", "scenarios", "seeds", "profile", "dataset",
               "n_negatives", "k"}
        )
        if unknown:
            raise ValueError(f"unknown grid spec key(s) {unknown}")
        if "dataset" in payload:
            payload["dataset"] = DatasetSpec(**dict(payload["dataset"]))
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GridSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "GridSpec":
        return cls.from_json(Path(path).read_text())

    def canonical(self) -> str:
        """Canonical JSON used to detect run-dir/spec mismatches."""
        return canonical_json(self.to_dict())


def scenarios_from(values: Iterable[str | Scenario] | None) -> list[Scenario]:
    """Parse a scenario list, defaulting to all four paper scenarios."""
    if values is None:
        return list(Scenario)
    return [parse_scenario(v) for v in values]
