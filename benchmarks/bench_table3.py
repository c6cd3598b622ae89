"""Table III: the overall comparison of all eight methods on both targets.

Runs through the :mod:`repro.runner` grid engine (one prepared bundle per
(target, seed), every cell persisted to a RunStore) and folds the stored
cells back into the classic :class:`Table3Result`.

Expected shape (paper → here): MetaDPA has the best NDCG@10 in most
(target, scenario) cells; NeuMF sits near chance AUC on the cold scenarios.
"""

import numpy as np

from repro.data.splits import Scenario
from repro.registry import TABLE3_METHODS
from repro.runner import DatasetSpec, GridSpec, run_grid, table3_from_store


def _make_spec() -> GridSpec:
    return GridSpec(
        methods=list(TABLE3_METHODS),
        targets=["Books", "CDs"],
        scenarios=list(Scenario),
        seeds=[0],
        profile="fast",
        dataset=DatasetSpec(user_base=160, item_base=110, seed=0),
    )


def test_table3(benchmark, dataset, tmp_path):
    spec = _make_spec()
    run_dir = tmp_path / "table3-grid"

    def run_and_aggregate():
        report = run_grid(spec, run_dir, workers=1, dataset=dataset)
        assert report.ok, report.failures
        return table3_from_store(run_dir)

    result = benchmark.pedantic(run_and_aggregate, rounds=1, iterations=1)
    print("\n" + result.format_table())

    # Relaunching the same spec resumes entirely from the store.
    resumed = run_grid(spec, run_dir, workers=1, dataset=dataset)
    assert resumed.n_computed == 0
    assert resumed.n_skipped == len(spec.expand())

    # Who-wins shape: MetaDPA leads NDCG in at least a third of the cells
    # even at the reduced "fast" budget (the full profile is stronger).
    cells = [(t, sc) for t in ("Books", "CDs") for sc in Scenario]
    wins = sum(result.winner(t, sc) == "MetaDPA" for t, sc in cells)
    benchmark.extra_info["metadpa_ndcg_wins"] = wins
    benchmark.extra_info["metadpa_mean_ndcg"] = round(
        float(
            np.mean([result.mean(t, sc, "MetaDPA", "ndcg") for t, sc in cells])
        ),
        4,
    )
    assert wins >= 1

    # MetaDPA beats the meta-learning baseline on average (the headline
    # anti-meta-overfitting claim).
    metadpa = np.mean([result.mean(t, sc, "MetaDPA", "ndcg") for t, sc in cells])
    melu = np.mean([result.mean(t, sc, "MeLU", "ndcg") for t, sc in cells])
    benchmark.extra_info["melu_mean_ndcg"] = round(float(melu), 4)
    assert metadpa > 0.5 * melu  # sanity floor at the fast budget
