"""Evaluation protocol and experiment runners (fast profile)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import Popularity
from repro.data.splits import Scenario
from repro.eval.protocol import evaluate_prepared, format_results_table
from repro.experiments import (
    make_method,
    method_names,
    run_ablation,
    run_dataset_statistics,
    run_hyperparam_sweep,
    run_ndcg_curves,
    run_scalability,
    run_significance,
    run_table3,
)
from repro.registry import TABLE3_METHODS


class TestEvaluatePrepared:
    @pytest.fixture(scope="class")
    def results(self, bench_experiment):
        return evaluate_prepared(Popularity(), bench_experiment)

    def test_all_scenarios_evaluated(self, results):
        assert set(results) == set(Scenario)

    def test_metrics_in_range(self, results):
        for res in results.values():
            m = res.metrics
            for value in (m.hr, m.mrr, m.ndcg, m.auc):
                assert 0.0 <= value <= 1.0
            assert m.n_trials == len(res.score_lists)

    def test_ndcg_curve_accessible(self, results):
        curve = results[Scenario.WARM].ndcg_at([5, 10])
        assert curve[5] <= curve[10] + 1e-12

    def test_format_table(self, results):
        text = format_results_table({"Popularity": results})
        assert "Popularity" in text
        assert "warm-start" in text


class TestRegistry:
    def test_all_names_buildable(self):
        for name in method_names():
            method = make_method(name, seed=0, profile="fast")
            assert hasattr(method, "fit") and hasattr(method, "score")

    def test_table3_methods_registered(self):
        assert set(TABLE3_METHODS) <= set(method_names())

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_method("nope")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_method("MeLU", profile="turbo")

    def test_ablation_variants_configured(self):
        me_only = make_method("MetaDPA-ME", profile="fast")
        mdi_only = make_method("MetaDPA-MDI", profile="fast")
        assert me_only.config.beta1 == 0.0 and me_only.config.beta2 > 0
        assert mdi_only.config.beta2 == 0.0 and mdi_only.config.beta1 > 0
        no_aug = make_method("MetaDPA-NoAug", profile="fast")
        assert not no_aug.config.use_augmentation


class TestTable3Runner:
    @pytest.fixture(scope="class")
    def table(self, bench_dataset):
        return run_table3(
            bench_dataset,
            targets=("Books",),
            methods=("Popularity", "CoNN"),
            seeds=(0, 1),
            profile="fast",
        )

    def test_cells_complete(self, table):
        for scenario in Scenario:
            for method in ("Popularity", "CoNN"):
                assert len(table.series("Books", scenario, method, "ndcg")) == 2

    def test_mean_consistent_with_series(self, table):
        series = table.series("Books", Scenario.WARM, "CoNN", "ndcg")
        assert table.mean("Books", Scenario.WARM, "CoNN", "ndcg") == pytest.approx(
            float(np.mean(series))
        )

    def test_winner_is_registered_method(self, table):
        assert table.winner("Books", Scenario.WARM) in ("Popularity", "CoNN")

    def test_format(self, table):
        text = table.format_table()
        assert "warm-start" in text and "CoNN" in text


class TestFigureRunners:
    def test_ndcg_curves(self, bench_dataset):
        result = run_ndcg_curves(
            bench_dataset,
            "Books",
            methods=("Popularity",),
            ks=(5, 10),
            seeds=(0,),
            profile="fast",
        )
        for scenario in Scenario:
            curve = result.curve(scenario, "Popularity")
            assert len(curve) == 2
            assert curve[0] <= curve[1] + 1e-12  # NDCG grows with k
        assert "Popularity" in result.format_table()

    def test_scalability_shapes(self):
        result = run_scalability(fractions=(0.3, 1.0))
        assert len(result.block1_seconds) == 2
        assert all(t >= 0 for t in result.block1_seconds)
        slope, r2 = result.linear_fit()
        assert np.isfinite(slope) and np.isfinite(r2)
        assert "block1" in result.format_table()

    def test_hyperparam_sweep(self, bench_dataset):
        result = run_hyperparam_sweep(
            bench_dataset,
            "beta1",
            target="CDs",
            grid=(0.1, 1.0),
            seeds=(0,),
            profile="fast",
        )
        for scenario in Scenario:
            assert len(result.curves[scenario]) == 2
            assert result.sensitivity_range(scenario) >= 0.0
        assert "beta1" in result.format_table()

    def test_hyperparam_param_validated(self, bench_dataset):
        with pytest.raises(ValueError):
            run_hyperparam_sweep(bench_dataset, "beta3")

    def test_ablation(self, bench_dataset):
        result = run_ablation(
            bench_dataset,
            target="CDs",
            variants=("MetaDPA", "MetaDPA-MDI"),
            ks=(10,),
            seeds=(0,),
            profile="fast",
        )
        assert result.ndcg(Scenario.WARM, "MetaDPA", 10) >= 0.0
        assert "MetaDPA" in result.diversity
        assert result.diversity["MetaDPA"] >= 0.0

    def test_significance_report(self, bench_dataset):
        report = run_significance(
            bench_dataset,
            target="CDs",
            methods=("Popularity", "MetaDPA"),
            seeds=(0, 1, 2),
            profile="fast",
        )
        assert len(report.results) == len(Scenario) * 4
        for runner_up, res in report.results.values():
            assert runner_up == "Popularity"
            assert 0.0 <= res.p_value <= 1.0
        assert "Significance" in report.format_table()

    def test_dataset_statistics(self, bench_dataset):
        text = run_dataset_statistics(bench_dataset)
        assert "Table I" in text and "Table II" in text
        assert "Books" in text and "Electronics" in text
