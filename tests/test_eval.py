"""Ranking metrics, evaluation protocol and significance testing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.eval.metrics import MetricSet, auc, hit_ratio, mrr, ndcg, rank_of_positive
from repro.eval.metrics import ndcg_curve
from repro.eval.significance import wilcoxon_one_sided


class TestRankOfPositive:
    def test_best_rank(self):
        assert rank_of_positive(np.array([0.9, 0.5, 0.1])) == 1.0

    def test_worst_rank(self):
        assert rank_of_positive(np.array([0.1, 0.5, 0.9])) == 3.0

    def test_tie_mid_rank(self):
        # Positive tied with both negatives: mid-rank 2 of 3.
        assert rank_of_positive(np.array([0.5, 0.5, 0.5])) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_of_positive(np.zeros((2, 2)))

    @given(arrays(float, st.integers(2, 50), elements=st.floats(-5, 5)))
    @settings(max_examples=40, deadline=None)
    def test_rank_bounds(self, scores):
        rank = rank_of_positive(scores)
        assert 1.0 <= rank <= scores.size


class TestTopKMetrics:
    def test_hr_within_and_outside_k(self):
        scores = np.array([0.5] + [1.0] * 10 + [0.0] * 89)  # rank 11
        assert hit_ratio(scores, 10) == 0.0
        assert hit_ratio(scores, 11) == 1.0

    def test_mrr_value(self):
        scores = np.array([0.8, 0.9, 0.1])  # rank 2
        assert mrr(scores, 10) == pytest.approx(0.5)

    def test_mrr_zero_outside_k(self):
        scores = np.array([0.0] + [1.0] * 20)
        assert mrr(scores, 10) == 0.0

    def test_ndcg_perfect(self):
        assert ndcg(np.array([1.0, 0.5, 0.1]), 10) == pytest.approx(1.0)

    def test_ndcg_rank2(self):
        scores = np.array([0.8, 0.9, 0.1])
        assert ndcg(scores, 10) == pytest.approx(1.0 / np.log2(3.0))

    def test_auc_perfect_and_worst(self):
        assert auc(np.array([1.0, 0.5, 0.2])) == 1.0
        assert auc(np.array([0.0, 0.5, 0.2])) == 0.0

    def test_auc_constant_scores(self):
        assert auc(np.full(100, 0.3)) == pytest.approx(0.5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            hit_ratio(np.array([1.0, 0.0]), 0)

    @given(arrays(float, st.integers(2, 30), elements=st.floats(-2, 2)), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_metric_ranges(self, scores, k):
        assert 0.0 <= hit_ratio(scores, k) <= 1.0
        assert 0.0 <= mrr(scores, k) <= 1.0
        assert 0.0 <= ndcg(scores, k) <= 1.0
        assert 0.0 <= auc(scores) <= 1.0

    @given(arrays(float, 20, elements=st.floats(-2, 2)))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_k(self, scores):
        values = [ndcg(scores, k) for k in (1, 5, 10, 20)]
        assert values == sorted(values)


class TestMetricSet:
    def test_aggregation(self):
        perfect = np.array([1.0, 0.0, 0.0])
        worst = np.array([0.0, 1.0, 1.0])
        ms = MetricSet.from_score_lists([perfect, worst], k=10)
        assert ms.hr == pytest.approx(1.0)  # both within top-10 of 3 candidates
        assert ms.auc == pytest.approx(0.5)
        assert ms.n_trials == 2

    def test_empty(self):
        ms = MetricSet.from_score_lists([], k=10)
        assert ms.n_trials == 0
        assert ms.hr == 0.0

    def test_row_format(self):
        ms = MetricSet.from_score_lists([np.array([1.0, 0.0])], k=10)
        row = ms.as_row("Test")
        assert "Test" in row and "HR@10" in row

    def test_ndcg_curve_keys(self):
        curve = ndcg_curve([np.array([1.0, 0.0, 0.5])], [1, 5])
        assert set(curve) == {1, 5}


class TestWilcoxon:
    def test_detects_improvement(self):
        rng = np.random.default_rng(0)
        theirs = rng.random(30)
        ours = theirs + 0.05 + 0.01 * rng.random(30)
        res = wilcoxon_one_sided(ours, theirs, metric="ndcg")
        assert res.significant
        assert res.median_difference > 0

    def test_no_false_positive_when_worse(self):
        rng = np.random.default_rng(1)
        theirs = rng.random(30)
        ours = theirs - 0.05
        res = wilcoxon_one_sided(ours, theirs)
        assert not res.significant

    def test_identical_series(self):
        x = np.linspace(0, 1, 10)
        res = wilcoxon_one_sided(x, x.copy())
        assert res.p_value == 1.0
        assert not res.significant

    def test_validation(self):
        with pytest.raises(ValueError):
            wilcoxon_one_sided([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            wilcoxon_one_sided([1.0, 2.0], [0.5, 1.5])


class TestImportFootprint:
    def test_serving_and_training_imports_load_no_scipy(self):
        """SciPy is imported only when a significance test runs.

        Importing it costs ~490 modules and a second OpenBLAS in every
        process: the CLI, each shard worker and each grid worker.
        """
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import repro, repro.serve.worker, repro.service, repro.registry\n"
            "import repro.experiments.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
