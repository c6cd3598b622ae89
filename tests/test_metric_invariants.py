"""Randomized (seeded) invariants of the ranking metrics.

``tests/test_eval.py`` checks hand-picked examples; this module asserts the
properties that must hold for *any* score list — bounds, monotonicity in k,
invariance under permutation of negatives, agreement between the vectorized
aggregation and the per-trial definitions in ``tests/oracles.py`` — plus
the degenerate inputs (empty trial list, single-candidate trials, k=1,
all-tied scores).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.eval.metrics import MetricSet, ndcg_curve

from oracles import auc, hit_ratio, mrr, ndcg, rank_of_positive


def random_score_lists(
    seed: int, n_lists: int = 40, max_len: int = 60, quantize: bool = False
) -> list[np.ndarray]:
    """Seeded score lists of varying length; ``quantize`` forces many ties."""
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(n_lists):
        size = int(rng.integers(1, max_len + 1))
        scores = rng.normal(size=size)
        if quantize:
            scores = np.round(scores * 2) / 2  # half-unit grid → frequent ties
        lists.append(scores)
    return lists


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("quantize", [False, True])
class TestRandomizedInvariants:
    def test_all_metrics_within_unit_interval(self, seed, quantize):
        score_lists = random_score_lists(seed, quantize=quantize)
        for k in (1, 3, 10, 100):
            ms = MetricSet.from_score_lists(score_lists, k=k)
            for value in (ms.hr, ms.mrr, ms.ndcg, ms.auc):
                assert 0.0 <= value <= 1.0

    def test_hr_monotone_non_decreasing_in_k(self, seed, quantize):
        score_lists = random_score_lists(seed, quantize=quantize)
        ks = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        hrs = [MetricSet.from_score_lists(score_lists, k=k).hr for k in ks]
        assert hrs == sorted(hrs)
        # NDCG@k and MRR@k inherit the same monotonicity (gains only accrue).
        ndcgs = [MetricSet.from_score_lists(score_lists, k=k).ndcg for k in ks]
        mrrs = [MetricSet.from_score_lists(score_lists, k=k).mrr for k in ks]
        assert ndcgs == sorted(ndcgs)
        assert mrrs == sorted(mrrs)

    def test_invariant_under_permutation_of_negatives(self, seed, quantize):
        rng = np.random.default_rng(1000 + seed)
        for scores in random_score_lists(seed, n_lists=20, quantize=quantize):
            shuffled = scores.copy()
            rng.shuffle(shuffled[1:])  # the positive stays at index 0
            assert rank_of_positive(shuffled) == rank_of_positive(scores)
            for k in (1, 5, 10):
                assert hit_ratio(shuffled, k) == hit_ratio(scores, k)
                assert mrr(shuffled, k) == mrr(scores, k)
                assert ndcg(shuffled, k) == ndcg(scores, k)
            assert auc(shuffled) == auc(scores)

    def test_vectorized_matches_scalar_definitions(self, seed, quantize):
        """`from_score_lists` must agree with the per-instance metric loop."""
        score_lists = random_score_lists(seed, quantize=quantize)
        for k in (1, 7, 10):
            ms = MetricSet.from_score_lists(score_lists, k=k)
            assert ms.hr == pytest.approx(
                np.mean([hit_ratio(s, k) for s in score_lists])
            )
            assert ms.mrr == pytest.approx(np.mean([mrr(s, k) for s in score_lists]))
            assert ms.ndcg == pytest.approx(np.mean([ndcg(s, k) for s in score_lists]))
            assert ms.auc == pytest.approx(np.mean([auc(s) for s in score_lists]))
            assert ms.n_trials == len(score_lists)

    def test_ndcg_curve_matches_per_k_ndcg(self, seed, quantize):
        score_lists = random_score_lists(seed, quantize=quantize)
        ks = [1, 5, 10, 30]
        curve = ndcg_curve(score_lists, ks)
        for k in ks:
            assert curve[k] == pytest.approx(
                np.mean([ndcg(s, k) for s in score_lists])
            )


class TestDegenerateInputs:
    def test_empty_trial_list(self):
        ms = MetricSet.from_score_lists([], k=10)
        assert ms.n_trials == 0
        assert (ms.hr, ms.mrr, ms.ndcg, ms.auc) == (0.0, 0.0, 0.0, 0.0)
        assert ndcg_curve([], [1, 5]) == {1: 0.0, 5: 0.0}

    def test_single_candidate_trial(self):
        # Only the positive: rank 1, no negatives, AUC falls back to chance.
        only_pos = [np.array([0.7])]
        ms = MetricSet.from_score_lists(only_pos, k=1)
        assert ms.hr == 1.0 and ms.mrr == 1.0 and ms.ndcg == 1.0
        assert ms.auc == 0.5

    def test_k_equals_one(self):
        top = np.array([1.0, 0.5, 0.0])
        second = np.array([0.5, 1.0, 0.0])
        ms = MetricSet.from_score_lists([top, second], k=1)
        assert ms.hr == pytest.approx(0.5)
        assert ms.mrr == pytest.approx(0.5)

    def test_all_tied_scores(self):
        # A constant scorer gets chance-level AUC and a mid-rank position.
        tied = [np.full(100, 0.3)]
        ms = MetricSet.from_score_lists(tied, k=10)
        assert ms.auc == pytest.approx(0.5)
        assert rank_of_positive(tied[0]) == pytest.approx(50.5)
        assert ms.hr == 0.0  # mid-rank 50.5 is far outside top-10

    def test_ragged_lengths_aggregate(self):
        # Trials of different candidate counts share one aggregation pass.
        lists = [np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.5])]
        ms = MetricSet.from_score_lists(lists, k=2)
        assert ms.n_trials == 3
        assert ms.hr == pytest.approx(np.mean([1.0, 1.0, 1.0]))
        assert ms.auc == pytest.approx(np.mean([0.5, 0.0, 1.0]))

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            MetricSet.from_score_lists([np.array([])], k=10)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            MetricSet.from_score_lists([np.array([1.0])], k=0)
        with pytest.raises(ValueError):
            ndcg_curve([np.array([1.0])], [5, 0])
