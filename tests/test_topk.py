"""``top_k_order`` must reproduce the full stable sort bit for bit.

The serving sites it replaced ranked with
``np.argsort(-scores, kind="stable")[:k]``; the partition-based selection
is only admissible because it returns the *exact* same index order —
including tie-breaking by ascending index and NaNs ranked last — for every
input.  These tests pin that equivalence on the adversarial shapes
(heavy ties, infinities, NaNs, degenerate k) plus a hypothesis sweep, each
both below ``FULL_SORT_BELOW`` (the full-sort path) and above it (the
partition path), and pin the MetaCF potential-neighbour fix that rides on
it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.metacf import MetaCF
from repro.utils.topk import FULL_SORT_BELOW, top_k_order


def reference(scores: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(-scores, kind="stable")[:k]


def assert_matches(scores, k) -> None:
    scores = np.asarray(scores)
    got = top_k_order(scores, k)
    expected = reference(scores, k)
    assert got.dtype.kind == expected.dtype.kind == "i"
    assert np.array_equal(got, expected), (scores, k, got, expected)


#: Pools below ``FULL_SORT_BELOW`` take the full sort, pools at or above it
#: the partition path: every adversarial case runs once in each.
REGIMES = ("below", "above")


def sized(scores, regime: str) -> np.ndarray:
    """``scores`` as given (below the threshold) or tiled past it (above)."""
    scores = np.asarray(scores)
    if regime == "above":
        scores = np.tile(scores, -(-FULL_SORT_BELOW // scores.size))
        assert scores.size >= FULL_SORT_BELOW
    else:
        assert scores.size < FULL_SORT_BELOW
    return scores


class TestTopKOrder:
    def test_random_vectors(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 100, FULL_SORT_BELOW - 1, FULL_SORT_BELOW, 1000):
            for k in (1, 2, 3, n // 2, n - 1, n, n + 5):
                if k <= 0:
                    continue
                assert_matches(rng.standard_normal(n), k)

    def test_heavily_tied(self):
        rng = np.random.default_rng(1)
        for regime in REGIMES:
            sizes = (10, 100) if regime == "below" else (FULL_SORT_BELOW, 1000)
            for n in sizes:
                # Integer-valued scores from a tiny alphabet: nearly every
                # element ties, the regime where the unstable reversal breaks.
                scores = sized(rng.integers(0, 4, size=n).astype(float), regime)
                for k in (1, 3, n // 2, n):
                    assert_matches(scores, k)

    def test_all_equal(self):
        for regime in REGIMES:
            scores = sized(np.full(50, 3.25), regime)
            for k in (1, 10, 50):
                assert np.array_equal(top_k_order(scores, k), np.arange(k))

    def test_float32_scores(self):
        rng = np.random.default_rng(2)
        for regime in REGIMES:
            scores = sized(rng.integers(0, 5, size=200).astype(np.float32), regime)
            assert_matches(scores, 17)

    def test_infinities(self):
        for regime in REGIMES:
            scores = sized([1.0, -np.inf, np.inf, 0.0, np.inf, -np.inf], regime)
            for k in (*range(1, 7), scores.size - 1):
                assert_matches(scores, k)

    def test_nans_rank_last(self):
        for regime in REGIMES:
            scores = sized([0.5, np.nan, 2.0, np.nan, 1.0, -1.0], regime)
            for k in (*range(1, 7), scores.size - 1):
                assert_matches(scores, k)

    def test_all_nan(self):
        for regime in REGIMES:
            scores = sized(np.full(5, np.nan), regime)
            for k in (3, scores.size - 1):
                assert_matches(scores, k)

    def test_k_degenerate(self):
        for regime in REGIMES:
            scores = sized([2.0, 1.0, 3.0], regime)
            assert top_k_order(scores, 0).size == 0
            assert_matches(scores, len(scores) + 10)
        assert top_k_order(np.array([]), 3).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            top_k_order(np.zeros((3, 3)), 2)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=3).map(float),
                st.floats(allow_nan=True, allow_infinity=True, width=32),
            ),
            min_size=1,
            max_size=64,
        ),
        k=st.integers(min_value=1, max_value=80),
    )
    def test_hypothesis_matches_stable_argsort(self, scores, k):
        for regime in REGIMES:
            assert_matches(sized(scores, regime), k)


class TestMetaCFTieBreak:
    def test_potential_neighbours_tie_break_deterministically(self):
        """Equal co-occurrence counts must select ascending item ids."""
        method = MetaCF(n_potential=3)
        n_items = 8
        # Symmetric count matrix where every non-profile item co-occurs
        # with item 0 equally often: the selection is pure tie-break.
        cooc = np.ones((n_items, n_items), dtype=np.float64)
        method._cooc = cooc
        profile = method._extend_profile(np.array([0]))
        assert np.array_equal(profile, [0, 1, 2, 3])

    def test_potential_neighbours_prefer_higher_counts(self):
        method = MetaCF(n_potential=2)
        cooc = np.ones((6, 6))
        cooc[:, 4] = 5.0  # item 4 co-occurs most
        method._cooc = cooc
        profile = method._extend_profile(np.array([2]))
        assert np.array_equal(profile, [2, 4, 0])
