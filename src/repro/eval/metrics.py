"""Top-k ranking metrics used throughout the paper's evaluation.

Metrics aggregate leave-one-out trials: each trial is a score array whose
first entry is the held-out positive item and whose remaining entries are
sampled negatives (:class:`repro.data.negative_sampling.EvalInstance`
layout).  Per trial, the positive's 1-based rank gives HR@k (1 inside the
top-k), MRR@k (``1 / rank``) and NDCG@k (``1 / log2(rank + 1)``, the ideal
DCG of a single relevant item being 1), each 0 outside the top-k; AUC is
the fraction of negatives ranked below the positive.

Ties are handled with the mid-rank convention so that a constant scorer gets
AUC 0.5 and chance-level HR, rather than an arbitrary 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_k(k: int) -> None:
    if k <= 0:
        raise ValueError("k must be positive")


def _batch_rank_stats(
    score_lists: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial ``(rank, wins, ties, length)`` computed as one matrix op.

    Trials are padded into a single matrix with NaN; NaN compares false
    against the positive in every comparison, as a genuinely NaN score
    does, so padding never shifts a rank.  This is the aggregation hot path
    every grid cell pays: one vectorized pass over the trial list.
    """
    arrays = []
    for scores in score_lists:
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores must be a non-empty 1-D array")
        arrays.append(scores)
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    matrix = np.full((len(arrays), int(lengths.max())), np.nan)
    for row, scores in enumerate(arrays):
        matrix[row, : scores.size] = scores
    pos = matrix[:, :1]
    negatives = matrix[:, 1:]
    higher = np.sum(negatives > pos, axis=1)
    ties = np.sum(negatives == pos, axis=1)
    wins = np.sum(negatives < pos, axis=1)
    ranks = 1.0 + higher + 0.5 * ties
    return ranks, wins.astype(float), ties.astype(float), lengths


@dataclass(frozen=True)
class MetricSet:
    """The four headline metrics of Table III, averaged over trials."""

    hr: float
    mrr: float
    ndcg: float
    auc: float
    n_trials: int
    k: int = 10

    @staticmethod
    def from_score_lists(score_lists: list[np.ndarray], k: int = 10) -> "MetricSet":
        """Aggregate metrics over many leave-one-out trials (vectorized)."""
        _check_k(k)
        if not score_lists:
            return MetricSet(hr=0.0, mrr=0.0, ndcg=0.0, auc=0.0, n_trials=0, k=k)
        ranks, wins, ties, lengths = _batch_rank_stats(score_lists)
        in_k = ranks <= k
        n_neg = (lengths - 1).astype(float)
        auc_per_trial = np.where(
            n_neg > 0, (wins + 0.5 * ties) / np.maximum(n_neg, 1.0), 0.5
        )
        return MetricSet(
            hr=float(np.mean(in_k)),
            mrr=float(np.mean(np.where(in_k, 1.0 / ranks, 0.0))),
            ndcg=float(np.mean(np.where(in_k, 1.0 / np.log2(ranks + 1.0), 0.0))),
            auc=float(np.mean(auc_per_trial)),
            n_trials=len(score_lists),
            k=k,
        )

    def as_row(self, label: str) -> str:
        return (
            f"{label:<12} HR@{self.k}={self.hr:.4f}  MRR@{self.k}={self.mrr:.4f}  "
            f"NDCG@{self.k}={self.ndcg:.4f}  AUC={self.auc:.4f}  (n={self.n_trials})"
        )


def ndcg_curve(score_lists: list[np.ndarray], ks: list[int]) -> dict[int, float]:
    """NDCG@k for several cutoffs — the series plotted in Figs. 3–5.

    Ranks are computed once and reused across every cutoff.
    """
    for k in ks:
        _check_k(k)
    if not score_lists:
        return {k: 0.0 for k in ks}
    ranks, _, _, _ = _batch_rank_stats(score_lists)
    gains = 1.0 / np.log2(ranks + 1.0)
    return {k: float(np.mean(np.where(ranks <= k, gains, 0.0))) for k in ks}
