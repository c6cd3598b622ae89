"""Diagnostics for the augmentation pipeline.

These are the checks used while developing and validating the Dual-CVAE:
how informative the content → rating generation path is, and how diverse
the k generations are.  They are exposed as a public API because a
downstream user tuning the CVAE on their own domains needs exactly the same
instruments.  The MDI term's own InfoNCE value is recorded every epoch in
each trainer's ``history.terms["mdi"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cvae.augment import AugmentedRatings, rating_diversity
from repro.cvae.trainer import DualCVAETrainer


def per_user_ranking_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """AUC of one user's generated scores against their true interactions.

    Returns NaN when the user has no positives or no negatives (undefined).
    """
    positives = scores[truth > 0]
    negatives = scores[truth == 0]
    if positives.size == 0 or negatives.size == 0:
        return float("nan")
    wins = (positives[:, None] > negatives[None, :]).mean()
    ties = (positives[:, None] == negatives[None, :]).mean()
    return float(wins + 0.5 * ties)


def generation_auc(
    matrix: np.ndarray, reference_ratings: np.ndarray, user_rows: np.ndarray
) -> float:
    """Mean per-user AUC of a generated rating matrix against references.

    ``reference_ratings`` would typically be the training-visible matrix:
    a value well above 0.5 means the content → decoder path actually learned
    user preferences, which is the precondition for useful augmentation.
    """
    aucs = [
        auc
        for auc in (
            per_user_ranking_auc(matrix[u], reference_ratings[u]) for u in user_rows
        )
        if not np.isnan(auc)
    ]
    return float(np.mean(aucs)) if aucs else float("nan")


@dataclass(frozen=True)
class AugmentationReport:
    """Summary of one augmentation run's health."""

    target_name: str
    source_names: list[str]
    generation_aucs: list[float]
    diversity: float
    value_ranges: list[tuple[float, float]]

    def format_table(self) -> str:
        lines = [f"Augmentation diagnostics for target {self.target_name!r}:"]
        lines.append(
            f"{'source':<14} {'gen AUC':>8} {'min':>7} {'max':>7}"
        )
        for i, name in enumerate(self.source_names):
            lo, hi = self.value_ranges[i]
            lines.append(
                f"{name:<14} {self.generation_aucs[i]:>8.3f} {lo:>7.3f} {hi:>7.3f}"
            )
        lines.append(f"cross-source diversity (mean pairwise L2): {self.diversity:.4f}")
        return "\n".join(lines)

    @property
    def healthy(self) -> bool:
        """Heuristic health check: informative generations, nonzero diversity.

        "Informative" means the mean generation AUC clears 0.55 — distinctly
        better than chance.  An unhealthy report usually means the Dual-CVAEs
        are undertrained (raise ``TrainerConfig.epochs``).
        """
        return (
            bool(np.mean(self.generation_aucs) > 0.55) and self.diversity > 0.0
        )


def diagnose_augmentation(
    trainers: list[DualCVAETrainer],
    augmented: AugmentedRatings,
    reference_ratings: np.ndarray,
    user_rows: np.ndarray,
) -> AugmentationReport:
    """Build an :class:`AugmentationReport` from a fitted augmenter's parts.

    ``trainers`` and ``augmented`` come from a
    :class:`~repro.cvae.augment.DiversePreferenceAugmenter`;
    ``reference_ratings`` is the training-visible rating matrix and
    ``user_rows`` the users to score (typically the existing users).
    """
    if len(trainers) != augmented.k:
        raise ValueError("one trainer per generated matrix expected")
    aucs = [
        generation_auc(matrix, reference_ratings, user_rows)
        for matrix in augmented.matrices
    ]
    ranges = [(float(m.min()), float(m.max())) for m in augmented.matrices]
    return AugmentationReport(
        target_name=augmented.target_name,
        source_names=list(augmented.source_names),
        generation_aucs=aucs,
        diversity=rating_diversity(augmented),
        value_ranges=ranges,
    )
