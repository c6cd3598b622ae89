"""Wilcoxon signed-rank significance testing (paper Section V-D).

The paper compares MetaDPA against the second-best method over 30
independent random train/test splits with a one-sided Wilcoxon signed-rank
test per metric.  :func:`wilcoxon_one_sided` reproduces that statistic;
:func:`repro.experiments.significance.significance_report` applies it to
the per-seed series of a Table III result.  SciPy, which only this test
needs, is imported when the test runs, so importing :mod:`repro` (every
serving and training process) never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of one one-sided Wilcoxon signed-rank test."""

    metric: str
    p_value: float
    n_pairs: int
    median_difference: float

    @property
    def significant(self) -> bool:
        """True when the improvement is significant at the 0.05 level."""
        return self.p_value < 0.05


def wilcoxon_one_sided(
    ours: Sequence[float],
    theirs: Sequence[float],
    metric: str = "metric",
) -> SignificanceResult:
    """Test H1: ``median(ours - theirs) > 0`` (we are better).

    Matches the paper's setup: the null hypothesis is that the median
    difference is non-positive; small p-values mean our method wins.
    """
    ours_arr = np.asarray(ours, dtype=float)
    theirs_arr = np.asarray(theirs, dtype=float)
    if ours_arr.shape != theirs_arr.shape:
        raise ValueError("paired samples must have equal length")
    if ours_arr.size < 3:
        raise ValueError("need at least 3 paired samples")
    diff = ours_arr - theirs_arr
    if np.allclose(diff, 0.0):
        # Degenerate: identical results; no evidence either way.
        return SignificanceResult(
            metric=metric, p_value=1.0, n_pairs=diff.size, median_difference=0.0
        )
    from scipy import stats

    result = stats.wilcoxon(ours_arr, theirs_arr, alternative="greater")
    return SignificanceResult(
        metric=metric,
        p_value=float(result.pvalue),
        n_pairs=int(diff.size),
        median_difference=float(np.median(diff)),
    )

