"""Correctness checks: the benchmark fails, not just reports, on a wrong answer.

Each check raises :class:`CheckFailed` with a message naming the first
offending answer.  They compare plain data (item and score arrays,
counter totals), so they can be exercised without a running service.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program was wrong."""


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_sharded_answers(answers: Iterable, expected: Mapping[int, object]) -> int:
    """Every sharded answer equals the in-process answer for its user, bitwise.

    ``answers`` are :class:`~repro.core.Recommendation` objects from the
    sharded service; ``expected`` maps a user row to the
    ``RecommenderService.recommend`` answer for that user on the same
    artifact.  Returns how many answers were compared.
    """
    n = 0
    for answer in answers:
        ref = expected.get(int(answer.user_row))
        if ref is None:
            raise CheckFailed(f"no reference answer for user {answer.user_row}")
        if getattr(answer, "degraded", False):
            raise CheckFailed(f"user {answer.user_row}: degraded answer")
        if not _same_bits(answer.items, ref.items):
            raise CheckFailed(
                f"user {answer.user_row}: items {answer.items.tolist()} "
                f"!= in-process {ref.items.tolist()}"
            )
        if not _same_bits(answer.scores, ref.scores):
            raise CheckFailed(f"user {answer.user_row}: scores differ bitwise")
        n += 1
    return n


def check_stream_accounting(
    counters: Mapping[str, float], writes_sent: int, reads_sent: int
) -> None:
    """Merged serving counters account for exactly the traffic sent.

    Ingested events (``serve.stream.events``) must equal the writes sent,
    and ``serve.responses.ok + degraded + error`` the reads sent.
    """
    events = int(counters.get("serve.stream.events", 0))
    if events != writes_sent:
        raise CheckFailed(f"serve.stream.events={events} != writes sent {writes_sent}")
    outcomes = sum(
        int(counters.get(f"serve.responses.{kind}", 0))
        for kind in ("ok", "degraded", "error")
    )
    if outcomes != reads_sent:
        raise CheckFailed(
            f"serve.responses.ok+degraded+error={outcomes} != reads sent {reads_sent}"
        )


def check_topk(
    items: np.ndarray,
    scores: np.ndarray,
    pool: np.ndarray,
    full_scores: np.ndarray,
    k: int,
) -> None:
    """A top-k answer equals the stable argsort of the full score vector.

    ``full_scores[j]`` is the score of candidate ``pool[j]``; the answer
    must be ``pool[order]`` with ``order = argsort(-full, stable)[:k]``
    and carry exactly those scores.
    """
    full = np.asarray(full_scores, dtype=float)
    order = np.argsort(-full, kind="stable")[:k]
    if not np.array_equal(np.asarray(items), np.asarray(pool)[order]):
        raise CheckFailed(
            f"top-{k} items {np.asarray(items).tolist()} != stable argsort "
            f"{np.asarray(pool)[order].tolist()}"
        )
    if not _same_bits(np.asarray(scores, dtype=float), full[order]):
        raise CheckFailed(f"top-{k} scores differ from the full score vector")


def check_finite(name: str, value: float) -> None:
    """A quality figure is a finite number."""
    if not math.isfinite(value):
        raise CheckFailed(f"{name} is not finite: {value!r}")
