"""Meta-learning task construction.

A user's preference prediction is one task ``T_u = (c_u, r_u)`` (Section
III-B).  Concretely each task holds item indices with binary labels
(positives = observed interactions inside the scenario's block, negatives =
sampled non-interactions), split into a support set (for the MAML inner /
fine-tuning step) and a query set (for the outer loss or evaluation).

Augmented tasks reuse the *same item indices* with continuous labels taken
from a generated rating vector; :meth:`PreferenceTask.with_labels` builds
those views without duplicating the index arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data.domain import Domain
from repro.data.splits import ColdStartSplits, Scenario
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class PreferenceTask:
    """One user's preference task with a support/query split."""

    user_row: int
    support_items: np.ndarray
    support_labels: np.ndarray
    query_items: np.ndarray
    query_labels: np.ndarray

    def __post_init__(self) -> None:
        if self.support_items.shape != self.support_labels.shape:
            raise ValueError("support items/labels length mismatch")
        if self.query_items.shape != self.query_labels.shape:
            raise ValueError("query items/labels length mismatch")

    @property
    def n_support(self) -> int:
        return self.support_items.size

    @property
    def n_query(self) -> int:
        return self.query_items.size

    def with_labels(self, rating_vector: np.ndarray) -> "PreferenceTask":
        """Augmented view: same items, labels read from ``rating_vector``.

        ``rating_vector`` is a (continuous, in [0, 1]) rating vector over all
        items of the domain, e.g. one produced by a Dual-CVAE decoder.
        """
        return replace(
            self,
            support_labels=rating_vector[self.support_items],
            query_labels=rating_vector[self.query_items],
        )


def task_fingerprint(task: PreferenceTask) -> bytes:
    """Value fingerprint of a task: equal content ⇒ equal digest.

    Serving caches key adaptation state on this instead of object identity
    — a task pickled across a shard worker Pipe is a different object with
    the same bytes, and must hit the cache.  Dtypes are hashed alongside
    the raw bytes so e.g. int32 and int64 item arrays never collide.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(int(task.user_row).to_bytes(8, "little", signed=True))
    for arr in (
        task.support_items,
        task.support_labels,
        task.query_items,
        task.query_labels,
    ):
        a = np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(a.shape[0].to_bytes(8, "little"))
        h.update(a.tobytes())
    return h.digest()


def check_rating(rating: float) -> float:
    """``rating`` as a float; ``ValueError`` unless it is finite and in [0, 1].

    [0, 1] is the label range of every task, so one hostile event cannot
    reach the meta-parameters through a refresh.
    """
    rating = float(rating)
    if not 0.0 <= rating <= 1.0:
        raise ValueError(f"rating must be a finite value in [0, 1], got {rating!r}")
    return rating


def append_interaction(
    task: PreferenceTask | None,
    user_row: int,
    item_row: int,
    rating: float,
) -> PreferenceTask:
    """Fold one observed ``(user, item, rating)`` event into a support task.

    ``None`` starts a fresh single-interaction task (cold user with no
    registered history); an already-supported item has its label replaced
    (re-rating) instead of growing the support set; otherwise the item is
    appended.  The query side is never touched — observed events are
    training signal, not held-out evaluation rows.

    A rating :func:`check_rating` rejects raises ``ValueError`` before a
    task is built.
    """
    rating = check_rating(rating)
    if task is None:
        return PreferenceTask(
            user_row=int(user_row),
            support_items=np.asarray([item_row], dtype=int),
            support_labels=np.asarray([rating], dtype=float),
            query_items=np.empty(0, dtype=int),
            query_labels=np.empty(0, dtype=float),
        )
    if int(task.user_row) != int(user_row):
        raise ValueError(
            f"event user {user_row} does not match task user {task.user_row}"
        )
    hit = np.flatnonzero(task.support_items == item_row)
    if hit.size:
        labels = task.support_labels.copy()
        labels[hit] = rating
        return replace(task, support_labels=labels)
    return replace(
        task,
        support_items=np.append(task.support_items, item_row),
        support_labels=np.append(task.support_labels, rating),
    )


@dataclass
class TaskSet:
    """All tasks for one (domain, scenario) pair."""

    domain_name: str
    scenario: Scenario
    tasks: list[PreferenceTask] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)


@dataclass(frozen=True)
class TaskConfig:
    """Knobs of task construction.

    Attributes
    ----------
    n_neg_per_pos:
        sampled negatives per positive item.
    support_frac:
        fraction of a task's positives placed in the support set (at least
        one positive always stays in the query set).
    min_positives:
        users with fewer positives inside the scenario block are skipped —
        a task needs at least one support and one query positive.
    max_positives:
        cap on positives per task, to bound task size for very active users.
    """

    n_neg_per_pos: int = 4
    support_frac: float = 0.5
    min_positives: int = 2
    max_positives: int = 50

    def __post_init__(self) -> None:
        if self.n_neg_per_pos < 0:
            raise ValueError("n_neg_per_pos must be non-negative")
        if not 0.0 < self.support_frac < 1.0:
            raise ValueError("support_frac must be in (0, 1)")
        if self.min_positives < 2:
            raise ValueError("a task needs >= 2 positives (support + query)")


def build_task_set(
    domain: Domain,
    splits: ColdStartSplits,
    scenario: Scenario,
    config: TaskConfig | None = None,
    rng: int | np.random.Generator | None = None,
) -> TaskSet:
    """Construct tasks for one scenario block of the rating matrix.

    For each eligible user: positives are the user's interactions restricted
    to the scenario's item set; negatives are sampled (without replacement)
    from non-interacted items in the same set; positives and negatives are
    split support/query by ``config.support_frac``.
    """
    config = config or TaskConfig()
    gen = ensure_rng(rng)
    users = splits.users_for(scenario)
    items = splits.items_for(scenario)
    item_mask = np.zeros(domain.n_items, dtype=bool)
    item_mask[items] = True

    task_set = TaskSet(domain_name=domain.name, scenario=scenario)
    for user_row in users:
        rated = domain.user_interactions(int(user_row))
        positives = rated[item_mask[rated]]
        if positives.size < config.min_positives:
            continue
        if positives.size > config.max_positives:
            positives = gen.choice(positives, size=config.max_positives, replace=False)

        # Negatives: non-interacted items inside the scenario's item set.
        candidate_mask = item_mask.copy()
        candidate_mask[rated] = False
        candidates = np.flatnonzero(candidate_mask)
        n_neg = min(config.n_neg_per_pos * positives.size, candidates.size)
        negatives = (
            gen.choice(candidates, size=n_neg, replace=False)
            if n_neg > 0
            else np.array([], dtype=int)
        )

        task = _split_support_query(
            int(user_row), positives, negatives, config.support_frac, gen
        )
        task_set.tasks.append(task)
    return task_set


def _split_support_query(
    user_row: int,
    positives: np.ndarray,
    negatives: np.ndarray,
    support_frac: float,
    rng: np.random.Generator,
) -> PreferenceTask:
    """Split positives and negatives into support/query portions."""
    pos = positives.copy()
    neg = negatives.copy()
    rng.shuffle(pos)
    rng.shuffle(neg)

    # At least one positive on each side.
    n_sup_pos = int(np.clip(round(support_frac * pos.size), 1, pos.size - 1))
    n_sup_neg = int(round(support_frac * neg.size))

    sup_items = np.concatenate([pos[:n_sup_pos], neg[:n_sup_neg]])
    sup_labels = np.concatenate(
        [np.ones(n_sup_pos), np.zeros(n_sup_neg)]
    )
    qry_items = np.concatenate([pos[n_sup_pos:], neg[n_sup_neg:]])
    qry_labels = np.concatenate(
        [np.ones(pos.size - n_sup_pos), np.zeros(neg.size - n_sup_neg)]
    )
    return PreferenceTask(
        user_row=user_row,
        support_items=sup_items.astype(int),
        support_labels=sup_labels,
        query_items=qry_items.astype(int),
        query_labels=qry_labels,
    )
