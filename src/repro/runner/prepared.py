"""On-disk cache of :func:`repro.data.experiment.prepare_experiment` bundles.

Preparing an experiment (cold-start splits, meta-test tasks, leave-one-out
instances, leak-free visibility matrices) depends only on the dataset
parameters, the target domain, the split seed and the scenario list — not on
the method.  The grid engine pays it once per (target, seed) and shares the
pickled bundle across every worker process through this cache; every paper
table and figure runs through the engine, so each pays it once too.

Writes are atomic (temp file + ``os.replace``), so racing workers at worst
duplicate the preparation work — they never read a half-written bundle.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import numpy as np

from repro.data.experiment import Experiment, prepare_experiment
from repro.runner.spec import DatasetSpec, GridSpec
from repro.utils.persist import atomic_write_bytes, canonical_json

#: per-process memo of built datasets, keyed by the dataset spec.
_DATASET_MEMO: dict[str, object] = {}


def prepared_key(spec: GridSpec, target: str, seed: int) -> str:
    """Content hash identifying one prepared bundle."""
    payload = {
        "dataset": spec.dataset.to_dict(),
        "target": target,
        "seed": seed,
        "scenarios": [s.value for s in spec.scenarios],
        "n_negatives": spec.n_negatives,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:20]


def get_dataset(dataset_spec: DatasetSpec):
    """Build (or reuse) the benchmark dataset for this process."""
    memo_key = canonical_json(dataset_spec.to_dict())
    if memo_key not in _DATASET_MEMO:
        _DATASET_MEMO[memo_key] = dataset_spec.build()
    return _DATASET_MEMO[memo_key]


def dataset_fingerprint(dataset) -> str:
    """Content hash of a dataset's target rating matrices.

    The synthetic benchmark is a deterministic function of its spec, so
    this fingerprint identifies (scale, seed) — cheap enough to compute on
    every preparation and strong enough to catch a run directory being fed
    two different datasets.
    """
    digest = hashlib.sha256()
    for name in sorted(dataset.targets):
        domain = dataset.targets[name]
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(domain.ratings).tobytes())
    return digest.hexdigest()[:20]


def _record_or_check_fingerprint(cache_dir: Path, dataset) -> None:
    """First preparation records the dataset identity; later ones must match.

    This is what keeps a run directory internally consistent when a caller
    injects a prebuilt dataset: if the injected data differs from what the
    stored cells were computed from (or from what spec-built workers will
    use), the run fails loudly instead of silently mixing results.
    """
    fingerprint = dataset_fingerprint(dataset)
    path = cache_dir / "dataset.fp"
    if path.exists():
        recorded = path.read_text().strip()
        if recorded != fingerprint:
            raise RuntimeError(
                "dataset mismatch for this run directory: the dataset in use "
                f"(fingerprint {fingerprint}) is not the one earlier cells were "
                f"computed from ({recorded}); use a fresh run directory, or drop "
                "the injected dataset so workers build it from the spec"
            )
        return
    cache_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, (fingerprint + "\n").encode())


class PreparedCache:
    """The prepared bundles of one run directory, memoized for one run.

    :func:`repro.runner.run_grid` makes one per run and each worker process
    makes its own, so the in-memory memo never outlives its run: a later
    run, on another directory or another dataset, cannot be served this
    run's bundles, and a forked worker inherits none.  Across runs a bundle
    is shared only through its file, which the directory's dataset
    fingerprint guards.
    """

    def __init__(self, cache_dir: str | Path, dataset=None):
        self.cache_dir = Path(cache_dir)
        #: optional prebuilt dataset; without one, it is built from the spec.
        self.dataset = dataset
        self._memo: dict[str, Experiment] = {}

    def get(self, spec: GridSpec, target: str, seed: int) -> Experiment:
        """The bundle for (target, seed), via memo → disk → build."""
        key = prepared_key(spec, target, seed)
        if key not in self._memo:
            if self.dataset is not None:
                _record_or_check_fingerprint(self.cache_dir, self.dataset)
            path = self.cache_dir / f"{key}.pkl"
            experiment = _load_bundle(path)
            if experiment is None:
                experiment = self._prepare(spec, target, seed, path)
            self._memo[key] = experiment
        return self._memo[key]

    def _prepare(self, spec: GridSpec, target: str, seed: int, path: Path) -> Experiment:
        dataset = self.dataset
        if dataset is None:
            dataset = get_dataset(spec.dataset)
            _record_or_check_fingerprint(self.cache_dir, dataset)
        experiment = prepare_experiment(
            dataset,
            target,
            seed=seed,
            n_negatives=spec.n_negatives,
            scenarios=list(spec.scenarios),
        )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            path, pickle.dumps(experiment, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return experiment


def _load_bundle(path: Path) -> Experiment | None:
    """A stored bundle, or ``None`` when it is missing or unreadable."""
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None  # missing or corrupt/stale bundle: rebuild it


def clear_memos() -> None:
    """Drop the per-process dataset memo (tests use this to simulate fresh workers)."""
    _DATASET_MEMO.clear()
