"""Content-addressed, crash-safe persistence for grid cells.

Layout of a run directory::

    run_dir/
      spec.json            the GridSpec the directory belongs to
      cells/<key>.json     cell metadata + aggregated metrics (commit marker)
      cells/<key>.npz      per-instance score lists (padded matrix + lengths)
      prepared/<key>.pkl   cached prepare_experiment bundles (see prepared.py)

Every write goes through a uniquely named temp file followed by
``os.replace``, so concurrent workers never interleave bytes and a reader
only ever sees a missing file or a complete one.  The JSON file is written
*after* the NPZ and is the commit marker: a cell counts as complete only if
its JSON parses, carries the expected schema, and its score file round-trips
— anything less (crash mid-write, truncation, manual tampering) makes
:meth:`RunStore.load_cell` return ``None`` and the engine recompute the cell
rather than trust it.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.eval.metrics import MetricSet
from repro.runner.spec import GridCell, GridSpec
from repro.utils.persist import atomic_write_bytes as _atomic_write_bytes

_FORMAT_VERSION = 1
_METRIC_KEYS = ("hr", "mrr", "ndcg", "auc", "n_trials", "k")


class GridSpecMismatch(ValueError):
    """The run directory already belongs to a different grid spec."""


@dataclass
class CellResult:
    """One completed cell loaded back from the store."""

    key: str
    meta: dict[str, Any]
    metrics: MetricSet
    score_lists: list[np.ndarray]
    extras: dict[str, Any]

    @property
    def scenario_value(self) -> str:
        return self.meta["scenario"]


def pack_score_lists(score_lists: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Pad variable-length score lists into one matrix plus lengths."""
    lengths = np.array([np.asarray(s).size for s in score_lists], dtype=np.int64)
    width = int(lengths.max()) if lengths.size else 0
    scores = np.full((len(score_lists), width), np.nan, dtype=np.float64)
    for row, s in enumerate(score_lists):
        s = np.asarray(s, dtype=np.float64).ravel()
        scores[row, : s.size] = s
    return {"scores": scores, "lengths": lengths}

def unpack_score_lists(scores: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    return [scores[row, : int(n)].copy() for row, n in enumerate(lengths)]


class RunStore:
    """Read/write access to one grid run directory."""

    def __init__(self, run_dir: str | Path):
        self.run_dir = Path(run_dir)
        self.cells_dir = self.run_dir / "cells"
        self.prepared_dir = self.run_dir / "prepared"
        self.cells_dir.mkdir(parents=True, exist_ok=True)
        self.prepared_dir.mkdir(parents=True, exist_ok=True)

    # -- spec ----------------------------------------------------------
    @property
    def spec_path(self) -> Path:
        return self.run_dir / "spec.json"

    def write_spec(self, spec: GridSpec, force: bool = False) -> None:
        """Bind the directory to ``spec``; refuse to mix different grids."""
        if self.spec_path.exists() and not force:
            existing = GridSpec.from_file(self.spec_path)
            if existing.canonical() != spec.canonical():
                raise GridSpecMismatch(
                    f"{self.run_dir} already holds a different grid spec; "
                    "use a fresh run directory (or force=True to rebind)"
                )
            return
        _atomic_write_bytes(self.spec_path, spec.to_json().encode())

    def load_spec(self) -> GridSpec:
        if not self.spec_path.exists():
            raise FileNotFoundError(f"no spec.json in {self.run_dir}")
        return GridSpec.from_file(self.spec_path)

    # -- cells ---------------------------------------------------------
    def _json_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.npz"

    def save_cell(
        self,
        cell: GridCell,
        metrics: MetricSet,
        score_lists: list[np.ndarray],
        extras: dict[str, Any] | None = None,
    ) -> None:
        """Persist one completed cell (scores first, JSON commit marker last)."""
        packed = pack_score_lists(score_lists)
        buf = io.BytesIO()
        np.savez_compressed(buf, **packed)
        _atomic_write_bytes(self._npz_path(cell.key), buf.getvalue())

        payload = {
            "format": _FORMAT_VERSION,
            "key": cell.key,
            "cell": cell.to_dict(),
            "metrics": {
                "hr": metrics.hr,
                "mrr": metrics.mrr,
                "ndcg": metrics.ndcg,
                "auc": metrics.auc,
                "n_trials": metrics.n_trials,
                "k": metrics.k,
            },
            "extras": dict(extras or {}),
        }
        _atomic_write_bytes(
            self._json_path(cell.key), (json.dumps(payload, indent=1) + "\n").encode()
        )
        # A completed cell supersedes any stale crash record from a
        # previous attempt.
        self.clear_failure(cell.key)

    def load_cell(self, key: str) -> CellResult | None:
        """Load a cell, or ``None`` for anything missing or not fully valid."""
        json_path, npz_path = self._json_path(key), self._npz_path(key)
        try:
            payload = json.loads(json_path.read_text())
            if payload.get("format") != _FORMAT_VERSION or payload.get("key") != key:
                return None
            raw_metrics = payload["metrics"]
            metrics = MetricSet(
                hr=float(raw_metrics["hr"]),
                mrr=float(raw_metrics["mrr"]),
                ndcg=float(raw_metrics["ndcg"]),
                auc=float(raw_metrics["auc"]),
                n_trials=int(raw_metrics["n_trials"]),
                k=int(raw_metrics["k"]),
            )
            meta = dict(payload["cell"])
            with np.load(npz_path, allow_pickle=False) as npz:
                scores, lengths = npz["scores"], npz["lengths"]
            if scores.ndim != 2 or lengths.ndim != 1:
                return None
            if scores.shape[0] != lengths.size or lengths.size != metrics.n_trials:
                return None
            if lengths.size and (
                lengths.min() < 1 or lengths.max() > max(scores.shape[1], 0)
            ):
                return None
            score_lists = unpack_score_lists(scores, lengths)
        except (
            OSError,
            ValueError,
            KeyError,
            TypeError,
            json.JSONDecodeError,
            zipfile.BadZipFile,
        ):
            return None
        return CellResult(
            key=key,
            meta=meta,
            metrics=metrics,
            score_lists=score_lists,
            extras=dict(payload.get("extras") or {}),
        )

    # -- failures ------------------------------------------------------
    def _error_path(self, key: str) -> Path:
        return self.cells_dir / f"{key}.error.json"

    def record_failure(
        self, cell: GridCell, error: str, traceback_text: str | None = None
    ) -> None:
        """Persist why a cell crashed (``cells/<key>.error.json``).

        The record is diagnostic only — it never makes the cell count as
        complete, and a later successful :meth:`save_cell` clears it.
        ``grid status`` surfaces the stored error and traceback so a
        failed run explains itself without re-running.
        """
        payload = {
            "format": _FORMAT_VERSION,
            "key": cell.key,
            "cell": cell.to_dict(),
            "error": str(error),
            "traceback": traceback_text,
        }
        _atomic_write_bytes(
            self._error_path(cell.key),
            (json.dumps(payload, indent=1) + "\n").encode(),
        )

    def load_failure(self, key: str) -> dict[str, Any] | None:
        """The stored failure record for a cell, or ``None``."""
        try:
            payload = json.loads(self._error_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            return None
        return payload

    def clear_failure(self, key: str) -> None:
        """Drop a cell's failure record (called after a successful save)."""
        try:
            self._error_path(key).unlink()
        except OSError:
            pass

    def failed_keys(self) -> set[str]:
        """Keys holding a failure record (whatever their completion state)."""
        return {
            path.name[: -len(".error.json")]
            for path in self.cells_dir.glob("*.error.json")
        }

    def is_complete(self, key: str) -> bool:
        return self.load_cell(key) is not None
