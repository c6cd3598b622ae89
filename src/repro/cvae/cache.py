"""Content-addressed on-disk cache of augmentation results.

Training the k Dual-CVAEs is the dominant cost of a MetaDPA fit, yet the
:class:`~repro.cvae.augment.AugmentedRatings` they produce depend only on
the dataset, the target domain, the augmenter seed and the CVAE
hyper-parameters — not on any meta-learning knob.  Grid runs that sweep
meta-level settings (or replay a cell) therefore used to retrain identical
CVAEs once per cell; this cache stores each distinct augmentation once and
hands it back on every later request.

Entries follow the :mod:`repro.runner.store` conventions: one atomically
written ``<key>.npz`` per augmentation, content-addressed by the canonical
JSON of everything the matrices depend on, with corruption-rejecting loads
(anything unreadable or schema-mismatched is treated as a miss and simply
recomputed).
"""

from __future__ import annotations

import io
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.cvae.augment import AugmentedRatings
from repro.cvae.trainer import TrainerConfig
from repro.utils.persist import atomic_write_bytes, content_key

_FORMAT_VERSION = 1


class AugmentationCache:
    """Read/write access to one augmentation cache directory."""

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- keys ----------------------------------------------------------
    @staticmethod
    def key(
        target_name: str,
        seed: int,
        cvae_overrides: Mapping[str, Any] | None,
        trainer_config: TrainerConfig,
        token: str = "",
    ) -> str:
        """Content hash of everything an augmentation's matrices depend on.

        ``token`` names the dataset (e.g. the canonical dataset spec), so a
        cache directory shared across runs never mixes benchmarks.  The
        trainer config is part of the key: epochs and learning rate change
        the trained decoders, hence the generated matrices.
        ``eval_every`` alone is excluded — evaluation is a pure monitoring
        pass over an independent rng, so its frequency cannot change the
        generated matrices and must not invalidate warm entries.
        """
        trainer = asdict(trainer_config)
        trainer.pop("eval_every", None)
        payload = {
            "format": _FORMAT_VERSION,
            "target": target_name,
            "seed": int(seed),
            "cvae": dict(sorted((cvae_overrides or {}).items())),
            "trainer": trainer,
            "token": token,
        }
        return content_key(payload)

    def _path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.npz"

    # -- read/write ----------------------------------------------------
    def save(self, key: str, augmented: AugmentedRatings) -> None:
        """Persist one augmentation atomically under ``key``."""
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            format=np.array([_FORMAT_VERSION], dtype=np.int64),
            target_name=np.array(augmented.target_name),
            source_names=np.array(augmented.source_names),
            matrices=np.stack(augmented.matrices),
        )
        atomic_write_bytes(self._path(key), buf.getvalue())

    def load(self, key: str) -> AugmentedRatings | None:
        """Load a cached augmentation, or ``None`` for anything not valid."""
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as npz:
                if int(npz["format"][0]) != _FORMAT_VERSION:
                    return None
                target_name = str(npz["target_name"][()])
                source_names = [str(name) for name in npz["source_names"]]
                matrices = np.asarray(npz["matrices"])
            if matrices.ndim != 3 or matrices.shape[0] != len(source_names):
                return None
            if not source_names or not np.isfinite(matrices).all():
                return None
            return AugmentedRatings(
                target_name=target_name,
                source_names=source_names,
                matrices=[matrices[j].copy() for j in range(matrices.shape[0])],
            )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def has(self, key: str) -> bool:
        return self.load(key) is not None

    def keys(self) -> list[str]:
        """Keys of every entry file currently on disk (validity unchecked)."""
        return sorted(path.stem for path in self.cache_dir.glob("*.npz"))

    def __len__(self) -> int:
        return len(self.keys())
