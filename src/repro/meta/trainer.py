"""MetaDPA: the paper's full method as a :class:`~repro.core.Recommender`.

``fit`` runs the three blocks end to end:

1. multi-source domain adaptation — one Dual-CVAE per source domain trained
   on shared users (:mod:`repro.cvae.trainer`),
2. diverse preference augmentation — k generated rating matrices for the
   target domain (:mod:`repro.cvae.augment`),
3. preference meta-learning — MAML over the original warm tasks plus their
   k augmented views (:mod:`repro.meta.maml`).

``score`` fine-tunes the meta-initialization on the evaluated task's support
set and scores the candidate items, exactly the meta-testing procedure of
Section IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.interface import FitContext, Recommender
from repro.cvae.augment import AugmentedRatings, DiversePreferenceAugmenter
from repro.cvae.trainer import TrainerConfig
from repro.meta.corpus import (
    PackedContent,
    TaskCorpus,
    TaskCorpusBuilder,
)
from repro.meta.maml import MAML, MAMLConfig, subsample_support
from repro.meta.model import PreferenceModel, PreferenceModelConfig
from repro.meta.serving import MAMLServingMixin
from repro.nn.optim import require_finite
from repro.utils.rng import spawn_rngs


@dataclass(frozen=True)
class MetaDPAConfig:
    """All hyper-parameters of MetaDPA in one place.

    ``beta1`` / ``beta2`` weigh the MDI / ME constraints (Eq. 8); setting
    one of them to zero produces the ablation variants of Fig. 5
    (``beta1=0`` -> MetaDPA-ME, ``beta2=0`` -> MetaDPA-MDI).
    ``use_augmentation=False`` disables block 1+2 entirely (pure
    meta-learner, useful as a sanity ablation).
    """

    beta1: float = 0.1
    beta2: float = 1.0
    latent_dim: int = 16
    cvae_hidden_dim: int = 64
    cvae_epochs: int = 300
    cvae_lr: float = 3e-3
    embed_dim: int = 32
    hidden_dims: tuple[int, ...] = (64, 32)
    meta_epochs: int = 30
    maml: MAMLConfig = field(default_factory=MAMLConfig)
    finetune_steps: int = 5
    use_augmentation: bool = True
    augmentation_weight: float = 1.0
    few_shot_views: bool = True
    sharpen_augmented: bool = False

    def __post_init__(self) -> None:
        if self.meta_epochs <= 0 or self.finetune_steps < 0:
            raise ValueError("meta_epochs must be positive, finetune_steps >= 0")
        if not 0.0 <= self.augmentation_weight <= 1.0:
            raise ValueError("augmentation_weight must be in [0, 1]")
        # The CVAEConfig that carries them is built only at fit time.
        require_finite("beta1", self.beta1, positive=False)
        require_finite("beta2", self.beta2, positive=False)
        self.cvae_trainer_config()  # rejects bad cvae_epochs / cvae_lr now

    def cvae_trainer_config(self) -> TrainerConfig:
        """The Dual-CVAE optimization settings of blocks 1 + 2."""
        return TrainerConfig(epochs=self.cvae_epochs, lr=self.cvae_lr)


def _sharpen_per_user(matrix: np.ndarray) -> np.ndarray:
    """Min-max rescale each user's generated ratings to the full [0, 1] range.

    The sigmoid decoders produce well-*ordered* but narrow-band scores
    (roughly 0.4–0.55 at our scale); as BCE soft labels those are all "maybe"
    and teach the meta-learner very little.  A per-user monotone rescale
    preserves exactly the preference ordering the Dual-CVAE learned while
    restoring label contrast.  Implementation detail on top of the paper
    (which uses the decoder outputs directly) — disable with
    ``sharpen_augmented=False``.
    """
    lo = matrix.min(axis=1, keepdims=True)
    hi = matrix.max(axis=1, keepdims=True)
    span = np.maximum(hi - lo, 1e-8)
    return (matrix - lo) / span


class MetaDPA(MAMLServingMixin, Recommender):
    """Diverse Preference Augmentation with multiple domains (the paper).

    The serving surface (adaptation, streaming refresh, frozen-tower
    scoring, artifact round-trip) comes from
    :class:`~repro.meta.serving.MAMLServingMixin`.
    """

    name = "MetaDPA"

    def __init__(self, config: MetaDPAConfig | None = None, seed: int = 0):
        self.config = config or MetaDPAConfig()
        self.seed = seed
        self.maml: MAML | None = None
        self.augmented: AugmentedRatings | None = None
        self._ctx: FitContext | None = None
        self._content: PackedContent | None = None
        self._stream_corpus: TaskCorpus | None = None
        self._tables = None
        self.meta_loss_history: list[float] = []
        self._aug_cache = None
        self._aug_cache_token = ""
        #: cache/training telemetry of the last ``fit`` (``None`` before it).
        self.augmentation_info: dict | None = None

    def set_augmentation_cache(self, cache, token: str = "") -> None:
        """Attach an :class:`~repro.cvae.cache.AugmentationCache`.

        ``token`` must identify the dataset (e.g. its canonical spec), so a
        cache directory is never shared across different benchmarks.  With
        a cache attached, ``fit`` skips the k Dual-CVAE trainings entirely
        whenever an identical augmentation is already stored — the expensive
        block 1+2 of MetaDPA becomes a disk read for repeated grid cells.
        """
        self._aug_cache = cache
        self._aug_cache_token = token

    # ------------------------------------------------------------------
    def fit(self, ctx: FitContext) -> "MetaDPA":
        cfg = self.config
        aug_rng, maml_rng, sample_rng = spawn_rngs(self.seed, 3)
        self._ctx = ctx
        self._content = None
        self._stream_corpus = None
        self._tables = None
        self.attach_serving(ctx)
        domain = ctx.domain

        # Blocks 1 + 2: domain adaptation and diverse augmentation.
        if cfg.use_augmentation:
            augmenter = DiversePreferenceAugmenter(
                ctx.dataset,
                ctx.target_name,
                cvae_config_overrides={
                    "beta1": cfg.beta1,
                    "beta2": cfg.beta2,
                    "latent_dim": cfg.latent_dim,
                    "hidden_dim": cfg.cvae_hidden_dim,
                },
                trainer_config=cfg.cvae_trainer_config(),
                seed=int(aug_rng.integers(0, 2**31 - 1)),
                cache=self._aug_cache,
                cache_token=self._aug_cache_token,
            )
            self.augmented = augmenter.fit_generate()
            self.augmentation_info = {
                "cvae_trainings": augmenter.n_trained,
            }
            if augmenter.cache_hit is not None:
                self.augmentation_info["augmentation_cache"] = (
                    "hit" if augmenter.cache_hit else "miss"
                )
            if cfg.sharpen_augmented:
                self.augmented.matrices = [
                    _sharpen_per_user(m) for m in self.augmented.matrices
                ]
        else:
            self.augmented = None
            self.augmentation_info = {"cvae_trainings": 0}

        # Block 3: preference meta-learning over original + augmented tasks.
        model = self._build_model(domain.user_content.shape[1])
        self.maml = MAML(model, cfg.maml, seed=maml_rng)
        corpus = self._build_meta_corpus(ctx, sample_rng)
        self.meta_loss_history = self.maml.fit(corpus, epochs=cfg.meta_epochs)
        return self

    def _build_meta_corpus(
        self, ctx: FitContext, rng: np.random.Generator
    ) -> TaskCorpus:
        """Original warm tasks plus k augmented views per user (Eqs. 9–10).

        Packed construction: every warm task (and its few-shot subsampled
        view) stores its index arrays once; each of the k augmented views
        shares its parent's indices and adds only a float32 label row read
        from the generated rating matrix — the corpus never copies content.
        """
        builder = TaskCorpusBuilder(self._packed_content())
        for task in ctx.warm_tasks:
            base = builder.add_task(task)
            if self.config.few_shot_views:
                builder.add_task(subsample_support(task, rng))
            if self.augmented is None:
                continue
            for matrix in self.augmented.matrices:
                if self.config.augmentation_weight < 1.0:
                    if rng.random() > self.config.augmentation_weight:
                        continue
                builder.add_rating_view(base, matrix[task.user_row])
        return builder.build()

    # -- MAMLServingMixin hooks -----------------------------------------
    @property
    def _finetune_steps(self) -> int:
        return self.config.finetune_steps

    @property
    def _maml_config(self) -> MAMLConfig:
        return self.config.maml

    def _build_model(self, content_dim: int) -> PreferenceModel:
        cfg = self.config
        return PreferenceModel(
            PreferenceModelConfig(
                content_dim=content_dim,
                embed_dim=cfg.embed_dim,
                hidden_dims=cfg.hidden_dims,
            )
        )

    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        if self._method_config is not None:
            return super().config_dict()
        # Directly-constructed instance: flatten MetaDPAConfig (minus the
        # nested MAML config, which stays at its defaults) so the artifact
        # can still be rebuilt through the registry.
        from dataclasses import asdict

        flat = asdict(self.config)
        flat.pop("maml", None)
        flat["hidden_dims"] = list(flat["hidden_dims"])
        return flat

