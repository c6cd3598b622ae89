"""Inspect the diverse preference augmentation block in isolation.

Trains the three Dual-CVAEs (Electronics/Movies/Music -> CDs), generates
the k rating matrices for the target domain and prints the augmentation
diagnostics report (:func:`repro.cvae.diagnostics.diagnose_augmentation`):

- how informative each source's generations are (per-user AUC against the
  training-visible ratings) and the range of the generated values,
- how diverse the k generations are (mean pairwise L2).

Usage:  python examples/diverse_augmentation.py
"""

from repro.cvae import DiversePreferenceAugmenter, TrainerConfig, diagnose_augmentation
from repro.data import make_amazon_like_benchmark, prepare_experiment


def main() -> None:
    dataset = make_amazon_like_benchmark(seed=0)
    experiment = prepare_experiment(dataset, "CDs", seed=0)

    print("Training one Dual-CVAE per source domain ...")
    augmenter = DiversePreferenceAugmenter(
        experiment.dataset,
        "CDs",
        trainer_config=TrainerConfig(epochs=300),
        seed=0,
    )
    augmented = augmenter.fit_generate()

    report = diagnose_augmentation(
        augmenter.trainers,
        augmented,
        reference_ratings=experiment.ctx.visible_ratings,
        user_rows=experiment.splits.existing_users,
    )
    print()
    print(report.format_table())
    print(f"healthy: {report.healthy}")


if __name__ == "__main__":
    main()
