"""Diagnostics, report exporters and the experiments CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cvae import DiversePreferenceAugmenter, TrainerConfig
from repro.cvae.diagnostics import (
    diagnose_augmentation,
    generation_auc,
    per_user_ranking_auc,
)
from repro.data.splits import Scenario
from repro.eval.reports import curves_to_csv, table3_to_csv, table3_to_markdown
from repro.experiments.cli import main as cli_main
from repro.experiments.table3 import run_table3


class TestPerUserAuc:
    def test_perfect_ordering(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        truth = np.array([1.0, 1.0, 0.0, 0.0])
        assert per_user_ranking_auc(scores, truth) == 1.0

    def test_inverted_ordering(self):
        scores = np.array([0.1, 0.9])
        truth = np.array([1.0, 0.0])
        assert per_user_ranking_auc(scores, truth) == 0.0

    def test_undefined_cases(self):
        assert np.isnan(per_user_ranking_auc(np.ones(3), np.ones(3)))
        assert np.isnan(per_user_ranking_auc(np.ones(3), np.zeros(3)))

    def test_generation_auc_aggregates(self):
        matrix = np.array([[0.9, 0.1], [0.1, 0.9]])
        truth = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert generation_auc(matrix, truth, np.array([0, 1])) == 1.0


class TestDiagnoseAugmentation:
    @pytest.fixture(scope="class")
    def report(self, tiny_dataset):
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=TrainerConfig(epochs=120), seed=0
        )
        augmented = augmenter.fit_generate()
        target = tiny_dataset.targets["Tgt"]
        warm = np.flatnonzero(target.user_degree() >= 5)
        return diagnose_augmentation(
            augmenter.trainers, augmented, target.ratings, warm
        )

    def test_report_fields(self, report, tiny_dataset):
        assert report.target_name == "Tgt"
        assert len(report.generation_aucs) == len(tiny_dataset.sources)
        assert report.diversity > 0.0

    def test_trained_cvae_is_informative(self, report):
        # The content path must beat chance after training.
        assert np.mean(report.generation_aucs) > 0.55
        assert report.healthy

    def test_format(self, report):
        text = report.format_table()
        assert "diversity" in text
        for name in report.source_names:
            assert name in text

    def test_mismatched_inputs_rejected(self, tiny_dataset, report):
        augmenter = DiversePreferenceAugmenter(
            tiny_dataset, "Tgt", trainer_config=TrainerConfig(epochs=1), seed=0
        )
        augmented = augmenter.fit_generate()
        with pytest.raises(ValueError):
            diagnose_augmentation(
                augmenter.trainers[:1],
                augmented,
                tiny_dataset.targets["Tgt"].ratings,
                np.array([0]),
            )


@pytest.fixture(scope="module")
def small_table(bench_dataset):
    return run_table3(
        bench_dataset,
        targets=("Books",),
        methods=("Popularity", "CoNN"),
        seeds=(0,),
        profile="fast",
    )


class TestReports:
    def test_markdown_contains_all_cells(self, small_table):
        text = table3_to_markdown(small_table)
        assert "### Target domain: Books" in text
        assert "| Popularity |" in text and "| CoNN |" in text
        assert "**" in text  # best values bolded

    def test_csv_row_count(self, small_table):
        text = table3_to_csv(small_table)
        lines = [line for line in text.strip().splitlines() if line]
        # header + 1 target x 4 scenarios x 2 methods x 4 metrics
        assert len(lines) == 1 + 4 * 2 * 4

    def test_curves_csv(self):
        curves = {(Scenario.WARM, "MetaDPA"): [0.1, 0.2]}
        text = curves_to_csv([5, 10], curves)
        assert "k=5" in text and "MetaDPA" in text


class TestCli:
    def test_stats_command(self, capsys):
        assert cli_main(["--user-base", "60", "--item-base", "60", "stats"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Books" in out

    def test_fig6_command(self, capsys):
        # fig6 builds its own datasets internally (fractions of the benchmark).
        assert cli_main(["fig6"]) == 0
        assert "block1" in capsys.readouterr().out

    def test_table3_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "t3.csv"
        md_path = tmp_path / "t3.md"
        code = cli_main(
            [
                "--user-base", "60", "--item-base", "60",
                "table3",
                "--profile", "fast",
                "--seeds", "0",
                "--csv", str(csv_path),
                "--markdown", str(md_path),
            ]
        )
        assert code == 0
        assert "warm-start" in capsys.readouterr().out
        assert csv_path.read_text().startswith("target,scenario")
        assert "### Target domain" in md_path.read_text()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
