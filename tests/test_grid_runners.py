"""The paper runners as grid spec builders: input checks and failures.

Their numbers are pinned by ``test_golden_figures.py`` and
``test_golden_table3.py``; this module covers what happens around them.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.experiments import run_significance, run_table3
from repro.experiments.cli import _build_parser
from repro.experiments.cli import main as cli_main
from repro.runner import IncompleteGridError

MINI = ["--user-base", "60", "--item-base", "60"]


class _UntouchableDataset:
    """A dataset stand-in that fails the test as soon as anything reads it."""

    def __getattr__(self, name):
        raise AssertionError(f"dataset.{name} was read: work started before the check")


class TestSignificanceChecksFirst:
    @pytest.mark.parametrize(
        "methods, seeds",
        [(("Popularity", "MetaDPA"), (0,)), (("MetaDPA",), (0, 1, 2))],
    )
    def test_bad_input_fails_before_anything_is_fitted(self, methods, seeds):
        # With one seed, the command used to fit every method over a whole
        # Table III and only then fail inside the Wilcoxon test.
        with pytest.raises(ValueError, match="at least 3 seeds and 2 methods"):
            run_significance(
                _UntouchableDataset(), methods=methods, seeds=seeds, profile="fast"
            )

    def test_command_defaults_to_eight_splits(self):
        args = _build_parser().parse_args(["significance"])
        assert args.seeds == list(range(8))

    def test_grid_report_uses_the_same_check(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        grid = ["grid", "run", "--run-dir", run_dir, "--methods", "Popularity",
                "--targets", "Books", "--scenarios", "WARM", "--seeds", "0", "1"]
        assert cli_main([*MINI, *grid]) == 0
        with pytest.raises(SystemExit, match="at least 3 seeds and 2 methods"):
            cli_main(["grid", "report", "--run-dir", run_dir, "--significance"])


class TestRunnerFailures:
    def test_failed_unit_raises_with_the_run_summary(
        self, bench_dataset, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with pytest.raises(RuntimeError) as info:
            run_table3(
                bench_dataset,
                targets=("NoSuchDomain",),
                methods=("Popularity",),
                seeds=(0,),
                profile="fast",
            )
        assert not isinstance(info.value, IncompleteGridError)
        message = str(info.value)
        assert "FAILED Popularity on NoSuchDomain seed=0" in message
        assert "unknown target domain" in message
        assert list(tmp_path.iterdir()) == []  # the temporary run is removed

    @pytest.mark.parametrize(
        "command",
        [
            ["table3", "--profile", "fast", "--seeds", "0", "0"],
            ["grid", "run", "--run-dir", "RUN", "--seeds", "0", "0"],
        ],
    )
    def test_duplicate_seeds_fail_at_the_edge(self, command, tmp_path):
        argv = [str(tmp_path / "run") if arg == "RUN" else arg for arg in command]
        with pytest.raises(ValueError, match=r"duplicate seed\(s\) \[0\]"):
            cli_main([*MINI, *argv])
        assert not (tmp_path / "run").exists()
