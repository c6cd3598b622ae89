"""Golden regression of the figure commands (Figs. 3, 5 and 7, Sec. V-D).

Each ``tests/golden/<command>_mini.json`` holds the command line and what
one CLI command printed and exported (stdout, and the ``--csv`` and
``--markdown`` files where the command writes them) on the 60x60 benchmark
with the fast profile.  Numbers must agree within the 1e-6 of
``table3_mini.json``; every label and the layout must agree exactly.  A
change to a runner, the grid engine, the aggregation or a report writer
that moves a reported figure fails here.

Regenerate the files only after an intended change of a reported number::

    PYTHONPATH=src python tests/test_golden_figures.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent / "golden"
TOLERANCE = 1e-6
BASE_ARGS = ["--user-base", "60", "--item-base", "60"]
COMMANDS = {
    "fig3": ["fig3", "--profile", "fast"],
    "fig5": ["fig5", "--profile", "fast"],
    "fig7": ["fig7", "--profile", "fast"],
    "significance": ["significance", "--profile", "fast", "--seeds", "0", "1", "2"],
}
#: commands whose ``--csv``/``--markdown`` exports are pinned too.
EXPORTING = ("fig5", "significance")
_NUMBER = re.compile(r"([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_mini.json"


def run_command(name: str, out_dir: Path) -> dict:
    """Run one figure command in-process; return its argv and outputs."""
    argv = [*BASE_ARGS, *COMMANDS[name]]
    exports = {}
    if name in EXPORTING:
        exports = {"csv": out_dir / f"{name}.csv", "markdown": out_dir / f"{name}.md"}
    flags = [arg for kind, path in exports.items() for arg in (f"--{kind}", str(path))]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli_main([*argv, *flags]) == 0
    outputs = {"stdout": stdout.getvalue()}
    outputs.update({kind: path.read_text() for kind, path in exports.items()})
    return {"argv": argv, "outputs": outputs}


def assert_same_text(actual: str, expected: str, what: str) -> None:
    """Same text except that numbers may differ by up to ``TOLERANCE``."""
    actual_lines, expected_lines = actual.splitlines(), expected.splitlines()
    assert len(actual_lines) == len(expected_lines), f"{what}: line count changed"
    for row, (got, want) in enumerate(zip(actual_lines, expected_lines), start=1):
        got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
        assert len(got_parts) == len(want_parts), f"{what} line {row}: {got!r} != {want!r}"
        for index, (g, w) in enumerate(zip(got_parts, want_parts)):
            if index % 2 == 0:
                assert g == w, f"{what} line {row}: {got!r} != {want!r}"
            else:
                assert float(g) == pytest.approx(float(w), abs=TOLERANCE), (
                    f"{what} line {row}: {got!r} != {want!r}"
                )


@pytest.mark.parametrize("name", list(COMMANDS))
def test_figure_command_matches_golden(name, tmp_path):
    golden = json.loads(golden_path(name).read_text())
    result = run_command(name, tmp_path)
    assert result["argv"] == golden["argv"]
    assert sorted(result["outputs"]) == sorted(golden["outputs"])
    for kind, expected in golden["outputs"].items():
        assert_same_text(result["outputs"][kind], expected, f"{name} {kind}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for command in sys.argv[1:] or COMMANDS:
            captured = run_command(command, Path(scratch))
            golden_path(command).write_text(json.dumps(captured, indent=1) + "\n")
            print(f"wrote {golden_path(command)}")
