"""``repro.nn`` exports only what the system runs.

Every name in ``repro.nn.__all__`` must be used by code in ``src/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` outside the module that
defines it and outside the package ``__init__`` files, which only
re-export.  Names in comments and strings do not count, and tests do not
count either: code only tests call belongs in ``tests/``.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

import repro.nn

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")


def _code_names(path: Path) -> set[str]:
    """Identifiers in ``path``'s code, without comments and strings."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return {tok.string for tok in tokens if tok.type == tokenize.NAME}


def test_every_export_has_a_caller_outside_its_module():
    names_by_file = {
        path.resolve(): _code_names(path)
        for directory in CALLER_DIRS
        for path in (ROOT / directory).rglob("*.py")
        if path.name != "__init__.py"
    }
    unused = []
    for name in repro.nn.__all__:
        defining = Path(sys.modules[getattr(repro.nn, name).__module__].__file__).resolve()
        if not any(
            name in names for path, names in names_by_file.items() if path != defining
        ):
            unused.append(name)
    assert unused == []
