"""Run one workload of the MetaDPA end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Workloads: ``train-eval``, ``serve-read``, ``serve-mixed``,
``recommend-wide`` (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines report the machine fingerprint
and per-phase request counts.  The exit code is non-zero when a
correctness check fails or the program under test is missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train-eval", "serve-read", "serve-mixed", "recommend-wide")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {src}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads it, so the pin must be
    # set before anything imports numpy.
    sys.path.insert(0, str(HERE))
    from mdpabench.fingerprint import pin_blas_threads

    pinned = pin_blas_threads()
    sys.path.insert(0, str(src))
    from mdpabench.harness import run

    return run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), pinned)


if __name__ == "__main__":
    sys.exit(main())
