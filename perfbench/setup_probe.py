"""Set-up of a sweep workload in a fresh interpreter: imports plus spec
expansion and validation. ``run.py`` times this script from start to exit.

    python3 perfbench/setup_probe.py --workload paper-auto --seed 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from repro.sweep.registry import validate_cell  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("paper-auto", "counts-large-n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--heldout", action="store_true")
    args = parser.parse_args()
    build = workloads.paper_grids if args.workload == "paper-auto" else workloads.counts_grids
    for _, spec in build(args.seed, args.heldout):
        for cell in spec.expand():
            validate_cell(cell)
    return 0


if __name__ == "__main__":
    sys.exit(main())
