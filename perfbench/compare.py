"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Records are the JSON files ``run.py`` writes to ``.perfbench-out/records/``.
Exits 2 without comparing when their machine facts, workload, trace mode,
run length or benchmark version differ (``facts.comparable``); otherwise
prints each metric of both records with the change as a share of the base.
A single pair of runs proves nothing: the median-of-runs rule in
``README.md`` decides whether a change is a gain or a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import facts


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    reasons = facts.comparable(base, new)
    if reasons:
        print("refusing to compare:", *reasons, sep="\n  ", file=sys.stderr)
        return 2
    print(f"{'metric':34s} {'base':>14s} {'new':>14s} {'change':>8s}")
    for name, metric in base["result"]["metrics"].items():
        before = metric["value"]
        after = new["result"]["metrics"].get(name, {}).get("value")
        if after is None:
            print(f"{name:34s} {before:14.6g} {'-':>14s}")
            continue
        change = f"{(after - before) / before:+.1%}" if before else "-"
        print(f"{name:34s} {before:14.6g} {after:14.6g} {change:>8s} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
