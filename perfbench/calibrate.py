"""Regenerate ``bands.json``: the stated bands ``counts-large-n`` checks.

    python3 perfbench/calibrate.py --seeds 40

Runs one pass of the ``counts-large-n`` grids per calibration seed (a seed
stream of its own, disjoint from benchmark seeds) and states, per cell, a
band for the number of converged (or θ-reaching) trials and for their mean
round count:

* hits — the observed range widened to ±5 binomial standard deviations
  around the pooled success rate, plus one trial each side;
* mean rounds — the mean of the per-seed means ± max(6 sd, 10%), checked
  only when the cell converged at least ``MIN_HITS_FOR_MEAN`` times.

The bands describe the engine's distribution, not one draw stream, so a
change that keeps the count models exact keeps passing them. Rerun this
only when a change is meant to move the distribution itself.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from repro.sweep import run_sweep  # noqa: E402

#: Entropy tag of the calibration seed stream ("CALI").
CALIBRATION_TAG = 0x43414C49
MIN_HITS_FOR_MEAN = 8


def _band_hits(observed: list[int], trials: int) -> list[int]:
    rate = (sum(observed) + 0.5) / (trials * len(observed) + 1)
    sigma = math.sqrt(trials * rate * (1 - rate))
    lo = min(min(observed), trials * rate - 5 * sigma) - 1
    hi = max(max(observed), trials * rate + 5 * sigma) + 1
    return [max(0, math.floor(lo)), min(trials, math.ceil(hi))]


def _band_mean(means: list[float]) -> list[float]:
    center = statistics.fmean(means)
    spread = max(6 * statistics.stdev(means), 0.1 * center)
    return [round(max(0.0, center - spread), 2), round(center + spread, 2)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args()
    hits: dict[str, list[int]] = defaultdict(list)
    means: dict[str, list[float]] = defaultdict(list)
    trials: dict[str, int] = {}
    for index in range(args.seeds):
        seed = workloads.seed_words(CALIBRATION_TAG, False, args.seeds)[index]
        for _, spec in workloads.counts_grids(seed):
            result = run_sweep(spec, jobs=1)
            for cell, res in zip(result.cells, result.results):
                key = workloads.cell_band_key(cell)
                got, mean = workloads.cell_outcome(cell, res)
                hits[key].append(got)
                trials[key] = cell.trials
                if got:
                    means[key].append(mean)
        print(f"seed {index + 1}/{args.seeds}", file=sys.stderr, flush=True)
    bands = {}
    for key in hits:
        band = {"hits": _band_hits(hits[key], trials[key]), "min_hits_for_mean": None,
                "mean": None, "seeds": args.seeds}
        if min(hits[key]) >= MIN_HITS_FOR_MEAN:
            band["min_hits_for_mean"] = MIN_HITS_FOR_MEAN
            band["mean"] = _band_mean(means[key])
        bands[key] = band
    workloads.BANDS_PATH.write_text(json.dumps(bands, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
