"""E-trace — trace-recording overhead on the batched engine.

Not a paper artifact: this benchmark tracks the *measurement machinery*. The
trace subsystem hooks the batched engine's round loop (per-round one-fraction
capture; optionally a flip channel that costs an extra opinion-matrix compare
per round); this benchmark quantifies what that recording costs relative to
the untraced batched run the consensus tables use.

It is also the first benchmark expressed as a :class:`~repro.sweep.SweepSpec`
grid instead of an ad-hoc loop over trial batches (the ROADMAP "migrate the
benchmark suite" step): the grid is declared once, expanded into cells, and
each cell is timed through the orchestrator's own pure
:func:`~repro.sweep.runner.execute_cell` worker. The traced variant of every
cell is the *same* cell (same derived seed, hence identical initial
conditions and dynamics stream) with its measure swapped from ``consensus``
to ``trace`` — so traced minus untraced isolates recording cost exactly.

Emits ``results/BENCH_trace.json``. The acceptance line: x-only trace
recording adds at most 25% over the untraced batched run on the headline
cell (n=1000, trials=300, random start).

Run directly (``PYTHONPATH=src python benchmarks/bench_trace_overhead.py``)
or through pytest-benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from bench_common import banner, results_path, run_once
from repro.sweep import SweepSpec
from repro.sweep.runner import execute_cell
from repro.viz.tables import format_table

SEED = 20260729
MAX_ROUNDS = 2000
TRIALS = 300
#: timing repetitions per variant; min-of-k filters scheduler noise
REPEATS = 3

#: The declarative grid: FET across two sizes from the random start (the
#: workload where per-round cost dominates and recording overhead is most
#: visible). The n=1000 row is the acceptance headline.
SPEC = SweepSpec(
    name="trace-overhead",
    seed=SEED,
    trials=TRIALS,
    axes={
        "protocol": ["fet"],
        "n": [300, 1000],
        "initializer": [{"name": "bernoulli", "p": 0.5}],
    },
    max_rounds=MAX_ROUNDS,
    engine="batched",
)

#: Measure variants timed per cell. ``consensus`` is the untraced baseline;
#: the trace variants reuse the same cell seed so the dynamics are identical.
VARIANTS = [
    ("untraced", {"kind": "consensus"}),
    ("trace-x", {"kind": "trace"}),
    ("trace-x+flips", {"kind": "trace", "flips": True}),
    ("trace-ring64", {"kind": "trace", "ring": 64}),
]


def _time_cell(cell) -> tuple[float, dict]:
    seconds = float("inf")
    payload = {}
    for _ in range(REPEATS):
        start = time.perf_counter()
        payload = execute_cell(cell).payload
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, payload


def run_benchmark() -> list[dict]:
    rows = []
    for cell in SPEC.expand():
        baseline = None
        for label, measure in VARIANTS:
            # Same seed => identical initial batch and dynamics stream; only
            # the recording differs, so the delta is pure trace overhead.
            variant = dataclasses.replace(cell, measure=measure)
            seconds, payload = _time_cell(variant)
            if label == "untraced":
                baseline = seconds
            rows.append(
                {
                    "n": cell.n,
                    "trials": cell.trials,
                    "variant": label,
                    "successes": payload.get("successes"),
                    "seconds": round(seconds, 4),
                    "overhead_pct": round(100.0 * (seconds / baseline - 1.0), 1),
                }
            )
    return rows


def report(rows: list[dict]) -> None:
    print(banner("Trace-recording overhead — batched engine (FET, SweepSpec grid)"))
    print(
        format_table(
            ["n", "trials", "variant", "success", "sec", "overhead %"],
            [
                [
                    row["n"],
                    row["trials"],
                    row["variant"],
                    f"{row['successes']}/{row['trials']}",
                    row["seconds"],
                    row["overhead_pct"],
                ]
                for row in rows
            ],
        )
    )
    headline = _headline(rows)
    if headline:
        print(
            f"\nheadline (n=1000, trials={TRIALS}, random start): "
            f"{headline['overhead_pct']}% x-only trace overhead (target <= 25%)"
        )
    path = results_path("BENCH_trace.json")
    path.write_text(
        json.dumps(
            {
                "spec": SPEC.to_dict(),
                "repeats": REPEATS,
                "cells": rows,
                "headline_overhead_pct": headline["overhead_pct"] if headline else None,
            },
            indent=2,
        )
    )
    print(f"wrote {path}")


def _headline(rows: list[dict]) -> dict | None:
    for row in rows:
        if row["n"] == 1000 and row["variant"] == "trace-x":
            return row
    return None


def test_trace_overhead(benchmark):
    rows = run_once(benchmark, run_benchmark)
    report(rows)
    headline = _headline(rows)
    assert headline is not None
    # Acceptance: x-only recording must stay within 25% of the untraced run.
    assert headline["overhead_pct"] <= 25.0
    # Identical seeds => identical dynamics: the traced and untraced variants
    # of a cell must agree exactly on the outcome they both compute.
    by_cell: dict[int, dict[str, dict]] = {}
    for row in rows:
        by_cell.setdefault(row["n"], {})[row["variant"]] = row
    for variants in by_cell.values():
        assert variants["trace-x"]["successes"] == variants["untraced"]["successes"]


if __name__ == "__main__":
    report(run_benchmark())
    sys.exit(0)
