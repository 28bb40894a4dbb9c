"""E-telemetry — observability overhead on the batched engine.

Not a paper artifact: this benchmark prices the telemetry seams added for
the sweep observability stack (metrics registry, span tracer, event log).
Every instrumented hot path is ambient and off by default — a ContextVar
read plus a ``None`` check — so the "off" variant must run at effectively
the untelemetered engine's speed, while the fully-instrumented variant
(metrics + spans + events, i.e. what ``repro sweep --metrics-out
--trace-out --events-out`` turns on) must stay within the same 25% bound
the trace-overhead benchmark enforces for recording.

Same declarative shape as ``bench_trace_overhead``: one SweepSpec grid,
every variant of a cell reuses the *same* derived seed (identical dynamics
stream), timing through :class:`~repro.sweep.runner.MeteredCell` — the
exact wrapper the orchestrator installs — so the deltas isolate telemetry
cost, not workload drift.

Emits ``results/BENCH_telemetry.json``. Acceptance lines: the telemetry-off
run regresses at most 5% against the ``BENCH_engine.json`` batched
throughput baseline, and the full metrics+spans+events variant costs at
most 25% over telemetry-off on the headline cell (n=1000, trials=300,
random start).

Run directly (``PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py``)
or through pytest-benchmark.
"""

from __future__ import annotations

import json
import sys
import time

from bench_common import banner, results_path, run_once
from repro.sweep import SweepSpec
from repro.sweep.runner import MeteredCell, execute_cell
from repro.viz.tables import format_table

SEED = 20260808
MAX_ROUNDS = 2000
TRIALS = 300
#: timing repetitions per variant; min-of-k filters scheduler noise
REPEATS = 3

#: Same workload as the trace-overhead benchmark: FET from the random
#: start, where per-round cost dominates and per-round instrumentation
#: (draw_tier spans, engine counters) fires most often.
SPEC = SweepSpec(
    name="telemetry-overhead",
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

#: Worker variants. ``off`` is the bare cell executor (the telemetry-off
#: sweep path); the rest wrap it in MeteredCell with the same pillar
#: combinations the orchestrator uses for --metrics-out / --trace-out /
#: the full observability CLI.
VARIANTS = [
    ("off", None),
    ("metrics", ("metrics",)),
    ("spans", ("spans",)),
    ("full", ("metrics", "spans", "events")),
]


def _worker(pillars: tuple[str, ...] | None):
    if pillars is None:
        return execute_cell
    return MeteredCell(execute_cell, pillars)


def _time_cell(cell, pillars: tuple[str, ...] | None) -> tuple[float, object]:
    worker = _worker(pillars)
    seconds = float("inf")
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = worker(cell)
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, result


def _engine_baseline() -> float | None:
    """Batched trials/s for the headline workload from BENCH_engine.json."""
    path = results_path("BENCH_engine.json")
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    for row in payload.get("cells", []):
        if (
            row.get("engine") == "batched"
            and row.get("n") == 1000
            and "bernoulli" in str(row.get("init", ""))
        ):
            return float(row["trials_per_sec"])
    return None


def run_benchmark() -> list[dict]:
    rows = []
    for cell in SPEC.expand():
        baseline = None
        for label, pillars in VARIANTS:
            seconds, result = _time_cell(cell, pillars)
            if label == "off":
                baseline = seconds
            span_count = None
            if result.telemetry is not None and "spans" in result.telemetry:
                span_count = len(result.telemetry["spans"]["records"])
            rows.append(
                {
                    "n": cell.n,
                    "trials": cell.trials,
                    "variant": label,
                    "successes": result.payload.get("successes"),
                    "seconds": round(seconds, 4),
                    "trials_per_sec": round(cell.trials / seconds, 1),
                    "overhead_pct": round(100.0 * (seconds / baseline - 1.0), 1),
                    "spans_recorded": span_count,
                }
            )
    return rows


def _row(rows: list[dict], n: int, variant: str) -> dict | None:
    for row in rows:
        if row["n"] == n and row["variant"] == variant:
            return row
    return None


def report(rows: list[dict]) -> None:
    print(banner("Telemetry overhead — batched engine (FET, SweepSpec grid)"))
    print(
        format_table(
            ["n", "trials", "variant", "success", "sec", "trials/s", "overhead %", "spans"],
            [
                [
                    row["n"],
                    row["trials"],
                    row["variant"],
                    f"{row['successes']}/{row['trials']}",
                    row["seconds"],
                    row["trials_per_sec"],
                    row["overhead_pct"],
                    row["spans_recorded"] if row["spans_recorded"] is not None else "-",
                ]
                for row in rows
            ],
        )
    )
    full = _row(rows, 1000, "full")
    off = _row(rows, 1000, "off")
    engine_baseline = _engine_baseline()
    off_regression_pct = None
    if engine_baseline is not None and off is not None:
        off_regression_pct = round(100.0 * (1.0 - off["trials_per_sec"] / engine_baseline), 1)
    if full is not None:
        print(
            f"\nheadline (n=1000, trials={TRIALS}, random start): "
            f"{full['overhead_pct']}% full metrics+spans+events overhead "
            "(target <= 25%)"
        )
    if off_regression_pct is not None:
        print(
            f"telemetry-off vs BENCH_engine batched baseline: "
            f"{off_regression_pct}% regression (target <= 5%; negative = faster)"
        )
    path = results_path("BENCH_telemetry.json")
    path.write_text(
        json.dumps(
            {
                "spec": SPEC.to_dict(),
                "repeats": REPEATS,
                "cells": rows,
                "headline_full_overhead_pct": full["overhead_pct"] if full else None,
                "engine_baseline_trials_per_sec": engine_baseline,
                "off_vs_engine_regression_pct": off_regression_pct,
            },
            indent=2,
        )
    )
    print(f"wrote {path}")


def test_telemetry_overhead(benchmark):
    rows = run_once(benchmark, run_benchmark)
    report(rows)
    full = _row(rows, 1000, "full")
    assert full is not None
    # Acceptance: full observability stays within 25% of telemetry-off.
    assert full["overhead_pct"] <= 25.0
    # Identical seeds => identical dynamics: instrumentation must never
    # change the computed outcome.
    for n in (300, 1000):
        off = _row(rows, n, "off")
        for variant in ("metrics", "spans", "full"):
            assert _row(rows, n, variant)["successes"] == off["successes"]
    # Span variants actually recorded spans (the seam was live).
    assert _row(rows, 1000, "spans")["spans_recorded"] > 0
    assert _row(rows, 1000, "off")["spans_recorded"] is None


if __name__ == "__main__":
    report(run_benchmark())
    sys.exit(0)
