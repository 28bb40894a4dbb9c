"""E-counts — sufficient-statistic engine scaling against batched.

Not a paper artifact: like ``bench_engine_throughput``, this tracks the
simulation machinery. The counts engine steps ``(R, S)`` state-count matrices
with multinomial draws, so one round costs O(trials x num_states) regardless
of ``n`` — the regime the paper's asymptotic claims actually live in. This
benchmark measures that promise end to end on the FET dissemination workload
(all-wrong start, ``ell = ell_for(n)``):

* **counts vs batched wall-clock** on the overlap grid (n up to 1e5, where
  the per-agent batched engine is still affordable) — the headline speedup;
* **counts-only scaling** on the full grid up to n = 1e7, where per-agent
  engines stop being an option at all;
* **state memory** per cell: the whole engine state — FET's ``trials x 2``
  opinion counts plus its ``trials x (ell+1)`` carried counter law — grows
  only with ``ell = Theta(log n)``: kilobytes at ten million agents, vs
  gigabytes for per-agent opinion/counter arrays.

Emits ``results/BENCH_counts.json`` with the machine facts. The gate asserts
a >= 10x counts-over-batched speedup at every n >= 1e5 overlap cell (measured
orders of magnitude higher; the floor leaves CI headroom), that the n = 1e7
cell still converges every trial, and that its whole engine state stays
within a few hundred KiB (measured 66 KiB — five orders of magnitude under
the per-agent state).

Run directly (``PYTHONPATH=src python benchmarks/bench_counts_scaling.py``)
or through pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np

from bench_common import banner, results_path, run_once
from repro.config import RunSpec
from repro.experiments.harness import TrialStats, make_lockstep_engines
from repro.protocols.fet import ell_for
from repro.viz.tables import format_table

TRIALS = 64
MAX_ROUNDS = 2000
SEED = 20260808
#: full counts grid; the batched engine only runs where a per-agent batch of
#: TRIALS x n agents is still reasonable to allocate and step
NS = [10**3, 10**4, 10**5, 10**6, 10**7]
BATCHED_MAX_N = 10**5
#: timing repetitions per cell; min-of-k filters scheduler noise and warm-up
REPEATS = 3


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _spec(n: int, engine: str) -> RunSpec:
    return RunSpec(
        protocol={"name": "fet"},
        n=n,
        trials=TRIALS,
        max_rounds=MAX_ROUNDS,
        seed=SEED,
        engine=engine,
    )


def _time(spec: RunSpec) -> tuple[float, TrialStats]:
    seconds = float("inf")
    stats = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        stats = spec.execute()
        seconds = min(seconds, time.perf_counter() - start)
    return seconds, stats


def counts_state_bytes(spec: RunSpec) -> tuple[int, int]:
    """Count states per replica, and the bytes of the counts engine's whole
    replica state: the count matrix plus the carried protocol state."""
    (engine,) = make_lockstep_engines(spec, "counts")
    carried = sum(value.nbytes for value in engine.states.values())
    return engine.population.num_states, engine.population.counts.nbytes + carried


def run_cell(n: int) -> dict:
    ell = ell_for(n)
    states, state_bytes = counts_state_bytes(_spec(n, "counts"))
    counts_sec, counts_stats = _time(_spec(n, "counts"))
    row = {
        "n": n,
        "ell": ell,
        "num_states": states,
        "trials": TRIALS,
        "counts_successes": counts_stats.successes,
        "counts_mean_rounds": round(float(counts_stats.times.mean()), 2),
        "counts_seconds": round(counts_sec, 4),
        # the engine's whole per-replica state: counts plus carried law
        "counts_state_bytes": state_bytes,
        # what a per-agent engine must hold: opinions + prev counters
        "per_agent_state_bytes": TRIALS * n * 2 * 8,
    }
    if n <= BATCHED_MAX_N:
        batched_sec, batched_stats = _time(_spec(n, "batched"))
        row["batched_successes"] = batched_stats.successes
        row["batched_mean_rounds"] = round(float(batched_stats.times.mean()), 2)
        row["batched_seconds"] = round(batched_sec, 4)
        row["speedup"] = round(batched_sec / counts_sec, 1)
    return row


def run_benchmark() -> dict:
    return {
        "machine": machine_facts(),
        "cells": [run_cell(n) for n in NS],
    }


def report(payload: dict) -> None:
    rows = payload["cells"]
    print(banner("Counts engine scaling — FET all-wrong, counts vs batched"))
    table = [
        [
            row["n"],
            row["ell"],
            row["num_states"],
            f"{row['counts_successes']}/{row['trials']}",
            row["counts_seconds"],
            row.get("batched_seconds", "-"),
            row.get("speedup", "-"),
            row["counts_state_bytes"],
            row["per_agent_state_bytes"],
        ]
        for row in rows
    ]
    print(
        format_table(
            ["n", "ell", "S", "success", "counts sec", "batched sec",
             "speedup", "counts bytes", "per-agent bytes"],
            table,
        )
    )
    overlap = [row for row in rows if "speedup" in row]
    if overlap:
        top = overlap[-1]
        print(
            f"\nheadline (n={top['n']}): {top['speedup']}x over batched; "
            f"state memory {rows[-1]['counts_state_bytes'] / 1024:.1f} KiB "
            f"at n={rows[-1]['n']:.0e}"
        )
    path = results_path("BENCH_counts.json")
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path}")


def test_counts_scaling(benchmark):
    payload = run_once(benchmark, run_benchmark)
    report(payload)
    rows = {row["n"]: row for row in payload["cells"]}
    # Every cell converges every trial, per-agent engines present or not.
    for row in rows.values():
        assert row["counts_successes"] == row["trials"], row
    # Acceptance: >= 10x over the batched engine from n = 1e5 on (measured
    # far higher; the loose floor keeps slower CI machines green while still
    # catching any regression that erases the sufficient-statistic payoff).
    for row in rows.values():
        if "speedup" in row and row["n"] >= 10**5:
            assert row["speedup"] >= 10.0, row
    # Memory is O(S + ell) = O(log n), never O(n): the ten-million-agent
    # cell's whole engine state (counts plus carried law) fits in a few
    # hundred kilobytes.
    assert rows[10**7]["counts_state_bytes"] <= 256 * 1024
    assert (
        rows[10**7]["counts_state_bytes"]
        < rows[10**7]["per_agent_state_bytes"] / 10**4
    )


if __name__ == "__main__":
    report(run_benchmark())
    sys.exit(0)
