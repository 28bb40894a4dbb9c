"""The two sweep workloads: grids run through ``run_sweep`` in timed passes.

A *pass* runs every grid of the workload once; every pass repeats the
same cells, seeds included, so the spread between passes is the
machine's alone. Passes repeat until the run's seconds are spent (at
least ``MIN_PASSES``); every pass's outputs are checked against the
workload's verdicts. Only the ``run_sweep`` calls are timed.

A trial's latency is the execution time of the cell that computes it —
what a user waits for that trial's result — taken at the cell's median
over the passes, so the latency percentiles weigh each cell by its
trials.

The traced segment repeats the passes with a span tracer and a metrics
registry on each ``run_sweep`` call and with :class:`layers.TracedCell` as
the work function, then attributes the segment's wall time to layers.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import layers
import timeline
import workloads
from repro.sweep import FaultPolicy, run_sweep
from repro.telemetry import MetricsRegistry, SpanTracer

__all__ = ["run_copies", "run_passes", "traced_metrics", "untraced_metrics", "untraced_rate",
           "warm_up"]

#: Passes of a segment whatever its length.
MIN_PASSES = 2


def run_passes(grids, *, jobs, seconds, check, traced=False):
    """Run passes of ``grids`` (``(name, spec)`` pairs) for ``seconds``.

    Returns a dict of per-pass walls/trials/cells, each cell's times,
    checks, failed cells, and — when ``traced`` — the merged span records
    (absolute ``time.time()`` seconds) and each pass's counters.
    """
    policy = FaultPolicy(on_failure="record")
    passes: list[dict] = []
    cell_times: list[list[float]] = []  # per cell position, one time per pass
    cell_trials: list[int] = []
    checks: list[dict] = []
    failed_cells = 0
    spans: list[dict] = []
    counters: list[dict[str, float]] = []
    logs: list = []
    windows: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + 2 * seconds + 30
    while True:
        walls = {}
        trials = cells = 0
        position = 0
        results = {}
        start_wall = time.time()
        for name, spec in grids:
            tracer = SpanTracer() if traced else None
            registry = MetricsRegistry() if traced else None
            work_fn = layers.TracedCell() if traced else None
            began = time.perf_counter()
            result = run_sweep(
                spec, jobs=jobs, policy=policy, tracer=tracer, metrics=registry, work_fn=work_fn
            )
            walls[name] = time.perf_counter() - began
            results[name] = result
            for cell, res in zip(result.cells, result.results):
                if position == len(cell_times):
                    cell_times.append([])
                    cell_trials.append(cell.trials)
                cell_times[position].append(math.inf if res.failed else res.elapsed_s)
                position += 1
                cells += 1
                if res.failed:
                    failed_cells += 1
                else:
                    trials += cell.trials
            if traced:
                logs.append((result.spans, result.metrics))
        windows.append((start_wall, time.time()))
        # Converted outside the window, so it costs no attributed time.
        if traced:
            counters.append({})
        for log, snapshot in logs:
            spans.extend(_absolute(log, offset=len(spans)))
            _add_counters(counters[-1], snapshot)
        logs.clear()
        passes.append({"grid_wall_s": walls, "trials": trials, "cells": cells})
        if not failed_cells:
            checks.extend(check(results))
        now = time.perf_counter()
        if (now >= deadline and len(passes) >= MIN_PASSES) or now >= hard_stop:
            break
    return {
        "passes": passes,
        "cell_times": cell_times,
        "cell_trials": cell_trials,
        "checks": checks,
        "failed_cells": failed_cells,
        "spans": spans,
        "counters": counters,
        "windows": windows,
    }


def warm_up(grids, jobs) -> None:
    """One tiny pass so lazy imports and first-call costs are paid untimed."""
    for _, spec in grids:
        run_sweep(replace(spec, trials=1), jobs=jobs)


def _copy_main(argv: list[str]) -> int:
    """One copy's passes, written as JSON to the file named last."""
    name, seed, heldout, seconds, path = argv
    workload = workloads.SweepWorkload(name, int(seed), heldout == "1")
    warm_up(workload.grids, workload.jobs)
    run = run_passes(workload.grids, jobs=workload.jobs, seconds=float(seconds),
                     check=workload.check)
    Path(path).write_text(json.dumps(run), encoding="utf-8")
    return 0


def run_copies(name: str, seed: int, heldout: bool, seconds: float, copies: int) -> dict:
    """Run ``copies`` concurrent copies of a workload's passes, each in a
    fresh interpreter, and pool them as if they were one run's passes.

    The copies are plain subprocesses (a multiprocessing pool leaves a
    helper process behind); each is waited for on every path out, so
    none outlives the run.
    """
    out = Path.cwd() / ".perfbench-out"
    out.mkdir(exist_ok=True)
    paths = [out / f"copy-{os.getpid()}-{index}.json" for index in range(copies)]
    command = [sys.executable, str(Path(__file__).resolve()),
               name, str(seed), "1" if heldout else "0", repr(float(seconds))]
    procs: list[subprocess.Popen] = []
    try:
        for path in paths:
            procs.append(subprocess.Popen(command + [str(path)], stdout=subprocess.DEVNULL))
        for proc in procs:
            code = proc.wait(timeout=2 * seconds + 120)
            if code != 0:
                raise RuntimeError(f"a copy of {name} exited with code {code}")
        runs = [json.loads(path.read_text(encoding="utf-8")) for path in paths]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for path in paths:
            path.unlink(missing_ok=True)
    pooled = dict(runs[0], passes=[], checks=[], failed_cells=0)
    pooled["cell_times"] = [[] for _ in runs[0]["cell_times"]]
    for run in runs:
        pooled["passes"] += run["passes"]
        pooled["checks"] += run["checks"]
        pooled["failed_cells"] += run["failed_cells"]
        for times, more in zip(pooled["cell_times"], run["cell_times"]):
            times.extend(more)
    return pooled


def _absolute(log, offset: int) -> list[dict]:
    """Span log records on absolute wall-clock seconds, their parent
    indices shifted by ``offset``, and grafted cells re-parented under
    their sweep's ``dispatch`` span (the orchestrator grafts them under
    ``sweep``, beside the dispatch span that ran them)."""
    records = []
    dispatch_of: dict[int, int] = {}
    for index, record in enumerate(log.records):
        if record["name"] == "dispatch":
            dispatch_of[record["parent"]] = index
    for record in log.records:
        duration = record["duration"] or 0.0
        start = log.epoch_wall + record["start"]
        parent = record["parent"]
        if record["name"] == "cell" and parent in dispatch_of:
            parent = dispatch_of[parent]
        records.append({
            "name": record["name"],
            "labels": record.get("labels", {}),
            "start": start,
            "end": start + duration,
            "parent": parent + offset if parent >= 0 else -1,
        })
    return records


def _add_counters(total: dict, snapshot) -> None:
    if snapshot is None:
        return
    for family in snapshot.to_dict()["metrics"]:
        if family["kind"] != "counter":
            continue
        for sample in family["series"]:
            labels = sample.get("labels") or {}
            key = family["name"] + "".join(f"|{k}={v}" for k, v in sorted(labels.items()))
            total[key] = total.get(key, 0.0) + float(sample["value"])


def typical_pass_s(run: dict) -> float:
    """A pass's ``run_sweep`` time, each grid taken at its median over the
    passes (robust to a burst of interference slowing one pass)."""
    passes = run["passes"]
    return sum(
        statistics.median(p["grid_wall_s"][name] for p in passes) for name in passes[0]["grid_wall_s"]
    )


def untraced_rate(run: dict) -> float:
    """Trials per second of ``run_sweep`` time in a typical pass."""
    return statistics.fmean(p["trials"] for p in run["passes"]) / typical_pass_s(run)


def trial_latencies(run: dict) -> list[float]:
    """One sample per trial: its cell's median execution time."""
    return [
        statistics.median(times)
        for times, trials in zip(run["cell_times"], run["cell_trials"])
        for _ in range(trials)
    ]


def untraced_metrics(run: dict) -> dict:
    passes = run["passes"]
    lat = trial_latencies(run)
    return {
        "trials_per_s": untraced_rate(run),
        "requests_per_s": statistics.fmean(p["cells"] for p in passes) / typical_pass_s(run),
        "p50_ms": 1000 * timeline.percentile(lat, 50),
        "p90_ms": 1000 * timeline.percentile(lat, 90),
    }


def traced_metrics(run: dict, untraced_trials_per_s: float, *, jobs: int) -> dict:
    """Per-layer metrics of a traced segment: times per pass (averaged
    over its passes), counts of its first pass (exact for a given seed)."""
    passes = len(run["passes"])
    records = run["spans"]
    windows = run["windows"]
    shares, unattributed = timeline.attribute(records, (windows[0][0], windows[-1][1]))
    # Between passes the benchmark checks outputs; no span runs there.
    unattributed -= sum(nxt[0] - prev[1] for prev, nxt in zip(windows, windows[1:]))
    window_total = sum(hi - lo for lo, hi in windows)
    share_by_layer = timeline.layer_totals(records, shares, layers.layer_of)
    raw = timeline.self_times(records)
    raw_by_layer = timeline.layer_totals(records, raw, layers.layer_of)

    counters = run["counters"][0]

    def counter(name: str) -> float:
        return sum(v for k, v in counters.items() if k.split("|")[0] == name)

    def tier(name: str) -> float:
        return counters.get(f"repro_sampler_tier_rows_total|tier={name}", 0.0)

    draws = counter("perfbench_sampling_draws_total")
    first = [i for i, r in enumerate(records) if r["start"] < windows[0][1]]
    raw_first = timeline.layer_totals(
        [records[i] for i in first], [raw[i] for i in first], layers.layer_of
    )
    dispatch_wall = sum(r["end"] - r["start"] for r in records if r["name"] == "dispatch")
    cell_busy = sum(r["end"] - r["start"] for r in records if r["name"] == "cell")
    pool_start = _pool_start(records)
    per_pass = 1.0 / passes
    return {
        "sampling.self_s": share_by_layer.get("sampling", 0.0) * per_pass,
        "sampling.ns_per_draw": 1e9 * raw_first.get("sampling", 0.0) / draws if draws else 0.0,
        "sampling.draws": draws,
        "sampling.rows_consensus": tier("consensus"),
        "sampling.rows_sparse": tier("sparse"),
        "sampling.rows_grouped": tier("grouped"),
        "sampling.rows_histogram": tier("histogram"),
        "protocol.step_batch_self_s": share_by_layer.get("protocol.step_batch", 0.0) * per_pass,
        "protocol.step_counts_self_s": share_by_layer.get("protocol.step_counts", 0.0) * per_pass,
        "engine.batched_self_s": share_by_layer.get("engine.batched", 0.0) * per_pass,
        "engine.counts_self_s": share_by_layer.get("engine.counts", 0.0) * per_pass,
        "engine.batched_replica_rounds": counter("perfbench_engine_batched_replica_rounds_total"),
        "engine.counts_replica_rounds": counter("perfbench_engine_counts_replica_rounds_total"),
        "harness.prepare_s": share_by_layer.get("harness", 0.0) * per_pass,
        "dispatch.pool_start_s": pool_start * per_pass,
        "dispatch.worker_busy_frac": cell_busy / (jobs * dispatch_wall) if dispatch_wall else 0.0,
        "sweep.orchestrator_self_s": share_by_layer.get("sweep.orchestrator", 0.0) * per_pass,
        "sweep.cell_self_s": share_by_layer.get("sweep.cell", 0.0) * per_pass,
        "unattributed_frac": unattributed / window_total if window_total else 0.0,
        "trace.overhead_frac": untraced_trials_per_s / untraced_rate(run) - 1.0,
        "_layer_share_s": {k: v * per_pass for k, v in sorted(share_by_layer.items())},
        "_layer_raw_self_s": {k: v * per_pass for k, v in sorted(raw_by_layer.items())},
    }


def _pool_start(records: list[dict]) -> float:
    """Σ over dispatch spans of (first cell start − dispatch start)."""
    first: dict[int, float] = {}
    for record in records:
        if record["name"] == "cell" and record["parent"] >= 0:
            parent = record["parent"]
            first[parent] = min(first.get(parent, math.inf), record["start"])
    return sum(
        max(0.0, first[i] - records[i]["start"])
        for i in first
        if records[i]["name"] == "dispatch"
    )


if __name__ == "__main__":
    # One copy of run_copies: WORKLOAD SEED HELDOUT(0|1) SECONDS OUT_JSON
    sys.exit(_copy_main(sys.argv[1:]))
