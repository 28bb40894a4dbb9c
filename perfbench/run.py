"""Run one benchmark workload; print its metrics as the last stdout line.

    python3 perfbench/run.py --workload paper-auto --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``./src``
and nothing else. ``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` spends half the run untraced and half
traced and reports the per-layer metrics (trace overhead is the
difference between the halves). ``--heldout`` draws the workload's inputs
from a separate seed stream, kept for validating claims on inputs no
tuning run has seen.

The last line is ``{"correct", "attempted", "failed", "metrics"}``. The
full record — machine and run facts, every check, the layer breakdown —
is written to ``.perfbench-out/records/``; ``compare.py`` compares two
records and refuses when their facts differ.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("paper-auto", "counts-large-n", "service-mixed")
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="draw inputs from the held-out seed stream")
    return parser.parse_args(argv)


def _program_root() -> Path:
    """The checkout root, refusing to run without the program's source."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {root / 'src' / 'repro'}")
    sys.path.insert(0, str(root / "src"))
    os.environ["PYTHONPATH"] = str(root / "src")
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not ./src")
    return root


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup_s(root: Path, args) -> float:
    """Median wall time of a fresh interpreter importing the program and
    expanding and validating the workload's specs."""
    command = [sys.executable, str(root / "perfbench" / "setup_probe.py"),
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.heldout:
        command.append("--heldout")
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run(command, cwd=root, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def _sweep_workload(root: Path, args) -> dict:
    import layers
    import sweeps
    import workloads

    workload = workloads.SweepWorkload(args.workload, args.seed, args.heldout)
    grids, jobs, check = workload.grids, workload.jobs, workload.check
    setup_s = _setup_s(root, args) if not args.trace else None
    copies = workload.copies if not args.trace else 1
    if copies == 1:  # copies warm up in their own processes
        sweeps.warm_up(grids, jobs)
    if not args.trace:
        if copies > 1:
            run = sweeps.run_copies(args.workload, args.seed, args.heldout, args.seconds,
                                    copies)
        else:
            run = sweeps.run_passes(grids, jobs=jobs, seconds=args.seconds, check=check)
        metrics = sweeps.untraced_metrics(run)
        metrics.update(setup_s=setup_s, peak_rss_mb=_peak_rss_mb())
        runs = [run]
    else:
        base = sweeps.run_passes(grids, jobs=jobs, seconds=args.seconds / 2, check=check)
        layers.install(layers.AmbientSink())
        traced = sweeps.run_passes(grids, jobs=jobs, seconds=args.seconds / 2, check=check,
                                   traced=True)
        metrics = sweeps.traced_metrics(traced, sweeps.untraced_rate(base), jobs=jobs)
        metrics["_spans"] = traced["spans"]
        runs = [base, traced]
    checks = [c for run in runs for c in run["checks"]]
    cells = sum(p["cells"] for run in runs for p in run["passes"])
    failed_cells = sum(run["failed_cells"] for run in runs)
    return {
        "metrics": metrics,
        "attempted": cells + len(checks),
        "failed": failed_cells + sum(1 for c in checks if not c["ok"]),
        "failed_checks": [c for c in checks if not c["ok"]],
        "detail": {"passes": [run["passes"] for run in runs], "checks": len(checks)},
    }


def _service_workload(root: Path, args, out: Path) -> dict:
    import service_load

    result = service_load.run_service(root, out, seed=args.seed, heldout=args.heldout,
                                      seconds=args.seconds, trace=bool(args.trace))
    metrics = (service_load.per_layer(result) if args.trace
               else service_load.end_to_end(result))
    if args.trace:
        metrics["_spans"] = result["trace"]
    attempted, failed, failed_checks = service_load.outcome(result)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "detail": {"boots_s": result["boots_s"]},
    }


def _stop_children() -> None:
    """Kill and reap any child process still alive, so no helper the
    program or the benchmark started (a pool worker, a multiprocessing
    helper) outlives the run and serves a later one."""
    me = os.getpid()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) != me:
            continue
        pid = int(stat.parent.name)
        print(f"stopping leftover child process {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    root = _program_root()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    import facts

    out = root / ".perfbench-out"
    out.mkdir(exist_ok=True)
    if args.workload == "service-mixed":
        outcome = _service_workload(root, args, out)
    else:
        outcome = _sweep_workload(root, args)

    measured = outcome["metrics"]
    # A layer the workload never enters reads 0 (e.g. store times on a
    # store-less sweep); every end-to-end metric must be measured.
    missing = [] if args.trace else [m["name"] for m in declared if m["name"] not in measured]
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": float(value), "unit": metric["unit"]}
    line = {
        "correct": outcome["failed"] == 0 and not missing,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    record = {
        "machine": facts.machine_facts(),
        "run": facts.run_facts(root, workload=args.workload, seed=args.seed,
                               heldout=args.heldout, trace=args.trace, seconds=args.seconds),
        "result": line,
        "missing_metrics": missing,
        "failed_checks": outcome["failed_checks"],
        "breakdown": {k: v for k, v in measured.items() if k.startswith("_") and k != "_spans"},
        "detail": outcome["detail"],
    }
    records = out / "records"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (records / name).write_text(json.dumps(record, indent=2, default=str), encoding="utf-8")
    if "_spans" in measured:
        # The traced run's spans, kept in memory until now and written once.
        spans_path = records / name.replace(".json", ".spans.json")
        spans_path.write_text(json.dumps(measured["_spans"]), encoding="utf-8")
    for check in outcome["failed_checks"][:20]:
        print(f"FAILED CHECK {check['check']}: {check['detail']}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
