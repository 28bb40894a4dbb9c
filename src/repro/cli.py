"""Command-line interface: ``python -m repro <command>``.

Small, dependency-free front door for the library's main entry points:

* ``demo``   — one FET run with a trajectory chart.
* ``map``    — the Figure 1a domain map for a given n.
* ``scale``  — a quick Theorem-1 scaling sweep with exponent fit.
* ``compare``— FET vs. the baseline protocols from the all-wrong start.
* ``sweep``  — a declarative experiment grid (JSON spec or the built-in FET
  demo grid) run through the parallel, resumable sweep orchestrator, with
  optional live progress (``--progress``) and metrics export
  (``--metrics-out``).
* ``metrics``— run a grid with telemetry on and dump the aggregated
  counters in Prometheus text exposition format.
* ``trace``  — record per-replica trajectories of a batched run (full,
  strided, or ring-buffered), chart the reduced curve, and export CSV.
* ``timeline`` — render a per-worker timeline (ASCII or JSON lanes) from
  a Chrome trace JSON written by ``sweep --trace-out``.
* ``serve-metrics`` — stdlib HTTP observability endpoint serving
  ``/metrics`` (Prometheus exposition), ``/healthz`` and ``/progress``;
  ``sweep --metrics-port`` exposes the same surface on a *live* run.
* ``serve`` — the run service: an HTTP job queue accepting RunSpec/
  SweepSpec JSON with spec-hash dedup against the results store, a
  background worker pool, and live SSE progress streaming.
* ``submit`` — client for ``serve``: submit a spec file, optionally
  follow it live (``--follow``) and save the result CSV (``--out``).

Each command accepts ``--seed`` and prints plain text; exit code 0 on
success. The heavy, assertion-carrying versions of these experiments live in
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .analysis.domains import DomainPartition
from .config import ENGINES, RunSpec
from .core.engine import SynchronousEngine
from .core.population import make_population
from .core.rng import make_rng
from .experiments.convergence import default_round_budget, fit_scaling, sweep_population_sizes
from .experiments.harness import make_lockstep_engines
from .initializers.standard import AllWrong
from .protocols.fet import FETProtocol, ell_for
from .sweep import (
    FaultPolicy,
    ResultsStore,
    component_catalog,
    fet_demo_spec,
    initializer_names,
    load_spec,
    measure_kinds,
    protocol_names,
    run_sweep,
)
from .telemetry import (
    EventLog,
    MetricsRegistry,
    MetricsSnapshot,
    ObservabilityServer,
    SpanTracer,
    catalog,
    render_prometheus,
    render_timeline,
    timeline_lanes,
    write_chrome_trace,
    write_events_jsonl,
)
from .trace import make_recorder, settle_rounds
from .viz.ascii_grid import render_batch_trace, render_domain_map, render_trajectory
from .viz.csv_out import write_trace_csv
from .viz.tables import format_table

__all__ = ["main", "build_parser"]


def _jobs(value: str) -> int:
    """Worker-count argument: positive counts pass through, ``0`` means "use
    every core", and negatives fail at parse time instead of reaching the
    dispatcher (which would silently build a broken pool)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--jobs must be an integer, got {value!r}")
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"--jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Korman & Vacus (PODC 2022): FET under passive communication.",
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run FET once from the all-wrong start")
    demo.add_argument("-n", type=int, default=5000, help="population size (default 5000)")

    map_cmd = sub.add_parser("map", help="print the Figure 1a domain map")
    map_cmd.add_argument("-n", type=int, default=1000, help="population size (default 1000)")
    map_cmd.add_argument("--delta", type=float, default=0.05, help="partition delta (default 0.05)")
    map_cmd.add_argument("--resolution", type=int, default=61, help="grid columns (default 61)")

    scale = sub.add_parser("scale", help="quick Theorem-1 scaling sweep")
    scale.add_argument("--trials", type=int, default=8, help="trials per size (default 8)")
    scale.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes (default 1; 0 means one per CPU core)",
    )

    sweep_cmd = sub.add_parser(
        "sweep", help="run a declarative experiment grid (parallel, resumable)"
    )
    sweep_cmd.add_argument(
        "--spec",
        type=str,
        default=None,
        help="path to a sweep spec JSON file (default: the built-in FET demo grid)",
    )
    sweep_cmd.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes (default 1; 0 means one per CPU core)",
    )
    sweep_cmd.add_argument(
        "--store",
        type=str,
        default=None,
        help="JSON-lines results store: completed cells are skipped, interrupted runs resume",
    )
    sweep_cmd.add_argument("--out", type=str, default=None, help="write the aggregate CSV here")
    sweep_cmd.add_argument(
        "--force", action="store_true", help="recompute cells even when the store has them"
    )
    sweep_cmd.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retries per cell after a worker exception, crash, or timeout (default 0)",
    )
    sweep_cmd.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; hung cells are abandoned and retried "
        "(with --jobs >= 2 the watchdog kills worker processes; serial runs "
        "abandon the hung thread and move on)",
    )
    sweep_cmd.add_argument(
        "--keep-going",
        action="store_true",
        help="record cells that exhaust their retries as failure records and "
        "finish the grid instead of aborting (exit code 1 if any cell failed)",
    )
    sweep_cmd.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-run cells the store remembers as failures (successes stay cached)",
    )
    sweep_cmd.add_argument(
        "--compact",
        action="store_true",
        help="rewrite the --store file keeping only the latest record per key, then exit",
    )
    sweep_cmd.add_argument(
        "--durable",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="fsync the --store file after every appended cell so records "
        "survive machine crashes, not just process kills; costs one disk "
        "barrier (~1-10 ms) per cell (default on; --no-durable for "
        "throwaway stores)",
    )
    sweep_cmd.add_argument(
        "--progress",
        action="store_true",
        help="live progress line on stderr: cells done/total, failures, "
        "retries, throughput, ETA",
    )
    sweep_cmd.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the run's aggregated telemetry here in Prometheus text "
        "exposition format, plus a .json sibling with the raw snapshot "
        "(give a .json path to swap which gets the sibling suffix)",
    )
    sweep_cmd.add_argument(
        "--events-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the run's structured event log here as JSON lines "
        "(retries, backoff, crashes, watchdog expiries, cache hits, store appends)",
    )
    sweep_cmd.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the run's merged span timeline here as Chrome trace-event "
        "JSON (load in Perfetto / chrome://tracing, or render with 'repro timeline')",
    )
    sweep_cmd.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /progress over HTTP for the "
        "duration of the run so it can be scraped live (0 picks a free port)",
    )
    sweep_cmd.add_argument(
        "--list",
        action="store_true",
        dest="list_components",
        help="print the registered protocol/initializer/sampler components and exit",
    )

    metrics_cmd = sub.add_parser(
        "metrics",
        help="run a sweep with telemetry on and print Prometheus exposition",
    )
    metrics_cmd.add_argument(
        "--spec",
        type=str,
        default=None,
        help="path to a sweep spec JSON file (default: the built-in FET demo grid)",
    )
    metrics_cmd.add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes (default 1; 0 means one per CPU core)",
    )
    metrics_cmd.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the exposition here instead of stdout (a .json sibling "
        "with the raw snapshot rides along)",
    )
    metrics_cmd.add_argument(
        "--progress",
        action="store_true",
        help="live progress line on stderr while the grid runs "
        "(same rendering as 'sweep --progress')",
    )

    trace_cmd = sub.add_parser(
        "trace", help="record batched trajectories: chart the reduced curve, export CSV"
    )
    trace_cmd.add_argument("-n", type=int, default=1000, help="population size (default 1000)")
    trace_cmd.add_argument(
        "--protocol",
        type=str,
        default="fet",
        help=f"protocol name (default fet; known: {', '.join(protocol_names())})",
    )
    trace_cmd.add_argument(
        "--init",
        type=str,
        default="all-wrong",
        help=f"initializer name (default all-wrong; known: {', '.join(initializer_names())})",
    )
    trace_cmd.add_argument(
        "--replicas", type=int, default=8, help="independent trials to record (default 8)"
    )
    trace_cmd.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="round budget (default: the poly-log rule max(200, 40*(ln n)^2.5))",
    )
    trace_cmd.add_argument(
        "--stride", type=int, default=1, help="record every S-th round (default 1)"
    )
    trace_cmd.add_argument(
        "--ring",
        type=int,
        default=None,
        help="keep only the most recent CAP recorded rounds (default: keep all)",
    )
    trace_cmd.add_argument(
        "--flips", action="store_true", help="also record per-replica opinion flips"
    )
    trace_cmd.add_argument(
        "--noise", type=float, default=0.0, help="per-bit observation noise epsilon (default 0)"
    )
    trace_cmd.add_argument(
        "--reducer",
        choices=["mean", "median", "min", "max"],
        default="mean",
        help="cross-replica statistic for the chart (default mean)",
    )
    trace_cmd.add_argument("--out", type=str, default=None, help="write the long-form trace CSV here")

    timeline_cmd = sub.add_parser(
        "timeline", help="render a per-worker timeline from a sweep's Chrome trace JSON"
    )
    timeline_cmd.add_argument(
        "trace", type=str, help="trace JSON written by 'repro sweep --trace-out'"
    )
    timeline_cmd.add_argument(
        "--width", type=int, default=100, help="chart width in columns (default 100)"
    )
    timeline_cmd.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the lane structure as JSON instead of the ASCII chart",
    )

    serve_cmd = sub.add_parser(
        "serve-metrics",
        help="serve /metrics, /healthz and /progress over HTTP (stdlib, dependency-free)",
    )
    serve_cmd.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=9464, help="port to bind (default 9464; 0 picks a free port)"
    )
    serve_cmd.add_argument(
        "--snapshot",
        type=str,
        default=None,
        metavar="FILE",
        help="serve a recorded metrics snapshot (the .json written by "
        "--metrics-out / 'repro metrics --out') instead of an empty registry",
    )
    serve_cmd.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long and exit 0 (default: serve until interrupted)",
    )

    service_cmd = sub.add_parser(
        "serve",
        help="run the HTTP run service: job queue, spec-hash dedup, workers, SSE streaming",
    )
    service_cmd.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    service_cmd.add_argument(
        "--port", type=int, default=9470, help="port to bind (default 9470; 0 picks a free port)"
    )
    service_cmd.add_argument(
        "--store",
        type=str,
        required=True,
        metavar="FILE",
        help="results store JSONL path (the dedup source of truth; created if missing)",
    )
    service_cmd.add_argument(
        "--queue",
        type=str,
        default=None,
        metavar="FILE",
        help="job-queue journal path (default: <store>.queue.jsonl)",
    )
    service_cmd.add_argument(
        "--workers", type=int, default=1, help="concurrent job worker threads (default 1)"
    )
    service_cmd.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker processes per executing sweep (default 1; 0 = all cores)",
    )
    service_cmd.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per cell before it becomes a failure record (default 2)",
    )
    service_cmd.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget (default: none)",
    )
    service_cmd.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long and exit 0 (default: serve until interrupted)",
    )

    submit_cmd = sub.add_parser(
        "submit", help="submit a RunSpec/SweepSpec JSON to a running 'repro serve'"
    )
    submit_cmd.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:9470",
        help="service base URL (default http://127.0.0.1:9470)",
    )
    spec_source = submit_cmd.add_mutually_exclusive_group(required=True)
    spec_source.add_argument(
        "--spec", type=str, metavar="FILE", help="SweepSpec JSON file to submit"
    )
    spec_source.add_argument(
        "--run", type=str, metavar="FILE", help="single RunSpec JSON file to submit"
    )
    submit_cmd.add_argument(
        "--follow",
        action="store_true",
        help="stream live progress over SSE until the job terminates",
    )
    submit_cmd.add_argument(
        "--wait",
        action="store_true",
        help="block until the job terminates (quiet alternative to --follow)",
    )
    submit_cmd.add_argument(
        "--out",
        type=str,
        default=None,
        metavar="FILE",
        help="write the result CSV here once the job is done (implies --wait)",
    )
    submit_cmd.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="wait/follow budget in seconds (default 600)",
    )

    compare = sub.add_parser("compare", help="FET vs baselines from the all-wrong start")
    compare.add_argument("-n", type=int, default=1000, help="population size (default 1000)")
    compare.add_argument("--trials", type=int, default=5, help="trials per protocol (default 5)")
    compare.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help=(
            "trial execution engine (default auto: counts for count-capable "
            "protocols at every n, else batched; counts runs the "
            "sufficient-statistic engine and skips protocols without a "
            "count model)"
        ),
    )

    return parser


def _cmd_demo(args: argparse.Namespace) -> int:
    n = args.n
    rng = make_rng(args.seed)
    protocol = FETProtocol(ell_for(n))
    population = make_population(n, correct_opinion=1)
    engine = SynchronousEngine(protocol, population, rng=rng, initializer=AllWrong())
    result = engine.run(20_000)
    print(f"FET: n={n}, ell={protocol.ell}, all-wrong start")
    print(f"converged={result.converged} in {result.rounds} rounds "
          f"(ln^2.5 n = {math.log(n) ** 2.5:.0f})")
    print(render_trajectory(result.trajectory))
    return 0 if result.converged else 1


def _cmd_map(args: argparse.Namespace) -> int:
    partition = DomainPartition(n=args.n, delta=args.delta)
    print(render_domain_map(partition, resolution=args.resolution))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    ns = [128, 256, 512, 1024, 2048, 4096]
    rows = sweep_population_sizes(ns, trials=args.trials, seed=args.seed, jobs=args.jobs)
    table = []
    for row in rows:
        summary = row.stats.time_summary()
        table.append([row.n, row.ell, row.stats.row()["success"], summary.median, summary.p95])
    print(format_table(["n", "ell", "success", "median T", "p95 T"], table))
    fit = fit_scaling(rows)
    print(f"\nfit T(n) = a*(ln n)^b: a={fit.a:.3f}, b={fit.b:.3f}, R^2={fit.r_squared:.3f}")
    print("paper upper bound: b <= 2.5")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    n = args.n
    ell = ell_for(n)
    budget = max(200, int(3 * math.log(n) ** 2.5))
    lineup = [
        ("FET", {"name": "fet", "ell": ell}),
        ("voter", {"name": "voter"}),
        ("sample-majority", {"name": "sample-majority", "ell": ell}),
        ("oracle-clock", {"name": "oracle-clock", "ell": 1}),
    ]
    table = []
    for index, (label, component) in enumerate(lineup):
        spec = RunSpec(
            protocol=component,
            n=n,
            trials=args.trials,
            max_rounds=budget,
            seed=args.seed + index,
            engine=args.engine,
        )
        protocol = spec.build_protocol()
        if args.engine == "counts" and not protocol.counts_supported:
            table.append([label, "no count model", "-"])
            continue
        stats = spec.execute(protocol=protocol)
        summary = stats.time_summary()
        table.append([
            label,
            stats.row()["success"],
            "-" if summary.count == 0 else f"{summary.median:.0f}",
        ])
    print(f"n={n}, all-wrong start, poly-log budget {budget} rounds")
    print(format_table(["protocol", "converged", "median T"], table))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    budget = args.max_rounds if args.max_rounds is not None else default_round_budget(args.n)
    spec = RunSpec(
        protocol={"name": args.protocol},
        n=args.n,
        noise=args.noise,
        initializer={"name": args.init},
        trials=args.replicas,
        max_rounds=budget,
        seed=args.seed,
    )
    recorder = make_recorder(ring=args.ring, stride=args.stride, record_flips=args.flips)
    (engine,) = make_lockstep_engines(spec, "batched")
    result = engine.run(budget, recorder=recorder)
    trace = recorder.trace()
    settled = settle_rounds(trace.x, trace.rounds)
    print(
        f"{engine.protocol.name}: n={args.n}, {args.init} start, {args.replicas} replica(s), "
        f"budget {budget} rounds"
        + (f", noise eps={args.noise}" if args.noise else "")
    )
    table = [
        [
            r,
            bool(result.converged[r]),
            int(result.rounds[r]),
            f"{trace.x[r, -1]:.3f}",
            int(settled[r]),
        ]
        for r in range(trace.replicas)
    ]
    print(format_table(["replica", "converged", "t_con", "final x", "settled at"], table))
    print()
    print(render_batch_trace(trace, reducer=args.reducer))
    if args.out:
        path = write_trace_csv(args.out, trace)
        print(f"wrote {path}")
    return 0 if result.converged.all() else 1


def _cmd_sweep_list() -> int:
    """Print the component catalog straight from the registries."""
    catalog = component_catalog()
    for kind in ("protocol", "initializer", "sampler", "population"):
        rows = [
            [name, ", ".join(params) if params else "-"]
            for name, params in catalog[kind].items()
        ]
        print(f"{kind}s:")
        print(format_table(["name", "accepted params"], rows))
        print()
    print(f"measures: {', '.join(measure_kinds())}")
    return 0


def _cmd_sweep_compact(store_path: str | None) -> int:
    if not store_path:
        print("error: --compact needs --store pointing at the JSONL file to rewrite",
              file=sys.stderr)
        return 2
    store = ResultsStore(store_path)
    summary = store.compact()
    dropped = summary["lines_before"] - summary["records"]
    print(
        f"compacted {store_path}: kept {summary['records']} record(s), "
        f"dropped {dropped} superseded line(s), "
        f"{summary['corrupt_lines']} corrupt line(s) and "
        f"{summary['checksum_failures']} checksum failure(s)"
    )
    return 0


def _write_metrics(snapshot, out_path: str) -> tuple[Path, Path]:
    """Write a metrics snapshot as Prometheus exposition + raw-JSON sibling.

    The given path names the exposition file and the ``.json`` sibling gets
    the snapshot — unless the path itself ends in ``.json``, in which case
    the roles swap and the sibling is the ``.prom`` file.
    """
    path = Path(out_path)
    if path.suffix == ".json":
        json_path, prom_path = path, path.with_suffix(".prom")
    else:
        prom_path, json_path = path, path.with_suffix(".json")
    prom_path.parent.mkdir(parents=True, exist_ok=True)
    prom_path.write_text(render_prometheus(snapshot))
    json_path.write_text(json.dumps(snapshot.to_dict(), indent=2, sort_keys=True) + "\n")
    return prom_path, json_path


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list_components:
        return _cmd_sweep_list()
    if args.compact:
        return _cmd_sweep_compact(args.store)
    if args.max_retries < 0:
        print(f"error: --max-retries must be >= 0, got {args.max_retries}", file=sys.stderr)
        return 2
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        print(f"error: --cell-timeout must be positive, got {args.cell_timeout}", file=sys.stderr)
        return 2
    policy = FaultPolicy(
        max_retries=args.max_retries,
        timeout=args.cell_timeout,
        on_failure="record" if args.keep_going else "raise",
    )
    spec = load_spec(args.spec) if args.spec else fet_demo_spec(args.seed)
    registry = MetricsRegistry() if args.metrics_out else None
    tracer = SpanTracer() if args.trace_out else None
    events = EventLog() if args.events_out else None
    server = None
    if args.metrics_port is not None:
        if args.metrics_port < 0:
            print(f"error: --metrics-port must be >= 0, got {args.metrics_port}",
                  file=sys.stderr)
            return 2
        # Started here (not by the orchestrator) so the bound port prints
        # before any cell executes — a scraper can attach from round one.
        server = ObservabilityServer(port=args.metrics_port)
        port = server.start()
        print(f"serving observability on http://127.0.0.1:{port} "
              "(/metrics /healthz /progress)", flush=True)
    try:
        result = run_sweep(
            spec,
            jobs=args.jobs,
            store=args.store,
            force=args.force,
            policy=policy,
            retry_failed=args.retry_failed,
            durable=args.durable,
            metrics=registry,
            progress=args.progress,
            tracer=tracer,
            events=events,
            serve=server,
        )
    finally:
        if server is not None:
            server.stop()
    print(f"sweep {spec.name!r}: {len(result.cells)} cells, jobs={args.jobs}")
    print(result.table())
    summary = f"\nexecuted {result.executed} cell(s), {result.cached} served from store"
    if args.store:
        summary += f" ({args.store})"
    if result.failed:
        summary += f"; {result.failed} cell(s) failed (see the error column)"
    print(summary)
    if args.out:
        path = result.write_csv(args.out)
        print(f"wrote {path}")
    if args.metrics_out and result.metrics is not None:
        prom_path, json_path = _write_metrics(result.metrics, args.metrics_out)
        print(f"wrote {prom_path} and {json_path}")
    if args.events_out:
        path = write_events_jsonl(args.events_out, result.events or [])
        print(f"wrote {path} ({len(result.events or [])} event(s))")
    if args.trace_out:
        path = write_chrome_trace(args.trace_out, result.spans, result.events or [])
        print(f"wrote {path} (load in Perfetto, or run: repro timeline {path})")
    return 1 if result.failed else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec) if args.spec else fet_demo_spec(args.seed)
    registry = MetricsRegistry()
    result = run_sweep(spec, jobs=args.jobs, metrics=registry, progress=args.progress)
    assert result.metrics is not None
    if args.out:
        prom_path, json_path = _write_metrics(result.metrics, args.out)
        print(f"wrote {prom_path} and {json_path}")
    else:
        sys.stdout.write(render_prometheus(result.metrics))
    return 1 if result.failed else 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    try:
        trace = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        print(
            f"error: {args.trace!r} is not a Chrome trace JSON "
            "(expected a top-level 'traceEvents' list; "
            "write one with 'repro sweep --trace-out')",
            file=sys.stderr,
        )
        return 2
    if args.as_json:
        print(json.dumps(timeline_lanes(trace), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_timeline(trace, width=args.width))
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    registry = MetricsRegistry()
    if args.snapshot:
        try:
            payload = json.loads(Path(args.snapshot).read_text(encoding="utf-8"))
            registry.merge_snapshot(MetricsSnapshot.from_dict(payload))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: cannot load snapshot {args.snapshot!r}: {exc}", file=sys.stderr)
            return 2
    started = time.monotonic()
    uptime = catalog.PROCESS_UPTIME.on(registry)
    server = ObservabilityServer(
        host=args.host,
        port=args.port,
        registry=registry,
        refresh=lambda: uptime.set(round(time.monotonic() - started, 3)),
    )
    try:
        port = server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(
        f"serving metrics on http://{args.host}:{port}/metrics "
        "(also /healthz and /progress; Ctrl-C to stop)",
        flush=True,
    )
    try:
        if args.for_seconds is not None:
            time.sleep(max(args.for_seconds, 0.0))
        else:
            while True:  # pragma: no cover - interactive foreground mode
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import JobQueue, RunServiceServer, WorkerPool

    registry = MetricsRegistry()
    store = ResultsStore(args.store)
    queue_path = args.queue if args.queue else f"{args.store}.queue.jsonl"
    queue = JobQueue(queue_path, store=store, registry=registry)
    policy = FaultPolicy(
        max_retries=args.max_retries,
        timeout=args.cell_timeout,
        on_failure="record",
    )
    pool = WorkerPool(
        queue,
        store,
        workers=max(args.workers, 1),
        policy=policy,
        sweep_jobs=args.jobs,
        registry=registry,
    )
    server = RunServiceServer(
        queue=queue, pool=pool, host=args.host, port=args.port, registry=registry
    )
    try:
        port = server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    pool.start()
    print(
        f"run service on http://{args.host}:{port}/runs "
        f"({len(store)} stored cells, {len(queue)} known jobs; "
        "also /metrics, /healthz, /progress; Ctrl-C to stop)",
        flush=True,
    )
    try:
        if args.for_seconds is not None:
            time.sleep(max(args.for_seconds, 0.0))
        else:
            while True:  # pragma: no cover - interactive foreground mode
                time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        pool.stop()
        server.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import RunServiceClient, ServiceError

    path = args.spec if args.spec else args.run
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load spec {path!r}: {exc}", file=sys.stderr)
        return 2
    client = RunServiceClient(args.url)
    try:
        status = client.submit({"sweep": spec} if args.spec else {"run": spec})
    except ServiceError as exc:
        print(f"error: submission rejected: {exc}", file=sys.stderr)
        return 2
    job_id = status["job_id"]
    print(f"job {job_id} {status['state']}" + (" (deduplicated)" if status["deduplicated"] else ""))
    try:
        if args.follow and not status["deduplicated"]:
            for event, payload in client.stream(job_id, timeout=args.timeout):
                if event == "progress":
                    print(
                        f"  {payload.get('done', '?')}/{payload.get('total', '?')} cells "
                        f"({payload.get('rate_cells_per_s', 0)} cells/s)",
                        flush=True,
                    )
                elif event == "state":
                    print(f"  state: {payload['state']}", flush=True)
            status = client.job(job_id)
        elif args.wait or args.out or args.follow:
            status = client.wait(job_id, timeout=args.timeout)
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status["state"] == "failed":
        error = status.get("error") or {}
        print(
            f"job failed: {error.get('type')}: {error.get('message')}", file=sys.stderr
        )
        return 1
    if status["state"] == "done" and args.out:
        try:
            csv_bytes = client.result_csv(job_id)
        except ServiceError as exc:
            print(f"error: cannot fetch result: {exc}", file=sys.stderr)
            return 1
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(csv_bytes)
        print(f"result CSV -> {out}")
    elif status["state"] == "done":
        result = status.get("result") or {}
        print(
            f"done: {result.get('cells')} cells "
            f"({result.get('executed')} executed, {result.get('cached')} cached)"
        )
    return 0


_COMMANDS = {
    "demo": _cmd_demo,
    "map": _cmd_map,
    "scale": _cmd_scale,
    "compare": _cmd_compare,
    "metrics": _cmd_metrics,
    "serve": _cmd_serve,
    "serve-metrics": _cmd_serve_metrics,
    "submit": _cmd_submit,
    "sweep": _cmd_sweep,
    "timeline": _cmd_timeline,
    "trace": _cmd_trace,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
