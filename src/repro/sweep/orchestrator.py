"""Sweep orchestration: expand → cache-check → dispatch → collect → export.

:func:`run_sweep` is the one entry point tying the sweep layers together: it
expands a :class:`~repro.sweep.spec.SweepSpec` into cells, serves whatever a
:class:`~repro.sweep.store.ResultsStore` already holds, fans the missing
cells out over a dispatcher (cells on a per-agent engine ahead of counts
cells), and persists each cell the moment it completes.
The returned :class:`SweepResult` keeps cells and results aligned in the
spec's canonical expansion order, so every export — rows, table, CSV — is
**bitwise identical regardless of job count or how many runs (interrupted
or cached) it took to fill the grid**.

Fault tolerance is threaded through via a
:class:`~repro.sweep.dispatch.FaultPolicy`: cell exceptions, worker crashes
and hung cells are retried by the dispatcher, and cells that exhaust their
retries under ``on_failure="record"`` persist as **failure records** — the
store keeps the error type, message, traceback tail and per-attempt log, so
a resumed sweep knows what crashed and why (and serves the failure instead
of re-crashing blindly; pass ``retry_failed=True`` or ``force=True`` to try
again). Failure rows export as NaN payload columns plus an ``error`` column
that only appears when a sweep actually recorded failures, keeping
fault-free aggregate CSVs byte-identical to their historical form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..telemetry import catalog
from ..telemetry.ambient import Telemetry, current_telemetry, use_telemetry
from ..telemetry.events import EventLog, emit_event
from ..telemetry.progress import ProgressLine
from ..telemetry.registry import MetricsRegistry
from ..telemetry.snapshot import MetricsSnapshot
from ..telemetry.spans import SpanLog, SpanTracer, span
from ..viz.csv_out import write_rows
from ..viz.tables import format_table
from .dispatch import FailedItem, FaultPolicy, make_dispatcher
from .registry import validate_cell
from .runner import ERROR_COLUMN, RESULT_COLUMNS, CellResult, MeteredCell, execute_cell
from .spec import Cell, SweepSpec
from .store import ResultsStore, provenance_stamp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.server import ObservabilityServer

__all__ = ["SweepResult", "run_sweep"]


@dataclass
class SweepResult:
    """All cell results of one sweep, in canonical cell order."""

    spec: SweepSpec
    cells: list[Cell]
    results: list[CellResult]
    #: Final aggregated telemetry of the run (parent-side counters plus the
    #: worker snapshots merged in cell order), when the sweep ran with a
    #: metrics registry; ``None`` otherwise.
    metrics: MetricsSnapshot | None = field(default=None, compare=False)
    #: Merged span log (the parent's ``sweep`` span with every executed
    #: cell's worker spans grafted under it in canonical cell order), when
    #: the sweep ran with a tracer; ``None`` otherwise.
    spans: SpanLog | None = field(default=None, compare=False)
    #: Merged structured events (parent-side dispatch/store events followed
    #: by worker cell events absorbed in canonical cell order), when the
    #: sweep ran with an event log; ``None`` otherwise.
    events: list[dict] | None = field(default=None, compare=False)

    @property
    def executed(self) -> int:
        """Cells computed by this run (as opposed to served from the store)."""
        return sum(1 for result in self.results if not result.cached)

    @property
    def cached(self) -> int:
        """Cells served from the store without recomputation."""
        return sum(1 for result in self.results if result.cached)

    @property
    def failed(self) -> int:
        """Cells that are recorded failures (fresh or served from store)."""
        return sum(1 for result in self.results if result.failed)

    def failures(self) -> list[tuple[Cell, CellResult]]:
        """The failed cells with their failure records, in cell order."""
        return [
            (cell, result)
            for cell, result in zip(self.cells, self.results)
            if result.failed
        ]

    def _columns(self) -> list[str]:
        """Export columns: the ``error`` column rides along only when some
        cell failed, so fault-free exports keep their exact bytes."""
        columns = list(RESULT_COLUMNS)
        if self.failed:
            columns.append(ERROR_COLUMN)
        return columns

    def rows(self) -> list[dict]:
        """Flat per-cell dicts over ``RESULT_COLUMNS`` + ``error``, in cell
        order (failure rows are NaN everywhere a payload would be read)."""
        return [result.row() for result in self.results]

    def table(self) -> str:
        """Aligned text table of all cells (NaN renders as ``-``)."""
        columns = self._columns()
        return format_table(
            columns,
            [[row[column] for column in columns] for row in self.rows()],
        )

    def write_csv(self, path: str | Path) -> Path:
        """Write the aggregate CSV (NaN cells blank), creating parents.

        Cell order and float formatting are deterministic, so two sweeps of
        the same spec produce byte-identical files whatever their job
        counts or cache states were — including sweeps with recorded
        failures, whose ``error`` renderings are deterministic too.
        """
        columns = self._columns()
        table = []
        for row in self.rows():
            table.append(
                [
                    "" if isinstance(value, float) and math.isnan(value) else value
                    for value in (row[column] for column in columns)
                ]
            )
        return write_rows(path, columns, table)


def _runs_on_counts(cell: Cell) -> bool:
    """Whether ``cell`` resolves to the counts engine."""
    return cell.resolve_engine(cell.build_protocol()) == "counts"


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    store: ResultsStore | str | Path | None = None,
    force: bool = False,
    policy: FaultPolicy | None = None,
    retry_failed: bool = False,
    work_fn: Callable[[Cell], CellResult] | None = None,
    durable: bool = True,
    metrics: MetricsRegistry | None = None,
    progress: bool = False,
    tracer: SpanTracer | None = None,
    events: EventLog | None = None,
    serve: "ObservabilityServer | None" = None,
    job_id: str | None = None,
) -> SweepResult:
    """Run every cell of ``spec``, in parallel and against the store.

    Parameters
    ----------
    jobs:
        Worker processes; 1 runs inline. Results are independent of this
        knob — it only trades wall-clock for cores.
    store:
        A :class:`ResultsStore` (or a path to create one at). Cells whose
        key is present are served from it; cells computed by this run are
        appended to it as they finish, making any interrupted run resumable.
    force:
        Recompute every cell even on a store hit (fresh results overwrite
        the stored entries, failure records included).
    policy:
        A :class:`~repro.sweep.dispatch.FaultPolicy` governing retries,
        backoff, the per-cell timeout watchdog, and whether a cell that
        exhausts its retries aborts the sweep (``on_failure="raise"``, the
        default) or completes as a persisted failure record
        (``on_failure="record"``).
    retry_failed:
        Treat stored *failure* records as cache misses (successful records
        are still served) — the resume knob after fixing whatever crashed.
    work_fn:
        The per-cell work function; defaults to
        :func:`~repro.sweep.runner.execute_cell`. The seam the
        fault-injection harness (:mod:`repro.sweep.faults`) wraps to prove
        the recovery paths end to end; any replacement must be picklable
        and deterministic per cell.
    durable:
        Whether a store created here *from a path* opens with fsync-per-
        append (machine-crash-safe persistence; on by default). Ignored
        when ``store`` is already a :class:`ResultsStore` — that object's
        own setting wins.
    metrics:
        A :class:`~repro.telemetry.MetricsRegistry` to aggregate the run's
        telemetry into. Defaults to the ambient registry
        (:func:`~repro.telemetry.current_registry`), i.e. telemetry stays
        off unless a caller opts in. When active, each cell runs under a
        fresh telemetry bundle (:class:`~repro.sweep.runner.MeteredCell`)
        whose payload merges parent-side **in cell order**, so aggregated
        counters are byte-identical at any ``jobs``; the final snapshot is
        returned as :attr:`SweepResult.metrics`.
    progress:
        Emit a live progress line on stderr (cells done/total, failures,
        retries, throughput, ETA), fed from the metrics registry — forced
        on if no registry was supplied.
    tracer:
        A :class:`~repro.telemetry.SpanTracer` to record the sweep's span
        timeline into. Defaults to the ambient tracer
        (:func:`~repro.telemetry.current_tracer`), i.e. tracing stays off
        unless a caller opts in. When active, each cell's payload carries
        its span log (``cell > engine.run > draw_tier``), grafted under the
        parent's ``sweep`` span **in cell order** — the merged timeline on
        :attr:`SweepResult.spans` has the same span tree at any ``jobs``.
    events:
        An :class:`~repro.telemetry.EventLog` to record structured events
        into (retries, backoff, crashes, watchdog expiries, cache hits,
        store appends). Defaults to the ambient log
        (:func:`~repro.telemetry.current_event_log`). Worker cell events
        are absorbed in cell order; the merged list is returned as
        :attr:`SweepResult.events`.
    serve:
        An :class:`~repro.telemetry.ObservabilityServer` to expose the
        *live* run on: the orchestrator attaches its registry and progress
        stats and starts the server (if not already running) before any
        cell executes, so ``/metrics`` and ``/progress`` can be scraped
        mid-sweep. The caller owns the server's lifetime; the orchestrator
        never stops it. Forces a registry on like ``progress`` does.
    job_id:
        Run-service job identifier. When set, the progress tracker stamps
        it into :meth:`~repro.telemetry.ProgressLine.stats`, so a shared
        ``/progress`` surface can attribute each line to its submission.
    """
    ambient = current_telemetry()
    registry = metrics if metrics is not None else ambient.registry
    if (progress or serve is not None) and registry is None:
        registry = MetricsRegistry()
    telemetry = Telemetry(
        registry,
        tracer if tracer is not None else ambient.tracer,
        events if events is not None else ambient.events,
    )
    with use_telemetry(telemetry), span("sweep", spec=spec.name) as sweep_span:
        cells = spec.expand()
        for cell in cells:
            validate_cell(cell)
        if store is not None and not isinstance(store, ResultsStore):
            store = ResultsStore(store, durable=durable)

        if registry is not None:
            completed_count = catalog.CELLS_COMPLETED.on(registry)
            failed_count = catalog.CELLS_FAILED.on(registry)
            cached_count = catalog.CELLS_CACHED.on(registry)
            hit_count = catalog.STORE_CACHE_HITS.on(registry)
            miss_count = catalog.STORE_CACHE_MISSES.on(registry)
            catalog.SWEEP_CELLS.on(registry).set(float(len(cells)))
        tracker = (
            ProgressLine(len(cells), registry, job_id=job_id)
            if registry is not None and (progress or serve is not None)
            else None
        )
        # The tracker doubles as the /progress JSON source when serving; it
        # only paints stderr when --progress asked for it.
        progress_line = tracker if progress else None
        if serve is not None:
            serve.attach(
                registry=registry,
                progress=tracker.stats if tracker is not None else None,
            )
            serve.start()

        results: list[CellResult | None] = [None] * len(cells)
        pending: list[int] = []
        for index, cell in enumerate(cells):
            key = cell.key()
            consulted = store is not None and not force
            record = store.get(key) if consulted else None
            if record is not None and "error" in record and retry_failed:
                record = None
            if record is None:
                pending.append(index)
                if registry is not None and consulted:
                    miss_count.inc()
                continue
            if registry is not None:
                hit_count.inc()
                cached_count.inc()
            emit_event("store.cache_hit", key=key, failed="error" in record)
            results[index] = CellResult.from_record(key, record)
        if progress_line is not None:
            progress_line.update(force=True)

        if pending:
            # Per-agent cells (batched, sequential) go first: their rounds
            # cost O(n) where a counts cell's rounds cost O(1), so they are
            # usually the long ones and a pool that starts them first
            # finishes sooner. Results still land in canonical cell order.
            pending.sort(key=lambda index: _runs_on_counts(cells[index]))
            pending_cells = [cells[index] for index in pending]

            def collect(pending_index: int, outcome: CellResult | FailedItem) -> None:
                """Completion-order hook: count, persist, repaint progress.

                Persistence happens here (the moment a cell finishes) so an
                interrupted run leaves every completed cell on disk; the
                metric counts are parent-side and scheduling-independent
                (one increment per finished cell, whatever order they land
                in).
                """
                failed = isinstance(outcome, FailedItem)
                if registry is not None:
                    (failed_count if failed else completed_count).inc()
                if store is not None:
                    if failed:
                        cell = pending_cells[pending_index]
                        store.put(
                            cell.key(), {"cell": cell.to_dict(), "error": outcome.to_record()}
                        )
                    else:
                        record = {"cell": outcome.cell, "payload": outcome.payload}
                        if outcome.elapsed_s is not None:
                            # Ride the provenance stamp: additive, so legacy
                            # records (and readers) are untouched.
                            stamp = provenance_stamp()
                            stamp["elapsed_s"] = round(outcome.elapsed_s, 6)
                            record["provenance"] = stamp
                        store.put(outcome.key, record)
                if progress_line is not None:
                    progress_line.update()

            fn = work_fn if work_fn is not None else execute_cell
            if telemetry.pillars:
                fn = MeteredCell(fn, telemetry.pillars)
            if tracker is not None:
                # Rate/ETA measure executed cells only: start the rate clock
                # here, after cache serving, so a mostly-cached resume does
                # not report instantly-served hits as throughput.
                tracker.begin_execution()
            with span("dispatch"):
                computed = make_dispatcher(jobs).map(
                    fn,
                    pending_cells,
                    on_result=collect,
                    policy=policy,
                )
            for index, outcome in zip(pending, computed):
                if isinstance(outcome, FailedItem):
                    cell = cells[index]
                    results[index] = CellResult(
                        key=cell.key(), cell=cell.to_dict(), payload={},
                        error=outcome.to_record(),
                    )
                else:
                    results[index] = outcome

        if progress_line is not None:
            progress_line.close()
    # Fold the executed cells' telemetry AFTER the sweep span closes (so its
    # duration is final) and in CANONICAL CELL ORDER — not the completion
    # order the cells arrived in. Float sums are not associative and span
    # grafts append, so the fixed order is what makes merged counters
    # byte-identical and the merged timeline structurally identical at any
    # `jobs`.
    root = sweep_span.index if sweep_span.index is not None else -1
    snapshot, span_log, event_list = telemetry.fold(
        (result.telemetry for result in results), parent_span=root  # type: ignore[union-attr]
    )
    return SweepResult(
        spec=spec, cells=cells, results=results,  # type: ignore[arg-type]
        metrics=snapshot, spans=span_log, events=event_list,
    )
