"""Background worker pool: claims jobs and runs them through the orchestrator.

Each worker thread loops ``claim → execute → mark terminal``, blocking in
:meth:`~repro.service.queue.JobQueue.claim` until a job is queued and
exiting when :meth:`WorkerPool.stop` closes the queue. Execution is
a plain :func:`~repro.sweep.orchestrator.run_sweep` call against the shared
results store under the service's :class:`~repro.sweep.dispatch.FaultPolicy`
— retries, per-cell timeouts, crash isolation, and structured failure
records all come from the machinery sweeps already have; the service adds
only job bookkeeping around it. A single-``RunSpec`` job rides the same
path through a duck-typed one-cell "grid" (:class:`_RunJobSpec`), so runs
and sweeps share cache-check, persistence, fault handling, and telemetry.

Observability: every job executes under its *own* metrics registry (the
shared service registry is lock-free by design, so worker threads must not
write it concurrently); a tiny
:class:`~repro.telemetry.ObservabilityServer`-shaped proxy captures the
orchestrator's live :class:`~repro.telemetry.ProgressLine` stats. When the
job finishes, its registry snapshot merges into the service registry under
the pool's lock — ``/metrics`` shows service-lifetime aggregates while
``/progress`` and ``/runs/{id}`` show per-job live state.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..sweep.dispatch import FaultPolicy
from ..sweep.orchestrator import run_sweep
from ..sweep.spec import Cell, SweepSpec
from ..sweep.store import ResultsStore
from ..telemetry.registry import MetricsRegistry
from .jobs import Job
from .queue import JobQueue

__all__ = ["WorkerPool"]


class _RunJobSpec:
    """One-cell duck-typed grid so a run job reuses the whole sweep path."""

    def __init__(self, cell: Cell) -> None:
        self._cell = cell
        self.name = f"run-{cell.key()[:12]}"

    def expand(self) -> list[Cell]:
        return [self._cell]


class _ProgressProxy:
    """Duck-types the orchestrator's ``serve=`` seam to capture progress.

    ``run_sweep`` calls ``attach(registry=..., progress=tracker.stats)``
    then ``start()`` on whatever it was given; this proxy just keeps the
    stats callable (and forces the tracker into existence by being passed
    at all) instead of binding a port.
    """

    def __init__(self) -> None:
        self.progress: Callable[[], dict[str, Any]] | None = None

    def attach(self, registry=None, progress=None) -> None:
        if progress is not None:
            self.progress = progress

    def start(self) -> int:
        return 0


class WorkerPool:
    """Daemon worker threads executing queued jobs against the store."""

    def __init__(
        self,
        queue: JobQueue,
        store: ResultsStore | None,
        *,
        workers: int = 1,
        policy: FaultPolicy | None = None,
        sweep_jobs: int = 1,
        registry: MetricsRegistry | None = None,
        work_fn: Callable | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.store = store
        self.workers = workers
        #: Record-don't-abort by default: one crashing cell must produce a
        #: failed *job* with a record, not a dead worker thread.
        self.policy = policy if policy is not None else FaultPolicy(on_failure="record")
        self.sweep_jobs = sweep_jobs
        self.registry = registry
        self.work_fn = work_fn  # test seam, forwarded to run_sweep
        self._threads: list[threading.Thread] = []
        self._merge_lock = threading.Lock()
        #: job_id -> live ProgressLine.stats callable (while running)
        self._progress: dict[str, Callable[[], dict[str, Any]]] = {}

    # ---------------------------------------------------------------- control

    def start(self) -> None:
        if self._threads:
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"repro-service-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Close the queue, which ends every worker's blocking ``claim``,
        and join the threads, giving a running job ``timeout`` seconds."""
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------- inspection

    def progress(self, job_id: str) -> dict[str, Any] | None:
        """Live progress stats for a running job, or None."""
        source = self._progress.get(job_id)
        if source is None:
            return None
        try:
            return source()
        except RuntimeError:
            return None  # raced the owning thread's registry mutation

    def progress_all(self) -> list[dict[str, Any]]:
        """Stats for every currently-running job (the /progress body)."""
        stats = []
        for job_id in list(self._progress):
            entry = self.progress(job_id)
            if entry:  # skip None and the not-yet-attached empty dict
                stats.append(entry)
        return stats

    # -------------------------------------------------------------- execution

    def _loop(self) -> None:
        while (job := self.queue.claim()) is not None:
            try:
                self._execute(job)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                # Anything escaping here is a service-side bug or a bad
                # spec; fail the job with the plain exception so the
                # submitter sees it, and keep the worker alive.
                try:
                    self.queue.mark_failed(
                        job.job_id,
                        {"type": type(exc).__name__, "message": str(exc)},
                    )
                except Exception:
                    pass

    def _execute(self, job: Job) -> None:
        if job.kind == "sweep":
            spec: Any = SweepSpec.from_dict(job.spec)
        else:
            from ..config import RunSpec

            spec = _RunJobSpec(RunSpec.from_dict(job.spec))
        job_registry = MetricsRegistry()
        proxy = _ProgressProxy()
        self._progress[job.job_id] = lambda: (
            proxy.progress() if proxy.progress is not None else {}
        )
        try:
            result = run_sweep(
                spec,
                jobs=self.sweep_jobs,
                store=self.store,
                policy=self.policy,
                work_fn=self.work_fn,
                metrics=job_registry,
                serve=proxy,
                job_id=job.job_id,
            )
        finally:
            self._progress.pop(job.job_id, None)
            self._merge(job_registry)
        summary = {
            "cells": len(result.cells),
            "executed": result.executed,
            "cached": result.cached,
            "failed": result.failed,
            "source": "computed" if result.executed else "store",
        }
        if result.failed:
            failures = [
                {"key": res.key, "cell": cell.label(), "error": res.error}
                for cell, res in result.failures()
            ]
            self.queue.mark_failed(
                job.job_id,
                {
                    "type": "CellFailures",
                    "message": f"{result.failed}/{len(result.cells)} cells failed",
                    "summary": summary,
                    "failures": failures,
                },
            )
        else:
            self.queue.mark_done(job.job_id, summary)

    def _merge(self, job_registry: MetricsRegistry) -> None:
        """Fold a finished job's telemetry into the service registry.

        Serialized under the pool lock because the shared registry is
        lock-free — concurrent merges from two finishing jobs would race
        its family dicts.
        """
        if self.registry is None:
            return
        snapshot = job_registry.snapshot()
        with self._merge_lock:
            self.registry.merge_snapshot(snapshot)
            self.registry.counter(
                "repro_service_jobs_executed_total",
                "Jobs a worker actually executed (dedup hits never get here).",
            ).inc()
