"""Persistent job queue with submission-time spec-hash dedup.

The queue journals to a JSON-lines file with the same append discipline as
the :class:`~repro.sweep.store.ResultsStore`: one line per event — a full
job record on submission, a ``{job_id, state, ts}`` transition line per
state change (terminal transitions carry the result summary or error) —
flushed as written, torn tails skipped on replay. Replay folds the lines
back into jobs (last state wins); jobs found ``running`` are reset to
``queued``, because a journal that ends mid-run means the service died
with the job in flight — its finished cells are already checkpointed in
the results store, so requeueing recomputes only what's missing.

Dedup is the submission path's whole job, and it is what makes the
service the millions-of-users front door: a submission whose hash already
has a completed job returns that job verbatim; one whose hash is queued or
running coalesces onto the in-flight job (two clients asking for the same
grid fund one computation); and a *new* hash whose cells are all present
in the results store is born ``done`` without ever touching a worker —
the store, not the worker pool, is the source of truth for "already
computed". Failed and cancelled jobs requeue on resubmission (that is the
retry knob).

Waiters never poll for state. Workers block in :meth:`JobQueue.claim` on a
condition that submissions signal; clients following a job block in
:meth:`JobQueue.wait_change` on a second condition over the same lock,
signalled by every live state transition (claim, done, failed, cancel,
requeue) — kept apart so a state change does not wake idle workers, nor a
submission the job followers.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

from ..sweep.store import ResultsStore
from ..telemetry.registry import MetricsRegistry
from .jobs import Job, JobError, job_cells

__all__ = ["JobQueue"]


class JobQueue:
    """JSONL-journaled queue of :class:`Job` records with dedup-on-submit."""

    def __init__(
        self,
        path: str | Path,
        *,
        store: ResultsStore | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.path = Path(path)
        self.store = store
        self.registry = registry
        self.corrupt_lines = 0
        self._jobs: dict[str, Job] = {}
        self._pending: list[str] = []  # job ids in submission order
        self._lock = threading.RLock()
        self._ready = threading.Condition(self._lock)  # a job was queued
        self._changed = threading.Condition(self._lock)  # a job changed state
        self._closed = False
        self._load()

    # ---------------------------------------------------------------- journal

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    job_id = entry["job_id"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    self.corrupt_lines += 1
                    continue
                if "spec" in entry:
                    try:
                        self._jobs[job_id] = Job.from_dict(entry)
                    except (KeyError, TypeError):
                        self.corrupt_lines += 1
                    continue
                job = self._jobs.get(job_id)
                if job is None:
                    self.corrupt_lines += 1  # transition without its job line
                    continue
                job.state = entry.get("state", job.state)
                job.started_ts = entry.get("started_ts", job.started_ts)
                job.finished_ts = entry.get("finished_ts", job.finished_ts)
                if "result" in entry:
                    job.result = entry["result"]
                if "error" in entry:
                    job.error = entry["error"]
        # Crash recovery: a job the journal last saw running died with the
        # service. Its completed cells are in the results store; requeue so
        # a worker fills in the rest.
        for job in self._jobs.values():
            if job.state == "running":
                job.transition("queued")
                self._append(
                    {"job_id": job.job_id, "state": "queued", "ts": time.time()}
                )
        for job in sorted(self._jobs.values(), key=lambda j: j.created_ts):
            if job.state == "queued":
                self._pending.append(job.job_id)

    def _append(self, entry: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

    def _journal_transition(self, job: Job) -> None:
        """Journal a live state change and wake :meth:`wait_change` callers.

        Every transition after startup passes through here, under the lock;
        the crash-recovery requeue in :meth:`_load` runs before any waiter
        can exist and journals directly.
        """
        entry: dict = {"job_id": job.job_id, "state": job.state, "ts": time.time()}
        if job.started_ts is not None:
            entry["started_ts"] = job.started_ts
        if job.finished_ts is not None:
            entry["finished_ts"] = job.finished_ts
        if job.result is not None:
            entry["result"] = job.result
        if job.error is not None:
            entry["error"] = job.error
        self._append(entry)
        self._changed.notify_all()

    def _count(self, name: str, help_text: str, **labels: str) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text, **labels).inc()

    # ----------------------------------------------------------------- submit

    def _store_result(self, kind: str, spec: dict) -> dict | None:
        """Completion summary if the store already holds every cell, else None.

        This is the spec-hash dedup path's second leg: a brand-new job id
        whose cells were all computed before (by any sweep that overlapped
        this grid, not just an identical submission) resolves from the
        store alone. Failure records do not count as coverage — a job over
        them should run and retry.
        """
        if self.store is None:
            return None
        try:
            cells = job_cells(kind, spec)
        except (TypeError, ValueError, KeyError) as exc:
            raise JobError(f"invalid {kind} spec: {exc}") from exc
        for cell in cells:
            record = self.store.get(cell.key())
            if record is None or "error" in record:
                return None
        return {"cells": len(cells), "executed": 0, "cached": len(cells), "failed": 0, "source": "store"}

    def submit(self, kind: str, spec: dict) -> tuple[Job, bool]:
        """Submit a normalized spec; returns ``(job, deduplicated)``.

        ``deduplicated`` is True when no new work was scheduled: the hash
        matched a completed job, coalesced onto a queued/running one, or
        every cell was already in the results store. Failed/cancelled
        matches requeue instead (resubmission is the retry path).
        """
        with self._lock:
            if self._closed:
                raise JobError("queue is closed")
            job = Job.from_submission(kind, spec)
            existing = self._jobs.get(job.job_id)
            if existing is not None:
                if existing.state == "done":
                    self._count(
                        "repro_service_dedup_hits_total",
                        "Submissions resolved to an already-computed result "
                        "without scheduling any work.",
                        source="job",
                    )
                    return existing, True
                if existing.state in ("queued", "running"):
                    self._count(
                        "repro_service_coalesced_total",
                        "Submissions coalesced onto an identical in-flight job.",
                    )
                    return existing, True
                # failed | cancelled -> requeue
                existing.transition("queued")
                self._journal_transition(existing)
                self._pending.append(existing.job_id)
                self._count(
                    "repro_service_jobs_submitted_total",
                    "Jobs accepted for execution (fresh or requeued).",
                    kind=kind,
                )
                self._ready.notify()
                return existing, False
            cached = self._store_result(kind, spec)
            if cached is not None:
                job.state = "done"
                job.finished_ts = time.time()
                job.result = cached
                job.deduplicated = True
                self._jobs[job.job_id] = job
                self._append(job.to_dict())
                self._count(
                    "repro_service_dedup_hits_total",
                    "Submissions resolved to an already-computed result "
                    "without scheduling any work.",
                    source="store",
                )
                return job, True
            self._jobs[job.job_id] = job
            self._append(job.to_dict())
            self._pending.append(job.job_id)
            self._count(
                "repro_service_jobs_submitted_total",
                "Jobs accepted for execution (fresh or requeued).",
                kind=kind,
            )
            self._ready.notify()
            return job, False

    # ------------------------------------------------------------ worker side

    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the oldest queued job and mark it running; None on timeout.

        Blocks until a job is available, the timeout elapses, or the queue
        is closed (workers block with no timeout; ``close()`` wakes them).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closed:
                    return None
                if self._pending:
                    job = self._jobs[self._pending.pop(0)]
                    job.transition("running")
                    self._journal_transition(job)
                    return job
                if deadline is None:
                    self._ready.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._ready.wait(remaining):
                        return None

    def mark_done(self, job_id: str, result: dict) -> Job:
        with self._lock:
            job = self._require(job_id)
            job.result = result
            job.transition("done")
            self._journal_transition(job)
            self._count(
                "repro_service_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                outcome="done",
            )
            return job

    def mark_failed(self, job_id: str, error: dict) -> Job:
        with self._lock:
            job = self._require(job_id)
            job.error = error
            job.transition("failed")
            self._journal_transition(job)
            self._count(
                "repro_service_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                outcome="failed",
            )
            return job

    # ------------------------------------------------------------ client side

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job. Running jobs are not preemptible."""
        with self._lock:
            job = self._require(job_id)
            if job.state != "queued":
                raise JobError(
                    f"job {job_id[:12]} is {job.state}; only queued jobs can be cancelled"
                )
            self._pending.remove(job_id)
            job.transition("cancelled")
            self._journal_transition(job)
            self._count(
                "repro_service_jobs_finished_total",
                "Jobs that reached a terminal state, by outcome.",
                outcome="cancelled",
            )
            return job

    def wait_change(self, job_id: str, seen_state: str, timeout: float) -> bool:
        """Block until job ``job_id`` leaves ``seen_state``, the queue is
        closed, or ``timeout`` seconds pass; False once the queue is closed.

        The state is compared under the lock before waiting, so a transition
        that landed after the caller read ``seen_state`` returns at once
        instead of being missed.
        """
        with self._lock:
            self._changed.wait_for(
                lambda: self._closed or self._jobs[job_id].state != seen_state,
                timeout,
            )
            return not self._closed

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: (j.created_ts, j.job_id))

    def position(self, job_id: str) -> int | None:
        """0-based place in the pending line, or None if not queued."""
        with self._lock:
            try:
                return self._pending.index(job_id)
            except ValueError:
                return None

    def close(self) -> None:
        """Stop handing out work; blocked :meth:`claim` calls return None
        and blocked :meth:`wait_change` calls return False."""
        with self._lock:
            self._closed = True
            self._ready.notify_all()
            self._changed.notify_all()

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id!r}")
        return job

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
