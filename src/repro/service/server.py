"""HTTP API of the run service, extending the observability routes.

:class:`RunServiceServer` subclasses
:class:`~repro.telemetry.ObservabilityServer`, so one port serves both the
scrape surface (``/metrics``, ``/healthz``, ``/progress``) and the job API:

* ``POST /runs`` — submit RunSpec/SweepSpec JSON; 202 with the job id, or
  200 when spec-hash dedup resolved it without scheduling work;
* ``GET /runs`` — all jobs, oldest first;
* ``GET /runs/{id}`` — status: state, queue position, live progress,
  result summary or failure records;
* ``GET /runs/{id}/result`` — the completed rows, as CSV (byte-identical
  to :meth:`~repro.sweep.orchestrator.SweepResult.write_csv` of a direct
  sweep) or JSON (``?format=json``);
* ``POST /runs/{id}/cancel`` — cancel a still-queued job;
* ``GET /runs/{id}/stream`` — live Server-Sent Events until the job
  reaches a terminal state.

Streaming is SSE over chunked HTTP/1.1 rather than websockets: the
service's contract is stdlib-only, and ``http.server`` cannot speak the
websocket upgrade — SSE delivers the same one-directional progress feed
over plain HTTP (``urllib`` and ``curl -N`` both follow it). The
substitution is recorded in ROADMAP item 2.

The stream is pushed, not polled: its handler blocks on the queue's
state-change signal (:meth:`~repro.service.queue.JobQueue.wait_change`),
so ``state`` and ``done`` events leave as the transition happens, while
``progress`` events keep a pace of at most one per ``_STREAM_TICK_S``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from http.server import BaseHTTPRequestHandler
from typing import Any
from urllib.parse import parse_qs

from ..sweep.orchestrator import SweepResult
from ..sweep.runner import CellResult
from ..telemetry.server import STREAMED, ObservabilityServer, RouteError
from .jobs import TERMINAL_STATES, Job, JobError, job_cells, normalize_submission
from .queue import JobQueue
from .worker import WorkerPool

__all__ = ["RunServiceServer"]

#: Seconds between SSE ``progress`` events while a job runs; state changes
#: do not wait for it.
_STREAM_TICK_S = 0.1

#: Default wall-clock cap on one SSE connection (client can override with
#: ``?timeout=``); a stream of a job that never terminates must not pin a
#: handler thread forever.
_STREAM_TIMEOUT_S = 600.0

_INDEX_EXTRA = "\n".join(
    [
        "  POST /runs              submit RunSpec/SweepSpec JSON",
        "  GET  /runs              list jobs",
        "  GET  /runs/{id}         job status",
        "  GET  /runs/{id}/result  result rows (?format=csv|json)",
        "  POST /runs/{id}/cancel  cancel a queued job",
        "  GET  /runs/{id}/stream  live progress (Server-Sent Events)",
        "",
    ]
)


def _json_safe(value: Any) -> Any:
    """NaN/Inf-free copy: JSON has no NaN, so payload NaNs become null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


class RunServiceServer(ObservabilityServer):
    """The run-service HTTP surface over a queue and worker pool."""

    def __init__(
        self,
        *,
        queue: JobQueue,
        pool: WorkerPool,
        host: str = "127.0.0.1",
        port: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(host=host, port=port, **kwargs)
        self.queue = queue
        self.pool = pool

    # ---------------------------------------------------------------- routing

    def handle_route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        handler: BaseHTTPRequestHandler,
    ):
        if path == "/runs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return self._list()
            return None
        if path.startswith("/runs/"):
            parts = path[len("/runs/"):].split("/")
            job_id, rest = parts[0], parts[1:]
            if not rest and method == "GET":
                return self._status(job_id)
            if rest == ["result"] and method == "GET":
                return self._result(job_id, query)
            if rest == ["cancel"] and method == "POST":
                return self._cancel(job_id)
            if rest == ["stream"] and method == "GET":
                return self._stream(job_id, query, handler)
            return None
        return super().handle_route(method, path, query, body, handler)

    def index_text(self) -> str:
        return super().index_text() + _INDEX_EXTRA

    def progress_json(self) -> dict[str, Any]:
        """Per-job live progress — several jobs can run concurrently, so
        the body is a list keyed by ``job_id`` rather than one flat dict."""
        jobs = self.pool.progress_all()
        return {"active": bool(jobs), "jobs": jobs}

    # ----------------------------------------------------------------- bodies

    @staticmethod
    def _reply(status: int, payload: dict) -> tuple[int, str, str]:
        return status, "application/json", json.dumps(payload, sort_keys=True) + "\n"

    def _job_or_404(self, job_id: str) -> Job:
        job = self.queue.get(job_id)
        if job is None:
            raise RouteError(404, f"unknown job {job_id!r}")
        return job

    def _job_body(self, job: Job, *, spec: bool = False) -> dict:
        body = job.to_dict()
        if not spec:
            body.pop("spec", None)
        position = self.queue.position(job.job_id)
        if position is not None:
            body["queue_position"] = position
        progress = self.pool.progress(job.job_id)
        if progress:
            body["progress"] = progress
        return _json_safe(body)

    def _submit(self, body: bytes) -> tuple[int, str, str]:
        try:
            parsed = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RouteError(400, f"request body is not valid JSON: {exc}") from exc
        try:
            kind, spec = normalize_submission(parsed)
            job, deduplicated = self.queue.submit(kind, spec)
        except JobError as exc:
            raise RouteError(400, str(exc)) from exc
        reply = self._job_body(job)
        reply["deduplicated"] = deduplicated
        # 200: nothing was scheduled (already done / coalesced); 202: queued.
        return self._reply(200 if deduplicated else 202, reply)

    def _list(self) -> tuple[int, str, str]:
        jobs = [self._job_body(job) for job in self.queue.jobs()]
        return self._reply(200, {"jobs": jobs})

    def _status(self, job_id: str) -> tuple[int, str, str]:
        return self._reply(200, self._job_body(self._job_or_404(job_id), spec=True))

    def _cancel(self, job_id: str) -> tuple[int, str, str]:
        job = self._job_or_404(job_id)
        try:
            self.queue.cancel(job.job_id)
        except JobError as exc:
            raise RouteError(409, str(exc)) from exc
        return self._reply(200, self._job_body(job))

    # ----------------------------------------------------------------- result

    def _stored_result(self, job: Job) -> SweepResult:
        """Rebuild the job's :class:`SweepResult` from the results store.

        The store is the single source of truth for result bytes — whether
        the job computed its cells, resumed them, or dedup'd onto records
        some earlier sweep wrote. Rebuilding through the same
        :class:`CellResult` cached path the orchestrator uses keeps the
        CSV rendering byte-identical to a direct ``run_sweep().write_csv``.
        """
        if self.pool.store is None:
            raise RouteError(409, "service is running without a results store")
        try:
            cells = job_cells(job.kind, job.spec)
        except (TypeError, ValueError, KeyError) as exc:
            raise RouteError(500, f"stored spec no longer expands: {exc}") from exc
        results: list[CellResult] = []
        for cell in cells:
            key = cell.key()
            record = self.pool.store.get(key)
            if record is None:
                raise RouteError(
                    409, f"result incomplete: cell {key[:12]} is missing from the store"
                )
            provenance = record.get("provenance") or {}
            if "error" in record:
                results.append(
                    CellResult(
                        key=key, cell=record["cell"], payload={}, cached=True,
                        error=record["error"],
                    )
                )
            else:
                results.append(
                    CellResult(
                        key=key, cell=record["cell"], payload=record["payload"],
                        cached=True, metrics=record.get("metrics"),
                        elapsed_s=provenance.get("elapsed_s"),
                    )
                )
        return SweepResult(spec=None, cells=cells, results=results)  # type: ignore[arg-type]

    def _result(self, job_id: str, query: str) -> tuple[int, str, str]:
        job = self._job_or_404(job_id)
        if job.state != "done":
            raise RouteError(409, f"job {job_id[:12]} is {job.state}, not done")
        fmt = parse_qs(query).get("format", ["csv"])[0]
        result = self._stored_result(job)
        if fmt == "json":
            return self._reply(
                200,
                {
                    "job_id": job.job_id,
                    "columns": result._columns(),
                    "rows": _json_safe(result.rows()),
                },
            )
        if fmt != "csv":
            raise RouteError(400, f"format must be 'csv' or 'json', got {fmt!r}")
        columns = result._columns()
        buffer = io.StringIO()
        # Same renderer as SweepResult.write_csv (csv.writer defaults, NaN
        # blank), just into memory — the bytes must match a direct sweep's
        # file exactly.
        writer = csv.writer(buffer)
        writer.writerow(columns)
        for row in result.rows():
            writer.writerow(
                [
                    "" if isinstance(value, float) and math.isnan(value) else value
                    for value in (row[column] for column in columns)
                ]
            )
        return 200, "text/csv; charset=utf-8", buffer.getvalue()

    # ----------------------------------------------------------------- stream

    def _stream(
        self, job_id: str, query: str, handler: BaseHTTPRequestHandler
    ) -> object:
        """Follow a job over SSE until it terminates (chunked HTTP/1.1).

        Emits a ``state`` event on every state change as it happens,
        ``progress`` events at most once per tick while cells execute, and
        a final ``done`` event carrying the full status body — or a
        ``timeout`` event once ``?timeout=`` seconds pass first. When the
        service shuts down mid-job the stream ends with no final event.
        The response is hand-chunked because the base handler speaks
        HTTP/1.0 framing; SSE needs an open-ended body the client (urllib,
        curl -N, EventSource) de-chunks incrementally.
        """
        job = self._job_or_404(job_id)
        params = parse_qs(query)
        try:
            timeout = float(params.get("timeout", [_STREAM_TIMEOUT_S])[0])
        except ValueError as exc:
            raise RouteError(400, f"timeout must be a number: {exc}") from exc

        handler.protocol_version = "HTTP/1.1"
        handler.send_response(200)
        handler.send_header("Content-Type", "text/event-stream")
        handler.send_header("Cache-Control", "no-cache")
        handler.send_header("Transfer-Encoding", "chunked")
        handler.send_header("Connection", "close")
        handler.end_headers()

        def chunk(text: str) -> None:
            data = text.encode("utf-8")
            handler.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
            handler.wfile.flush()

        def emit(event: str, payload: dict) -> None:
            chunk(f"event: {event}\ndata: {json.dumps(_json_safe(payload), sort_keys=True)}\n\n")

        deadline = time.monotonic() + timeout
        last_state: str | None = None
        last_progress: dict | None = None
        closed = False
        try:
            while True:
                state = job.state
                if state != last_state:
                    last_state = state
                    emit("state", {"job_id": job.job_id, "state": state})
                if state in TERMINAL_STATES:
                    emit("done", self._job_body(job, spec=True))
                    break
                progress = self.pool.progress(job.job_id)
                if progress and progress != last_progress:
                    last_progress = progress
                    emit("progress", progress)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    emit("timeout", {"job_id": job.job_id, "state": state})
                    break
                if closed:
                    break  # shutting down: the pass above caught any last transition
                closed = not self.queue.wait_change(
                    job.job_id, state, min(_STREAM_TICK_S, remaining)
                )
            handler.wfile.write(b"0\r\n\r\n")
            handler.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client hung up mid-stream; nothing to clean up
        handler.close_connection = True
        return STREAMED
