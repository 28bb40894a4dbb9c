"""Thin stdlib client for the run service (``urllib`` only).

Backs the ``repro submit`` CLI and the end-to-end tests; the API surface
mirrors the routes one-to-one so anything the service can do is one method
call away. Streaming uses the SSE route — ``urllib`` de-chunks the
response transparently, so :meth:`RunServiceClient.stream` is a plain
generator of ``(event, payload)`` pairs. :meth:`RunServiceClient.wait`
follows that stream too, so a waiting client learns of completion when the
server's queue signals it rather than on a polling timer.
"""

from __future__ import annotations

import json
from typing import Any, Iterator
from urllib import error, request

__all__ = ["RunServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-success HTTP reply from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def _service_error(exc: error.URLError) -> ServiceError:
    """The :class:`ServiceError` for a failed ``urlopen``."""
    if isinstance(exc, error.HTTPError):
        body = exc.read()
        try:
            message = json.loads(body.decode("utf-8")).get("error", "")
        except (json.JSONDecodeError, UnicodeDecodeError):
            message = body.decode("utf-8", "replace").strip()
        return ServiceError(exc.code, message or exc.reason)
    return ServiceError(0, f"service unreachable: {exc.reason}")


class RunServiceClient:
    """Typed wrapper over the run-service HTTP routes."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ http

    def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, bytes]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        req = request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except error.URLError as exc:
            raise _service_error(exc) from exc

    def _json(self, method: str, path: str, payload: dict | None = None) -> dict:
        _, body = self._request(method, path, payload)
        return json.loads(body.decode("utf-8"))

    # ------------------------------------------------------------------- api

    def submit(self, submission: dict) -> dict:
        """POST a ``{"run"|"sweep": spec}`` (or bare spec) body; job status."""
        return self._json("POST", "/runs", submission)

    def jobs(self) -> list[dict]:
        return self._json("GET", "/runs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/runs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/runs/{job_id}/cancel")

    def result_csv(self, job_id: str) -> bytes:
        """The completed job's CSV, byte-identical to a direct sweep's."""
        _, body = self._request("GET", f"/runs/{job_id}/result?format=csv")
        return body

    def result_rows(self, job_id: str) -> dict:
        return self._json("GET", f"/runs/{job_id}/result?format=json")

    def wait(self, job_id: str, *, timeout: float = 300.0) -> dict:
        """Follow the job's stream until it is terminal; returns its final
        status body. Raises :class:`TimeoutError` if ``timeout`` seconds
        pass first."""
        for event, payload in self.stream(job_id, timeout=timeout):
            if event == "done":
                return payload
            if event == "timeout":
                raise TimeoutError(
                    f"job {job_id[:12]} still {payload['state']} after {timeout:g}s"
                )
        raise ServiceError(0, f"stream of job {job_id[:12]} ended before the job did")

    def stream(
        self, job_id: str, *, timeout: float = 600.0
    ) -> Iterator[tuple[str, dict]]:
        """Follow the SSE route; yields ``(event, payload)`` until it ends."""
        req = request.Request(
            f"{self.base_url}/runs/{job_id}/stream?timeout={timeout:g}",
            headers={"Accept": "text/event-stream"},
        )
        try:
            resp = request.urlopen(req, timeout=timeout + self.timeout)
        except error.URLError as exc:
            raise _service_error(exc) from exc
        with resp:
            event: str | None = None
            data_lines: list[str] = []
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    event = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
                elif not line and event is not None:
                    payload: Any = "\n".join(data_lines)
                    try:
                        payload = json.loads(payload)
                    except json.JSONDecodeError:
                        pass
                    yield event, payload
                    if event in ("done", "timeout"):
                        return
                    event, data_lines = None, []
