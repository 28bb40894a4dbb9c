"""Dependency-free HTTP observability endpoint (stdlib ``http.server``).

:class:`ObservabilityServer` runs a :class:`~http.server.ThreadingHTTPServer`
on a daemon thread and serves three routes:

* ``/metrics``  — Prometheus text exposition 0.0.4 of the attached
  registry's current snapshot (the same bytes as ``--metrics-out``);
* ``/healthz``  — liveness probe, always ``ok``;
* ``/progress`` — JSON mirror of the sweep :class:`ProgressLine` stats
  (done/total, cached/failed/retries, rate, ETA) when one is attached.

Used two ways: ``repro serve-metrics`` runs it as a foreground exporter
(optionally seeded from a recorded snapshot), and ``repro sweep
--metrics-port`` attaches it to a *live* sweep so the run can be scraped
while it executes.

Thread-safety note: the metrics registry is deliberately lock-free (the
owning thread mutates it; the hot path must stay cheap).  A scrape that
races a family registration can hit a transient ``RuntimeError`` from
dict iteration — the handler retries a few times and falls back to the
last good snapshot rather than poisoning the scrape.  Sample *values* are
plain float reads, so a scrape is always a coherent text page even while
counters move.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from .exposition import render_prometheus
from .registry import MetricsRegistry
from .snapshot import MetricsSnapshot

__all__ = ["ObservabilityServer", "RouteError", "STREAMED"]

#: Sentinel a route handler returns after writing its own response bytes
#: directly to the connection (e.g. a chunked SSE stream) — tells the
#: request handler that nothing more should be sent.
STREAMED = object()

#: Snapshot attempts before falling back to the last good snapshot.
_SNAPSHOT_RETRIES = 8

#: Largest request body a handler reads; a longer ``Content-Length`` gets a
#: 413 reply without the body being read.
MAX_BODY_BYTES = 1 << 20

_INDEX_BODY = "\n".join(
    [
        "repro observability endpoint",
        "  /metrics   Prometheus text exposition (0.0.4)",
        "  /healthz   liveness probe",
        "  /progress  sweep progress (JSON)",
        "",
    ]
)


class ObservabilityServer:
    """Serves ``/metrics``, ``/healthz``, and ``/progress`` over HTTP."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        progress: Callable[[], dict[str, Any]] | None = None,
        refresh: Callable[[], None] | None = None,
    ):
        self._host = host
        self._requested_port = int(port)
        self._registry = registry
        self._progress = progress
        self._refresh = refresh
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._last_snapshot: MetricsSnapshot | None = None

    def attach(
        self,
        registry: MetricsRegistry | None = None,
        progress: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        """Point the server at a (new) registry and/or progress source."""
        if registry is not None:
            self._registry = registry
        if progress is not None:
            self._progress = progress

    @property
    def running(self) -> bool:
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port once started (resolves ``port=0`` to the real one)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self._host}:{self.port}{path}"

    def start(self) -> int:
        """Bind and serve on a daemon thread; idempotent. Returns the port."""
        if self._httpd is not None:
            return self.port
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self._host, self._requested_port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-observability",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObservabilityServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- routing (called from handler threads) ----------------------------

    def handle_route(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        handler: BaseHTTPRequestHandler,
    ) -> tuple[int, str, str] | object | None:
        """Resolve one request to ``(status, content_type, body)``.

        The overridable seam subclasses (the run service) extend with their
        own routes, falling back to ``super()`` for these. Return ``None``
        for "no such route" (the handler sends 404), or :data:`STREAMED`
        after writing a response directly to ``handler`` (long-lived
        streams that outlive this call's framing, e.g. SSE).
        """
        if method != "GET":
            return None
        if path == "/metrics":
            return 200, "text/plain; version=0.0.4; charset=utf-8", self.metrics_text()
        if path in ("/healthz", "/health"):
            return 200, "text/plain; charset=utf-8", "ok\n"
        if path == "/progress":
            body_text = json.dumps(self.progress_json(), sort_keys=True) + "\n"
            return 200, "application/json", body_text
        if path in ("/", "/index.html"):
            return 200, "text/plain; charset=utf-8", self.index_text()
        return None

    def index_text(self) -> str:
        """The ``/`` route-listing body; subclasses append their routes."""
        return _INDEX_BODY

    # -- route bodies (called from handler threads) -----------------------

    def metrics_text(self) -> str:
        if self._refresh is not None:
            self._refresh()
        registry = self._registry
        if registry is None:
            return ""
        for _ in range(_SNAPSHOT_RETRIES):
            try:
                snapshot = registry.snapshot()
            except RuntimeError:
                continue  # raced a family registration on the owning thread
            self._last_snapshot = snapshot
            return render_prometheus(snapshot)
        if self._last_snapshot is not None:
            return render_prometheus(self._last_snapshot)
        return ""

    def progress_json(self) -> dict[str, Any]:
        source = self._progress
        if source is None:
            return {"active": False}
        for _ in range(_SNAPSHOT_RETRIES):
            try:
                stats = source()
            except RuntimeError:
                continue
            return {"active": True, **stats}
        return {"active": False}


def _make_handler(server: ObservabilityServer) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-observability/1"

        def _dispatch(self, method: str) -> None:
            path, _, query = self.path.partition("?")
            try:
                body = _request_body(self)
                route_method = "GET" if method == "HEAD" else method
                outcome = server.handle_route(route_method, path, query, body, self)
            except RouteError as exc:
                outcome = exc.response()
            if outcome is STREAMED:
                return
            if outcome is None:
                outcome = (404, "text/plain; charset=utf-8", "not found\n")
            status, content_type, text = outcome  # type: ignore[misc]
            payload = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            if method != "HEAD":
                self.wfile.write(payload)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("POST")

        def do_HEAD(self) -> None:  # noqa: N802 - http.server API
            self._dispatch("HEAD")

        def log_message(self, *args: object) -> None:
            pass  # scrapes must not pollute the sweep's stderr progress line

    return Handler


def _request_body(handler: BaseHTTPRequestHandler) -> bytes:
    """The request body, bounded by :data:`MAX_BODY_BYTES`.

    A non-integer or negative ``Content-Length`` is a 400 (``rfile.read(-1)``
    would block the handler thread until the client hangs up); an oversized
    one is a 413, sent without reading the body, after which the connection
    is closed since the unread bytes cannot be skipped.
    """
    length = handler.headers.get("Content-Length")
    if not length:
        return b""
    try:
        size = int(length)
    except ValueError:
        size = -1
    if size < 0:
        raise RouteError(400, f"invalid Content-Length {length!r}")
    if size > MAX_BODY_BYTES:
        handler.close_connection = True
        raise RouteError(413, f"request body of {size} bytes exceeds {MAX_BODY_BYTES}")
    try:
        return handler.rfile.read(size)
    except OSError:
        return b""


class RouteError(Exception):
    """Raise from inside a route body to short-circuit to an error reply."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message

    def response(self) -> tuple[int, str, str]:
        body = json.dumps({"error": self.message}, sort_keys=True) + "\n"
        return self.status, "application/json", body
