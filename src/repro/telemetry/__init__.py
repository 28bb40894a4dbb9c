"""Telemetry subsystem: metrics, spans, events, exposition, HTTP endpoint.

Dependency-free observability for the whole stack as **one mechanism**: a
:class:`Telemetry` bundle of three pillars rides one ambient ContextVar
(off by default), each executed sweep cell ships one JSON-able by-value
payload of it, and the sweep folds those payloads in canonical cell order
for deterministic aggregation at any ``--jobs``:

* **Metrics** — :class:`MetricsRegistry` (counters, gauges, histograms
  with labels and a ``timer()`` context manager; one internal lock)
  behind :func:`current_registry` / :func:`use_registry`, its ``repro_*``
  families declared once in :mod:`repro.telemetry.catalog`;
  :class:`MetricsSnapshot` with an associative ``merge()``;
  :func:`render_prometheus` / :func:`validate_exposition` for the
  Prometheus text format.
* **Spans** — :class:`SpanTracer` behind :func:`current_tracer` /
  :func:`use_tracer`, with the module-level :func:`span` probe helper;
  :class:`SpanLog` snapshots graft into one deterministic cross-process
  timeline; :func:`chrome_trace` / :func:`write_chrome_trace` export
  Perfetto-loadable trace JSON and :func:`render_timeline` /
  :func:`timeline_lanes` back the ``repro timeline`` CLI.
* **Events** — :class:`EventLog` (bounded ring buffer) behind
  :func:`current_event_log` / :func:`use_event_log` with the
  :func:`emit_event` probe helper; retries, backoff, crashes, watchdog
  expiries, cache hits, and store appends become ordered structured
  records, written as JSONL by :func:`write_events_jsonl`.

:class:`ObservabilityServer` serves the live HTTP surface — ``/metrics``
(validated exposition), ``/healthz``, and ``/progress`` (the JSON mirror
of :class:`ProgressLine`) — for ``repro serve-metrics`` and
``repro sweep --metrics-port``.

Quickstart::

    from repro.telemetry import (
        EventLog, MetricsRegistry, SpanTracer,
        render_prometheus, use_event_log, use_registry, use_tracer,
    )

    registry, tracer, log = MetricsRegistry(), SpanTracer(), EventLog()
    with use_registry(registry), use_tracer(tracer), use_event_log(log):
        ...  # run instrumented code: engines, sweeps, stores
    print(render_prometheus(registry))
    print(tracer.snapshot().tree())
    print(log.kinds())
"""

from .ambient import Telemetry, current_telemetry, use_telemetry
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from .snapshot import HistogramData, MetricsSnapshot
from .exposition import render_prometheus, validate_exposition
from .progress import ProgressLine
from .spans import Span, SpanLog, SpanTracer, current_tracer, span, use_tracer
from .events import (
    EventLog,
    current_event_log,
    emit_event,
    use_event_log,
    write_events_jsonl,
)
from .chrome_trace import chrome_trace, render_timeline, timeline_lanes, write_chrome_trace
from .server import ObservabilityServer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObservabilityServer",
    "ProgressLine",
    "Span",
    "SpanLog",
    "SpanTracer",
    "Telemetry",
    "chrome_trace",
    "current_event_log",
    "current_registry",
    "current_telemetry",
    "current_tracer",
    "emit_event",
    "render_prometheus",
    "render_timeline",
    "span",
    "timeline_lanes",
    "use_event_log",
    "use_registry",
    "use_telemetry",
    "use_tracer",
    "validate_exposition",
    "write_chrome_trace",
    "write_events_jsonl",
]
