"""Dependency-free metrics registry: counters, gauges, histograms, timers.

Design constraints (shared with the sweep orchestrator):

* **One lock per registry.** One re-entrant lock inside
  :class:`MetricsRegistry` guards family and child creation, child
  updates, the readers (``value``/``total``/``snapshot``) and a whole
  :meth:`~MetricsRegistry.merge_snapshot` fold, so the run service's
  worker threads and scrapes can share one registry. Lock order: a caller
  holding another lock (the job queue's) may take the registry lock, never
  the reverse — the registry calls out to nothing while holding it.
* **Snapshots, not registries, cross processes.** Workers ship
  :meth:`MetricsRegistry.snapshot` by value and the parent merges them
  in a canonical order. A registry carries its lock, so it cannot pickle.
* **Null overhead when off.** Instrumented code asks
  :func:`current_registry` once and skips all metric work when it returns
  ``None``; no registry is ever installed unless a caller opts in with
  :func:`use_registry`.
* **Ambient, not global.** The active registry rides the one ambient
  telemetry bundle (:mod:`repro.telemetry.ambient`), so worker processes
  and helper threads start clean instead of inheriting the parent's.

The program's ``repro_*`` families are declared in
:mod:`repro.telemetry.catalog`. Metric and label names follow Prometheus
conventions so :func:`repro.telemetry.exposition.render_prometheus` can
emit the text format verbatim.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from typing import ContextManager

from .ambient import AMBIENT, use_pillar
from .snapshot import HistogramData, MetricsSnapshot, SeriesKey, series_key

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "current_registry",
    "use_registry",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds), tuned for cell/run wall-clock:
#: sub-millisecond engine runs through multi-minute sweep cells.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)


class Counter:
    """Monotonically non-decreasing numeric total."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: ContextManager) -> None:
        self.value: float = 0
        self._lock = lock

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """Instantaneous numeric value that can go up and down."""

    __slots__ = ("value", "_lock")

    def __init__(self, lock: ContextManager) -> None:
        self.value: float = 0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Cumulative histogram with fixed upper bounds (plus implicit +Inf)."""

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: tuple[float, ...], lock: ContextManager) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is the +Inf bucket
        self.sum: float = 0.0
        self.count: int = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        slot = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.counts[slot] += 1
            self.sum += value
            self.count += 1


class _Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class _Family:
    """One named metric family: kind, help text, labeled children."""

    __slots__ = ("kind", "help", "bounds", "children")

    def __init__(self, kind: str, help: str, bounds: tuple[float, ...] | None) -> None:
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.children: dict[SeriesKey, Counter | Gauge | Histogram] = {}


def _validate_names(name: str, labels: dict[str, str]) -> None:
    if not _METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    for label in labels:
        if not _LABEL_NAME.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name: {label!r}")


class MetricsRegistry:
    """Holds metric families and hands out labeled children.

    Children are plain attribute-bearing objects sharing the registry's
    lock; call sites on hot paths should fetch them once (``counter =
    registry.counter(...)``) and then call ``inc``/``observe`` directly.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.RLock()

    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        labels: dict[str, str],
        bounds: tuple[float, ...] | None = None,
    ) -> Counter | Gauge | Histogram:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                _validate_names(name, labels)
                family = _Family(kind, help, bounds)
                self._families[name] = family
            else:
                if family.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind}, not {kind}"
                    )
                if kind == "histogram" and bounds is not None and family.bounds != bounds:
                    raise ValueError(f"metric {name!r} re-registered with different buckets")
                if help and not family.help:
                    family.help = help
            key = series_key(labels)
            child = family.children.get(key)
            if child is None:
                if kind == "counter":
                    child = Counter(self._lock)
                elif kind == "gauge":
                    child = Gauge(self._lock)
                else:
                    child = Histogram(family.bounds or DEFAULT_BUCKETS, self._lock)
                family.children[key] = child
            return child

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._child(name, "counter", help, _str_labels(labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._child(name, "gauge", help, _str_labels(labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> Histogram:
        bounds = _check_bounds(buckets) if buckets is not None else DEFAULT_BUCKETS
        return self._child(name, "histogram", help, _str_labels(labels), bounds)  # type: ignore[return-value]

    def timer(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: str,
    ) -> _Timer:
        """Span context manager: observes elapsed seconds into ``name``."""
        return _Timer(self.histogram(name, help, buckets, **labels))

    # -- reading ---------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0 if absent)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0
            child = family.children.get(series_key(_str_labels(labels)))
            if child is None or isinstance(child, Histogram):
                return 0
            return child.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets (0 if absent)."""
        with self._lock:
            family = self._families.get(name)
            if family is None or family.kind == "histogram":
                return 0
            return sum(child.value for child in family.children.values())  # type: ignore[union-attr]

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Immutable-by-copy view of every series, for shipping or rendering."""
        snap = MetricsSnapshot()
        with self._lock:
            for name, family in self._families.items():
                series: dict[SeriesKey, float | HistogramData] = {}
                for key, child in family.children.items():
                    if isinstance(child, Histogram):
                        series[key] = HistogramData(
                            counts=list(child.counts), sum=child.sum, count=child.count
                        )
                    else:
                        series[key] = child.value
                snap.metrics[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "buckets": list(family.bounds) if family.bounds else None,
                    "series": series,
                }
        return snap

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot into this registry, atomically for readers.

        Counters and gauges add; histograms add bucket-wise (bounds must
        match). Addition makes the operation associative and commutative
        up to float rounding — callers that need byte-identical aggregates
        must merge in a canonical order (the sweep orchestrator merges in
        cell order, never completion order).
        """
        with self._lock:
            for name, metric in snapshot.metrics.items():
                kind = metric["kind"]
                bounds = tuple(metric["buckets"]) if metric.get("buckets") else None
                for key, data in metric["series"].items():
                    labels = dict(key)
                    child = self._child(name, kind, metric.get("help", ""), labels, bounds)
                    if kind == "histogram":
                        assert isinstance(child, Histogram) and isinstance(data, HistogramData)
                        if len(child.counts) != len(data.counts):
                            raise ValueError(
                                f"histogram {name!r} merge with mismatched bucket count"
                            )
                        for i, c in enumerate(data.counts):
                            child.counts[i] += c
                        child.sum += data.sum
                        child.count += data.count
                    else:
                        child.value += data  # type: ignore[union-attr, operator]


def _str_labels(labels: dict[str, object]) -> dict[str, str]:
    return {key: str(value) for key, value in labels.items()}


def _check_bounds(buckets: tuple[float, ...]) -> tuple[float, ...]:
    bounds = tuple(float(b) for b in buckets)
    if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
        raise ValueError("histogram buckets must be strictly increasing and non-empty")
    return bounds


# -- ambient view ----------------------------------------------------------


def current_registry() -> MetricsRegistry | None:
    """The ambient registry, or ``None`` when telemetry is off (the default)."""
    return AMBIENT.get().registry


def use_registry(registry: MetricsRegistry) -> ContextManager[MetricsRegistry]:
    """Install ``registry`` on the ambient telemetry bundle for a ``with``
    block (the tracer and event log in force stay as they are)."""
    return use_pillar("registry", registry)
