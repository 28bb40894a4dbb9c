"""Hierarchical span tracing with an ambient, off-by-default seam.

This module is the "where did the time go" pillar of :mod:`repro.telemetry`.
It rides the one ambient telemetry bundle (:mod:`repro.telemetry.ambient`)
with the metrics registry and the event log:

* **Ambient and off by default.**  Probe sites call the module-level
  :func:`span` helper, which reads the ambient bundle's tracer. With no
  tracer installed the helper returns a shared no-op span — the
  instrumented hot paths pay one ContextVar read and a ``None`` check.
  Install a tracer for a scope with :func:`use_tracer`.

* **Monotonic timing, wall-clock anchoring.**  Span starts/durations come
  from :func:`time.perf_counter` relative to the tracer's epoch; the epoch
  itself is stamped once with :func:`time.time` (``epoch_wall``) so logs
  recorded in different processes can be re-based onto a common timeline.

* **By-value snapshots.**  :meth:`SpanTracer.snapshot` produces a
  :class:`SpanLog` — plain dicts and floats, JSON-serializable via
  :meth:`SpanLog.to_dict` — which ships across process boundaries in the
  cell's one telemetry payload (``CellResult.telemetry``) beside the
  metrics snapshot and the events.  The parent grafts worker logs under
  its own ``sweep`` span **in canonical cell order**, so the merged
  timeline is deterministic at any ``--jobs``.

Span records are stored flat (index-addressed, ``parent`` pointing at the
enclosing span's index or ``-1`` for roots).  The tracer is bounded:
after ``max_spans`` records further spans are counted in ``dropped``
rather than recorded, so a runaway loop cannot exhaust memory.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, ContextManager

from .ambient import AMBIENT, use_pillar

__all__ = [
    "DEFAULT_MAX_SPANS",
    "Span",
    "SpanLog",
    "SpanTracer",
    "current_tracer",
    "span",
    "use_tracer",
]

#: Per-tracer cap on recorded spans; one sweep cell records a handful of
#: spans per engine round, so this covers ~tens of thousands of rounds.
DEFAULT_MAX_SPANS = 100_000


class Span:
    """A single timed region; use as a context manager.

    Created via :meth:`SpanTracer.span` (or the module-level :func:`span`
    helper).  Entering records the span with its parent resolved from the
    tracer's open-span stack; exiting stamps the duration.
    """

    __slots__ = ("_tracer", "_name", "_labels", "index")

    def __init__(self, tracer: "SpanTracer", name: str, labels: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._labels = labels
        self.index: int | None = None

    def __enter__(self) -> "Span":
        self.index = self._tracer._open(self._name, self._labels)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._close(self.index)
        return False


class _NullSpan:
    """Shared no-op span returned when no tracer is installed."""

    __slots__ = ()
    index = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class SpanTracer:
    """Records a bounded, hierarchical log of timed spans."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = int(max_spans)
        self.epoch_wall = time.time()
        self._epoch = time.perf_counter()
        self.records: list[dict[str, Any]] = []
        self.dropped = 0
        self._stack: list[int] = []

    def span(self, name: str, **labels: Any) -> Span:
        """Create a span; enter it (``with tracer.span("x"):``) to record."""
        return Span(self, name, labels)

    def elapsed(self) -> float:
        """Seconds since this tracer's epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    def __len__(self) -> int:
        return len(self.records)

    # -- internal: called by Span.__enter__/__exit__ ----------------------

    def _open(self, name: str, labels: dict[str, Any]) -> int | None:
        if len(self.records) >= self.max_spans:
            self.dropped += 1
            self._stack.append(-1)
            return None
        parent = -1
        for open_index in reversed(self._stack):
            if open_index >= 0:
                parent = open_index
                break
        index = len(self.records)
        self.records.append(
            {
                "name": str(name),
                "labels": {key: str(value) for key, value in sorted(labels.items())},
                "start": time.perf_counter() - self._epoch,
                "duration": None,
                "parent": parent,
            }
        )
        self._stack.append(index)
        return index

    def _close(self, index: int | None) -> None:
        if self._stack:
            self._stack.pop()
        if index is not None:
            record = self.records[index]
            record["duration"] = time.perf_counter() - self._epoch - record["start"]

    def snapshot(self) -> "SpanLog":
        """A by-value copy of everything recorded so far."""
        return SpanLog(
            pid=os.getpid(),
            epoch_wall=self.epoch_wall,
            records=[dict(record, labels=dict(record["labels"])) for record in self.records],
            dropped=self.dropped,
        )


@dataclass
class SpanLog:
    """Plain-data span log: JSON-serializable, mergeable across processes.

    ``records`` is a flat list; each record has ``name``, ``labels``
    (str→str), ``start`` (seconds from this log's epoch), ``duration``
    (seconds, or ``None`` if the span never closed), ``parent`` (index
    into ``records``, ``-1`` for roots), and — on records grafted in from
    another process — ``pid``.
    """

    SCHEMA = 1

    pid: int = 0
    epoch_wall: float = 0.0
    records: list[dict[str, Any]] = field(default_factory=list)
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.records)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.SCHEMA,
            "pid": self.pid,
            "epoch_wall": self.epoch_wall,
            "dropped": self.dropped,
            "records": [dict(record, labels=dict(record["labels"])) for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "SpanLog":
        schema = payload.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported span log schema: {schema!r}")
        return cls(
            pid=int(payload.get("pid", 0)),
            epoch_wall=float(payload.get("epoch_wall", 0.0)),
            records=[dict(record, labels=dict(record["labels"])) for record in payload["records"]],
            dropped=int(payload.get("dropped", 0)),
        )

    def graft(self, other: "SpanLog", parent: int = -1) -> None:
        """Append ``other``'s records under ``parent`` (an index here, or -1).

        Start times are re-based onto this log's wall epoch so spans from
        different processes land on one timeline; each grafted record is
        tagged with the originating ``pid``.  Call in canonical cell order
        to keep merged logs deterministic across ``--jobs``.
        """
        offset = len(self.records)
        shift = other.epoch_wall - self.epoch_wall
        for record in other.records:
            grafted = dict(record, labels=dict(record["labels"]))
            grafted["start"] = record["start"] + shift
            grafted["parent"] = record["parent"] + offset if record["parent"] >= 0 else parent
            grafted["pid"] = record.get("pid", other.pid)
            self.records.append(grafted)
        self.dropped += other.dropped

    def roots(self) -> list[int]:
        return [index for index, record in enumerate(self.records) if record["parent"] < 0]

    def children(self, index: int) -> list[int]:
        return [child for child, record in enumerate(self.records) if record["parent"] == index]

    def tree(self) -> list[tuple]:
        """Timing-free structural view: nested ``(name, labels, children)``.

        Two sweeps of the same spec produce equal trees regardless of
        ``--jobs`` or wall-clock jitter — the determinism contract the
        tests assert.
        """
        child_map: dict[int, list[int]] = {}
        roots: list[int] = []
        for index, record in enumerate(self.records):
            parent = record["parent"]
            if parent < 0:
                roots.append(index)
            else:
                child_map.setdefault(parent, []).append(index)

        def build(index: int) -> tuple:
            record = self.records[index]
            return (
                record["name"],
                tuple(sorted(record["labels"].items())),
                tuple(build(child) for child in child_map.get(index, [])),
            )

        return [build(index) for index in roots]


# -- ambient view ----------------------------------------------------------


def current_tracer() -> SpanTracer | None:
    """The ambient tracer, or ``None`` when tracing is off (the default)."""
    return AMBIENT.get().tracer


def use_tracer(tracer: SpanTracer) -> ContextManager[SpanTracer]:
    """Install ``tracer`` on the ambient telemetry bundle for the ``with`` scope."""
    return use_pillar("tracer", tracer)


def span(name: str, **labels: Any) -> Span | _NullSpan:
    """Open a span on the ambient tracer; a shared no-op when tracing is off."""
    tracer = AMBIENT.get().tracer
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, labels)
