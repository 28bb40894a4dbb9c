"""Structured event log: bounded, ordered, JSONL-serializable.

Counters answer "how many retries happened"; the event log answers "what
happened, in order" — each retry, backoff sleep, worker crash, watchdog
expiry, cache hit, and store append becomes a small dict with a wall-clock
timestamp and a per-log sequence number.

It rides the one ambient telemetry bundle (:mod:`repro.telemetry.ambient`)
with the metrics registry and the span tracer:

* **Ambient, off by default.**  Probe sites call :func:`emit_event`,
  which is a no-op until a log is installed with :func:`use_event_log`.
* **Bounded.**  The log is a ring buffer (``capacity`` events); once full,
  the oldest events fall off and ``dropped`` counts what was lost — a
  pathological sweep cannot exhaust memory.
* **By-value across processes.**  Workers ship ``log.events()`` (plain
  dicts) in the cell's one telemetry payload (``CellResult.telemetry``);
  the parent :meth:`EventLog.absorb`\\ s them in canonical cell order,
  re-sequencing but preserving original timestamps, so merged logs are
  deterministic modulo wall clocks.

:func:`write_events_jsonl` renders any event list as one JSON object per
line — the ``--events-out`` format.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, ContextManager, Iterable

from .ambient import AMBIENT, use_pillar

__all__ = [
    "DEFAULT_CAPACITY",
    "EventLog",
    "current_event_log",
    "emit_event",
    "use_event_log",
    "write_events_jsonl",
]

#: Default ring-buffer capacity; generous for any realistic sweep (a few
#: events per cell) while bounding a runaway retry storm.
DEFAULT_CAPACITY = 10_000

#: Keys stamped by the log itself; emit() rejects them as field names.
_RESERVED = ("seq", "ts", "kind")


class EventLog:
    """Append-only ring buffer of structured events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._events: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self.dropped = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self._events)

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event of ``kind`` with arbitrary JSON-able fields."""
        for key in _RESERVED:
            if key in fields:
                raise ValueError(f"event field name {key!r} is reserved")
        if len(self._events) == self.capacity:
            self.dropped += 1
        event: dict[str, Any] = {"seq": self._seq, "ts": round(time.time(), 6), "kind": str(kind)}
        event.update(fields)
        self._seq += 1
        self._events.append(event)

    def absorb(self, events: Iterable[dict[str, Any]]) -> None:
        """Fold foreign events (e.g. a worker cell's) into this log.

        Original timestamps and fields are preserved; sequence numbers are
        reassigned from this log's counter so the merged order is exactly
        the absorption order.  Absorb in canonical cell order for
        deterministic merged logs.
        """
        for event in events:
            if len(self._events) == self.capacity:
                self.dropped += 1
            folded = dict(event)
            folded["seq"] = self._seq
            self._seq += 1
            self._events.append(folded)

    def events(self) -> list[dict[str, Any]]:
        """A by-value copy of the buffered events, oldest first."""
        return [dict(event) for event in self._events]

    def kinds(self) -> list[str]:
        """The ``kind`` of each buffered event, oldest first."""
        return [event["kind"] for event in self._events]


def write_events_jsonl(path: str | Path, events: Iterable[dict[str, Any]]) -> Path:
    """Write events as JSON Lines (one compact object per line)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
            handle.write("\n")
    return target


# -- ambient view ----------------------------------------------------------


def current_event_log() -> EventLog | None:
    """The ambient event log, or ``None`` when logging is off (the default)."""
    return AMBIENT.get().events


def use_event_log(log: EventLog) -> ContextManager[EventLog]:
    """Install ``log`` on the ambient telemetry bundle for the ``with`` scope."""
    return use_pillar("events", log)


def emit_event(kind: str, **fields: Any) -> None:
    """Emit onto the ambient log; a no-op when event logging is off."""
    log = AMBIENT.get().events
    if log is not None:
        log.emit(kind, **fields)
