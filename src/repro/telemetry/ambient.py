"""The one ambient telemetry bundle: registry, tracer and event log together.

One :class:`~contextvars.ContextVar` carries a :class:`Telemetry` bundle
(every pillar off by default); ``current_registry``, ``span``,
``emit_event`` and the ``use_*`` helpers are views over it. Helper threads
and worker processes start with telemetry off instead of inheriting the
parent's bundle. A sweep cell runs under :meth:`Telemetry.fresh`, ships
:meth:`Telemetry.payload` back by value, and the parent merges the payloads
in canonical cell order with :meth:`Telemetry.fold` — so only plain data
crosses process boundaries and aggregates are identical at any ``--jobs``.
"""

from __future__ import annotations

import contextlib
import dataclasses
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import EventLog
    from .registry import MetricsRegistry
    from .snapshot import MetricsSnapshot
    from .spans import SpanLog, SpanTracer

__all__ = ["PILLARS", "Telemetry", "current_telemetry", "use_telemetry"]

#: Pillar names, in field order; also the keys of :meth:`Telemetry.payload`.
PILLARS = ("metrics", "spans", "events")


@dataclasses.dataclass(frozen=True, slots=True)
class Telemetry:
    """The optional registry, tracer and event log of one scope."""

    registry: "MetricsRegistry | None" = None
    tracer: "SpanTracer | None" = None
    events: "EventLog | None" = None

    @property
    def pillars(self) -> tuple[str, ...]:
        """The names of the pillars switched on."""
        on = (self.registry, self.tracer, self.events)
        return tuple(name for name, value in zip(PILLARS, on) if value is not None)

    @classmethod
    def fresh(cls, pillars: Iterable[str]) -> "Telemetry":
        """A new bundle with a new registry/tracer/log for each named pillar."""
        from .events import EventLog
        from .registry import MetricsRegistry
        from .spans import SpanTracer

        names = set(pillars)
        if not names <= set(PILLARS):
            raise ValueError(f"unknown telemetry pillars {sorted(names)}; expected {PILLARS}")
        return cls(
            MetricsRegistry() if "metrics" in names else None,
            SpanTracer() if "spans" in names else None,
            EventLog() if "events" in names else None,
        )

    def payload(self) -> dict[str, Any]:
        """JSON-able copy of every pillar switched on, keyed by pillar name."""
        out: dict[str, Any] = {}
        if self.registry is not None:
            out["metrics"] = self.registry.snapshot().to_dict()
        if self.tracer is not None:
            out["spans"] = self.tracer.snapshot().to_dict()
        if self.events is not None:
            out["events"] = self.events.events()
        return out

    def fold(
        self, payloads: Iterable[dict[str, Any] | None], parent_span: int = -1
    ) -> tuple["MetricsSnapshot | None", "SpanLog | None", list[dict] | None]:
        """Merge payloads, in the order given, and return the final
        ``(metrics, spans, events)`` views (``None`` where a pillar is off).

        Metrics merge into the registry, span logs graft under
        ``parent_span`` of a snapshot of the tracer, events are absorbed.
        """
        from .snapshot import MetricsSnapshot
        from .spans import SpanLog

        span_log = self.tracer.snapshot() if self.tracer is not None else None
        for payload in payloads:
            if not payload:
                continue
            if self.registry is not None and "metrics" in payload:
                self.registry.merge_snapshot(MetricsSnapshot.from_dict(payload["metrics"]))
            if span_log is not None and "spans" in payload:
                span_log.graft(SpanLog.from_dict(payload["spans"]), parent=parent_span)
            if self.events is not None and "events" in payload:
                self.events.absorb(payload["events"])
        return (
            self.registry.snapshot() if self.registry is not None else None,
            span_log,
            self.events.events() if self.events is not None else None,
        )


#: The ambient bundle; every pillar is off unless a caller installs one.
AMBIENT: ContextVar[Telemetry] = ContextVar("repro.telemetry", default=Telemetry())


def current_telemetry() -> Telemetry:
    """The ambient bundle (every pillar ``None`` when telemetry is off)."""
    return AMBIENT.get()


@contextlib.contextmanager
def use_telemetry(bundle: Telemetry) -> Iterator[Telemetry]:
    """Install ``bundle`` as the ambient telemetry for the ``with`` scope."""
    token = AMBIENT.set(bundle)
    try:
        yield bundle
    finally:
        AMBIENT.reset(token)


@contextlib.contextmanager
def use_pillar(field: str, value: Any) -> Iterator[Any]:
    """Replace one field (``registry``, ``tracer`` or ``events``) of the
    ambient bundle for the ``with`` scope; yields ``value``."""
    with use_telemetry(dataclasses.replace(AMBIENT.get(), **{field: value})):
        yield value
