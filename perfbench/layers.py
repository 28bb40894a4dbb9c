"""Benchmark-side spans and counters around the program's public functions.

The traced run measures each layer from outside the program. Where a layer
already records a span (``sweep``, ``dispatch``, ``cell``, ``engine.run``,
``draw_tier``) the benchmark keeps it; elsewhere :func:`install` wraps the
layer's public functions:

===========================  ==================================  ==========
wrapped                      span                                 layer
===========================  ==================================  ==========
``Protocol.step_batch``      ``protocol.step_batch``              protocols
``Protocol.step_counts``     ``protocol.step_counts``             protocols
``harness.prepare_batch``    ``harness.prepare``                  harness
``harness.prepare_counts``   ``harness.prepare``                  harness
``SweepSpec.expand``         ``config.expand``                    config
``validate_cell``            ``config.validate``                  config
``ResultsStore.__init__``    ``store.load``                       store
``ResultsStore.get/put``     ``store.get`` / ``store.put``        store
``JobQueue.submit``          ``queue.submit``                     service
``handle_route``             ``service.<route>``                  service
===========================  ==================================  ==========

Two sinks receive them. In sweep processes :class:`AmbientSink` opens
spans on the program's ambient tracer and bumps counters on its ambient
metrics registry, so the program's own machinery ships worker spans and
counts back to the parent and grafts them in cell order. The run service
executes jobs on threads the ambient tracer does not reach, so its
launcher uses a thread-safe :class:`Recorder` and additionally wraps the
functions whose program spans would otherwise stay silent (``run_sweep``,
``execute_cell``, the engines' ``run``, ``batched_binomial_counts``).
Either way spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "AmbientSink",
    "Recorder",
    "TracedCell",
    "install",
    "layer_of",
]

_INSTALLED: set[str] = set()


class AmbientSink:
    """Spans and counters on the program's ambient tracer and registry."""

    own_program_spans = False

    def span(self, name: str, **labels: Any):
        from repro.telemetry.spans import span

        return span(name, **labels)

    def count(self, name: str, value: float) -> None:
        from repro.telemetry.registry import current_registry

        registry = current_registry()
        if registry is not None:
            registry.counter(
                "perfbench_" + name.replace(".", "_") + "_total",
                f"Benchmark-side count: {name}.",
            ).inc(value)


class Recorder:
    """Thread-safe in-memory span log with per-thread nesting."""

    own_program_spans = True

    def __init__(self) -> None:
        self.epoch_wall = time.time()
        self._epoch = time.perf_counter()
        self.records: list[dict] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        start = time.perf_counter() - self._epoch
        with self._lock:
            index = len(self.records)
            self.records.append(
                {
                    "name": name,
                    "labels": {key: str(value) for key, value in labels.items()},
                    "start": start,
                    "duration": None,
                    "parent": stack[-1] if stack else -1,
                    "lane": threading.current_thread().name,
                }
            )
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.records[index]["duration"] = time.perf_counter() - self._epoch - start

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path: str | Path) -> None:
        with self._lock:
            payload = {
                "epoch_wall": self.epoch_wall,
                "records": [r for r in self.records if r["duration"] is not None],
                "counts": dict(self.counts),
            }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr)
    wrapped = functools.wraps(original)(make(original))
    setattr(owner, attr, wrapped)


def _spanned(sink, name: str | None, count: Callable[..., None] | None = None, **labels: Any):
    """Wrapper factory: a span named ``name`` (none when ``None``) around
    the call, then ``count(result, *args)`` if given."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                with sink.span(name, **labels):
                    result = original(*args, **kwargs)
            if count is not None:
                count(result, *args)
            return result

        return wrapper

    return make


def _protocol_classes() -> list[type]:
    from repro.core.protocol import Protocol

    found, todo = [], [Protocol]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _route_name(method: str, path: str) -> str | None:
    if path == "/runs":
        return "service.submit" if method == "POST" else "service.list"
    if path.startswith("/runs/"):
        rest = path[len("/runs/"):].split("/")[1:]
        if rest == ["stream"]:
            return None  # an SSE follower sleeps between ticks; not busy time
        return "service." + (rest[0] if rest else "status")
    if path == "/metrics":
        return "telemetry.scrape"
    return "telemetry." + (path.strip("/") or "index")


def install(sink, *, service: bool = False) -> None:
    """Wrap the program's public functions once per process.

    ``service=True`` adds the run-service routes and queue, and (for a
    :class:`Recorder` sink) the spans the program only records under an
    ambient tracer.
    """
    key = type(sink).__name__
    if key in _INSTALLED:
        return
    _INSTALLED.add(key)

    import repro.core.sampling as sampling
    import repro.experiments.harness as harness
    import repro.sweep.orchestrator as orchestrator
    import repro.sweep.registry  # noqa: F401 - imports every protocol class
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import ResultsStore

    # step_batch(self, batch, ...) and step_counts(self, counts, ...): one
    # replica row per batch row or count-matrix row.
    def batched_rows(result, protocol, batch, *args) -> None:
        sink.count("engine.batched_replica_rounds", batch.replicas)

    def counts_rows(result, protocol, counts, *args) -> None:
        sink.count("engine.counts_replica_rounds", counts.shape[0])

    for cls in _protocol_classes():
        if "step_batch" in vars(cls):
            _wrap(cls, "step_batch", _spanned(sink, "protocol.step_batch", batched_rows))
        if "step_counts" in vars(cls):
            _wrap(cls, "step_counts", _spanned(sink, "protocol.step_counts", counts_rows))

    def draws(result, *args) -> None:
        sink.count("sampling.draws", result.size)

    # The program spans its own draw call as ``draw_tier`` when a tracer is
    # ambient; only the recorder needs the span added.
    draw_span = "draw_tier" if sink.own_program_spans else None
    _wrap(sampling, "batched_binomial_counts", _spanned(sink, draw_span, draws))
    for name in ("prepare_batch", "prepare_counts"):
        _wrap(harness, name, _spanned(sink, "harness.prepare"))
    _wrap(SweepSpec, "expand", _spanned(sink, "config.expand"))
    _wrap(orchestrator, "validate_cell", _spanned(sink, "config.validate"))

    def store_hit(result, *args) -> None:
        sink.count("store.lookups", 1)
        sink.count("store.hits", 0 if result is None else 1)

    _wrap(ResultsStore, "__init__", _spanned(sink, "store.load"))
    _wrap(ResultsStore, "get", _spanned(sink, "store.get", store_hit))
    _wrap(ResultsStore, "put", _spanned(sink, "store.put"))

    if sink.own_program_spans:
        from repro.core.batch import BatchedEngine
        from repro.core.counts import CountEngine
        from repro.core.engine import SynchronousEngine

        _wrap(orchestrator, "execute_cell", _spanned(sink, "cell"))
        for engine_cls, label in (
            (BatchedEngine, "batched"), (CountEngine, "counts"), (SynchronousEngine, "sequential")
        ):
            _wrap(engine_cls, "run", _spanned(sink, "engine.run", engine=label))

    if service:
        import repro.service.worker as worker
        from repro.service.queue import JobQueue
        from repro.service.server import RunServiceServer

        if sink.own_program_spans:
            _wrap(worker, "run_sweep", _spanned(sink, "sweep"))
        _wrap(JobQueue, "submit", _spanned(sink, "queue.submit"))

        original_route = RunServiceServer.handle_route

        @functools.wraps(original_route)
        def handle_route(self, method, path, query, body, handler):
            name = _route_name(method, path)
            if name is None:
                return original_route(self, method, path, query, body, handler)
            with sink.span(name):
                return original_route(self, method, path, query, body, handler)

        RunServiceServer.handle_route = handle_route


class TracedCell:
    """Picklable sweep work function: installs the wrappers in whichever
    process runs the cell (pool workers included), then runs it."""

    def __call__(self, cell):
        install(AmbientSink())
        from repro.sweep.runner import execute_cell

        return execute_cell(cell)


#: span name -> layer; ``engine.run`` splits by its ``engine`` label.
_LAYERS = {
    "draw_tier": "sampling",
    "protocol.step_batch": "protocol.step_batch",
    "protocol.step_counts": "protocol.step_counts",
    "harness.prepare": "harness",
    "config.expand": "config",
    "config.validate": "config",
    "store.load": "store",
    "store.get": "store",
    "store.put": "store",
    "queue.submit": "service.queue",
    "cell": "sweep.cell",
    "dispatch": "sweep.dispatch",
    "sweep": "sweep.orchestrator",
}


def layer_of(record: dict) -> str | None:
    """The layer a span's self time belongs to."""
    name = record["name"]
    if name == "engine.run":
        return "engine." + record.get("labels", {}).get("engine", "unknown")
    if name.startswith("service.") or name.startswith("telemetry."):
        return name.split(".")[0]
    return _LAYERS.get(name, name)
