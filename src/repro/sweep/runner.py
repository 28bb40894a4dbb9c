"""Cell execution: the worker-side function of the sweep orchestrator.

:func:`execute_cell` is a pure function of a :class:`~repro.sweep.spec.Cell`
— it builds the protocol and initializer from the cell's declarative specs,
runs the measurement under the cell's derived seed, and returns a
JSON-able :class:`CellResult`. Purity is what buys the orchestrator its
guarantees: results are identical whether a cell runs inline, in any of N
pool workers, or in a later resumed process, so aggregate output is
reproducible regardless of scheduling, and cached store entries are
interchangeable with fresh computations.

Measurement kinds live in a **registry** (:func:`register_measure`), so new
trace-derived measures plug in without touching the spec or orchestrator.
Three kinds ship built in (``cell.measure["kind"]``):

``consensus``
    Full convergence aggregates via :meth:`~repro.config.RunSpec.execute`
    (a sweep cell *is* a run spec) — the measurement behind the
    scaling/comparison tables. Observation models are resolved by the
    spec itself: noise cells get the paired noisy samplers, declarative
    ``sampler`` components their registry pair, so the fast path is
    preserved without any hand pairing.
``theta``
    θ-convergence plus settle level — the robustness measurement of
    :mod:`repro.experiments.robustness`. On the batched engines the settle
    window is served by trace recording plus ``linger_rounds`` retirement
    (replicas keep stepping through their window before retiring), and the
    per-trial settle levels are reduced vectorized from the trace; the
    sequential per-trial loop remains behind ``engine="sequential"`` as the
    cross-check path.
``trace``
    Convergence aggregates plus trace-derived trajectory statistics (settle
    round per replica, optional post-settle flip rate) recorded through a
    configurable recorder (``stride``, ``ring`` capacity, ``flips``) —
    also the workload of the trace-overhead benchmark.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.engine import SynchronousEngine
from ..telemetry.events import EventLog, use_event_log
from ..telemetry.registry import MetricsRegistry, use_registry
from ..telemetry.spans import SpanTracer, use_tracer
from ..core.rng import spawn_rngs
from ..stats.summary import TimesSummary, describe_times
from ..trace import (
    FullTrace,
    make_recorder,
    nonsource_correct_fractions,
    post_settle_flip_rate,
    settle_rounds,
    window_mean_after,
)
from .registry import build_initializer, protocol_factory
from .spec import Cell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.harness import TrialStats

# The experiment drivers in repro.experiments build on this package, so the
# harness import must happen at call time to keep the package import DAG
# acyclic (repro.sweep must be importable before repro.experiments).

__all__ = [
    "CellResult",
    "MeteredCell",
    "execute_cell",
    "measure_kinds",
    "register_measure",
    "validate_measure",
    "RESULT_COLUMNS",
    "ERROR_COLUMN",
]

#: Extra export column appended after :data:`RESULT_COLUMNS` when (and only
#: when) a sweep carries recorded failures — fault-free exports keep their
#: exact historical bytes.
ERROR_COLUMN = "error"

#: Flat export columns shared by the CSV and table renderings, in order.
RESULT_COLUMNS = (
    "protocol",
    "init",
    "n",
    "noise",
    "trials",
    "successes",
    "rate",
    "median",
    "mean",
    "p95",
    "max",
    "settle",
    "engine",
)


@dataclass
class CellResult:
    """Outcome of one sweep cell, in store/transport form.

    ``cell`` is the cell's ``to_dict()`` form and ``payload`` the
    measurement outcome — both JSON-able, so a result pickles to/from worker
    processes and round-trips through the JSON-lines store unchanged.
    ``cached`` marks results served from a store instead of computed.

    A cell that exhausted its retries under a ``FaultPolicy`` with
    ``on_failure="record"`` carries an ``error`` dict (the
    :meth:`~repro.sweep.dispatch.FailedItem.to_record` form — error type,
    message, traceback tail, per-attempt log) and an empty payload; its
    :meth:`row` renders NaN in every payload-derived column plus the
    ``error`` column, and the payload accessors raise.
    """

    key: str
    cell: dict
    payload: dict
    cached: bool = field(default=False, compare=False)
    error: dict | None = None
    #: Worker-side metrics snapshot (``MetricsSnapshot.to_dict()`` form),
    #: attached by :class:`MeteredCell` when the sweep runs with telemetry;
    #: ``None`` otherwise. Excluded from equality: two runs of one cell are
    #: the same result regardless of how they were observed.
    metrics: dict | None = field(default=None, compare=False)
    #: Wall-clock seconds of the computing attempt; ``None`` on legacy
    #: records and on failure records (their duration is censored).
    elapsed_s: float | None = field(default=None, compare=False)
    #: Worker-side span log (``SpanLog.to_dict()`` form), attached by
    #: :class:`MeteredCell` when the sweep runs with tracing; ``None``
    #: otherwise. Like ``metrics``, excluded from equality and not
    #: persisted to the store (a cached cell was not executed, so it has
    #: no timeline).
    spans: dict | None = field(default=None, compare=False)
    #: Worker-side structured events (plain dict list), attached by
    #: :class:`MeteredCell` when the sweep runs with event logging.
    events: list | None = field(default=None, compare=False)

    @property
    def failed(self) -> bool:
        """Whether this cell is a recorded failure instead of a result."""
        return self.error is not None

    def _require_payload(self) -> None:
        if self.failed:
            raise ValueError(
                f"cell failed after {self.error.get('attempts', '?')} attempt(s) "
                f"({self.error.get('type')}: {self.error.get('message')}); "
                "it has no payload"
            )

    @property
    def measure(self) -> str:
        self._require_payload()
        return self.payload["measure"]

    def times(self) -> np.ndarray:
        self._require_payload()
        return np.asarray(self.payload["times"], dtype=float)

    def time_summary(self) -> TimesSummary:
        return describe_times(self.times())

    def stats(self) -> "TrialStats":
        """Rebuild the :class:`TrialStats` of a consensus cell."""
        from ..experiments.harness import TrialStats

        if self.measure != "consensus":
            raise ValueError(f"cell measured {self.measure!r}, not consensus")
        return TrialStats(
            protocol_name=self.payload["protocol"],
            initializer_name=self.payload["initializer"],
            n=self.cell["n"],
            trials=self.cell["trials"],
            max_rounds=self.cell["max_rounds"],
            successes=self.payload["successes"],
            times=self.times(),
            engine=self.payload["engine"],
        )

    def row(self) -> dict:
        """Flat dict over :data:`RESULT_COLUMNS` (+ ``error``) for export.

        Columns that do not apply to the cell's measure (``settle`` for
        consensus cells, ``successes``/``rate`` for a registered custom
        measure whose payload carries neither ``successes`` nor ``reached``)
        are NaN; exporters render NaN as blank. Failure records render NaN
        in every payload-derived column with the deterministic
        ``"ErrorType: message"`` rendering in ``error`` — succeeding rows
        carry an empty ``error`` so the column only surfaces in exports
        when a sweep actually recorded failures.
        """
        if self.failed:
            row = dict.fromkeys(RESULT_COLUMNS, float("nan"))
            row.update(
                {
                    "protocol": self.cell["protocol"]["name"],
                    "init": self.cell["initializer"]["name"],
                    "n": self.cell["n"],
                    "noise": self.cell["noise"],
                    "trials": self.cell["trials"],
                    "engine": "",
                    "error": f"{self.error.get('type')}: {self.error.get('message')}",
                }
            )
            if self.elapsed_s is not None:
                row["elapsed_s"] = self.elapsed_s
            return row
        trials = self.cell["trials"]
        summary = self.time_summary()
        settle = float("nan")
        if self.measure == "theta":
            successes = self.payload["reached"]
            levels = self.payload["settle_levels"]
            if levels:
                settle = float(np.mean(levels))
        else:
            successes = self.payload.get("successes", self.payload.get("reached", float("nan")))
        row = {
            "protocol": self.payload["protocol"],
            "init": self.payload["initializer"],
            "n": self.cell["n"],
            "noise": self.cell["noise"],
            "trials": trials,
            "successes": successes,
            "rate": successes / trials if trials else float("nan"),
            "median": summary.median,
            "mean": summary.mean,
            "p95": summary.p95,
            "max": summary.maximum,
            "settle": settle,
            "engine": self.payload["engine"],
            "error": "",
        }
        # Present only when recorded (new runs / new-format store records):
        # not a RESULT_COLUMN, so exported CSVs keep their exact legacy bytes.
        if self.elapsed_s is not None:
            row["elapsed_s"] = self.elapsed_s
        return row


# --------------------------------------------------------- measure registry

#: kind -> (executor(cell, factory, initializer) -> payload, validator(measure))
_MEASURES: dict[str, tuple[Callable, Callable[[dict], None] | None]] = {}


def register_measure(
    kind: str,
    executor: Callable[[Cell, Callable, object], dict],
    validator: Callable[[dict], None] | None = None,
) -> None:
    """Register a measurement kind for sweep cells.

    ``executor(cell, protocol_factory, initializer)`` must return a JSON-able
    payload dict carrying at least ``measure``, ``protocol``,
    ``initializer``, ``times`` and ``engine`` (the contract
    :meth:`CellResult.row` renders); include ``successes`` (or ``reached``)
    for the success-rate columns — without it they export as NaN/blank.
    ``validator(measure_dict)`` runs at spec construction so bad parameters
    fail before any cell is dispatched.
    """
    if kind in _MEASURES:
        raise ValueError(f"measure kind {kind!r} is already registered")
    _MEASURES[kind] = (executor, validator)


def measure_kinds() -> tuple[str, ...]:
    """The registered measurement kinds, in registration order."""
    return tuple(_MEASURES)


def validate_measure(measure: dict) -> None:
    """Fail fast on an unknown kind or invalid measure parameters."""
    kind = measure.get("kind")
    if kind not in _MEASURES:
        raise ValueError(f"measure kind must be one of {measure_kinds()}, got {measure!r}")
    validator = _MEASURES[kind][1]
    if validator is not None:
        validator(measure)


def execute_cell(cell: Cell) -> CellResult:
    """Run one cell to completion and package its result.

    Deterministic given the cell alone (the cell carries its derived seed),
    with no dependence on global state — safe to call from pool workers.
    The measured wall-clock rides along as :attr:`CellResult.elapsed_s`
    (persisted through the store's provenance stamp).
    """
    factory = protocol_factory(cell.protocol, cell.n)
    initializer = build_initializer(cell.initializer)
    kind = cell.measure["kind"]
    if kind not in _MEASURES:
        raise ValueError(f"unknown measure kind {cell.measure!r}")
    start = time.perf_counter()
    payload = _MEASURES[kind][0](cell, factory, initializer)
    return CellResult(
        key=cell.key(),
        cell=cell.to_dict(),
        payload=payload,
        elapsed_s=time.perf_counter() - start,
    )


class MeteredCell:
    """Picklable work-function wrapper that collects per-cell telemetry.

    Runs the wrapped function under *fresh local* observability state — in
    a pool worker or inline — and attaches by-value snapshots to the
    returned :class:`CellResult`: ``registry.snapshot().to_dict()`` on
    ``metrics`` (when ``metrics=True``, the default), a
    ``SpanLog.to_dict()`` on ``spans`` (when ``spans=True``; the cell's
    work runs under a root ``cell`` span labelled with protocol/n/key),
    and the event list on ``events`` (when ``events=True``). Snapshots
    ride back through the dispatcher's ordered ``on_result`` seam like any
    other result field, so the orchestrator can aggregate worker telemetry
    deterministically without shared memory. Attempts that raise (faults,
    timeouts) contribute no snapshot: their partial counts die with the
    attempt, keeping aggregated counters exactly reproducible across retry
    schedules.

    The flags are plain constructor state (not ambient reads) because
    ContextVars do not cross process boundaries — the wrapper pickles into
    pool workers carrying its configuration with it.

    Composes with other wrappers (e.g. the fault injector): whatever
    ``fn(item)`` returns, only :class:`CellResult` values get annotated.
    """

    def __init__(
        self,
        fn: Callable[[Cell], CellResult] = execute_cell,
        *,
        metrics: bool = True,
        spans: bool = False,
        events: bool = False,
    ) -> None:
        self.fn = fn
        self.metrics = metrics
        self.spans = spans
        self.events = events

    @staticmethod
    def _cell_labels(cell) -> dict:
        try:
            return {
                "protocol": cell.protocol["name"],
                "n": cell.n,
                "key": cell.key()[:12],
            }
        except Exception:
            return {}  # arbitrary work items (tests map over ints) get a bare span

    def __call__(self, cell: Cell) -> CellResult:
        registry = MetricsRegistry() if self.metrics else None
        tracer = SpanTracer() if self.spans else None
        log = EventLog() if self.events else None
        with ExitStack() as stack:
            if registry is not None:
                stack.enter_context(use_registry(registry))
            if log is not None:
                stack.enter_context(use_event_log(log))
            if tracer is not None:
                stack.enter_context(use_tracer(tracer))
                stack.enter_context(tracer.span("cell", **self._cell_labels(cell)))
            result = self.fn(cell)
        if isinstance(result, CellResult):
            if registry is not None:
                snapshot = registry.snapshot()
                if snapshot.metrics:
                    result.metrics = snapshot.to_dict()
            if tracer is not None:
                result.spans = tracer.snapshot().to_dict()
            if log is not None:
                result.events = log.events()
        return result


def _lockstep_engine(cell: Cell, engine: str, protocol, initializer):
    """The prepared counts or batched engine of a trace-backed measure. Both
    share one run contract (stop condition on the replica container,
    recorder, linger retirement), so the measures are engine-agnostic."""
    if engine == "counts":
        return cell.count_engine(protocol=protocol, initializer=initializer)
    return cell.batched_engine(protocol=protocol, initializer=initializer)


def _base_payload(kind: str, protocol_name: str, initializer, engine: str) -> dict:
    return {
        "measure": kind,
        "protocol": protocol_name,
        "initializer": initializer.name,
        "times": [],
        "engine": engine,
    }


# ------------------------------------------------------------- consensus


def _measure_consensus(cell: Cell, factory, initializer) -> dict:
    # The cell IS a RunSpec: its executor resolves the paired observation
    # model (noise/sampler), population shape, and engine policy itself.
    stats = cell.execute(protocol_factory=factory, initializer=initializer)
    return {
        "measure": "consensus",
        "protocol": stats.protocol_name,
        "initializer": stats.initializer_name,
        "successes": stats.successes,
        "times": [float(t) for t in stats.times],
        "engine": stats.engine,
    }


# ----------------------------------------------------------------- theta


def _validate_theta(measure: dict) -> None:
    if "theta" not in measure:
        raise ValueError(f"theta measure needs a 'theta' threshold, got {measure!r}")
    theta = float(measure["theta"])
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if int(measure.get("settle_window", 20)) < 0:
        raise ValueError(f"settle_window must be >= 0, got {measure['settle_window']}")


def _measure_theta(cell: Cell, factory, initializer) -> dict:
    """θ-convergence + settle level, on a lock-step engine by default.

    The lock-step path (counts or batched, as the cell's engine policy
    resolves) runs all trials with a full-trace recorder:
    ``linger_rounds`` keeps each replica stepping through its settle window
    after it first held θ for the stability window (exactly the sequential
    semantics of stopping at θ and then stepping on), and the per-trial
    settle levels come vectorized from the recorded non-source correct
    fractions. ``engine="sequential"`` keeps the original per-trial loop.
    """
    theta = float(cell.measure["theta"])
    settle_window = int(cell.measure.get("settle_window", 20))
    protocol = factory()
    engine = cell.resolve_engine(protocol, initializer)
    if engine == "sequential":
        return _measure_theta_sequential(cell, factory, initializer, theta, settle_window)
    base = _base_payload("theta", protocol.name, initializer, engine)
    base.update({"reached": 0, "settle_levels": [], "theta": theta, "settle_window": settle_window})
    if cell.trials == 0:
        return base
    recorder = FullTrace()
    result = _lockstep_engine(cell, engine, protocol, initializer).run(
        cell.max_rounds,
        stability_rounds=cell.stability_rounds,
        stop_condition=lambda b: b.nonsource_correct_fraction() >= theta,
        recorder=recorder,
        linger_rounds=settle_window,
    )
    trace = recorder.trace()
    levels = nonsource_correct_fractions(trace)
    # The settle window opens where the sequential run stops stepping: the
    # round the stability window closed (t_con + stability - 1).
    window_start = np.where(
        result.converged, result.rounds + (cell.stability_rounds - 1), -1
    )
    settle = window_mean_after(levels, trace.rounds, window_start, settle_window)
    base.update(
        {
            "reached": int(result.successes),
            "times": [float(t) for t in result.times()],
            "settle_levels": [float(level) for level in settle[result.converged]],
        }
    )
    return base


def _measure_theta_sequential(
    cell: Cell, factory, initializer, theta: float, settle_window: int
) -> dict:
    """Per-trial θ measurement on the sequential engine (cross-check path).

    The settle window keeps stepping an engine after its stop condition
    fired — the original semantics the batched linger path reproduces.
    """
    from ..core.population import make_population

    protocol_name = ""
    times: list[int] = []
    settle_levels: list[float] = []
    reached = 0
    scalar_factory = cell.samplers()[0]
    for rng in spawn_rngs(cell.seed, cell.trials):
        protocol = factory()
        protocol_name = protocol.name
        population = make_population(cell.n, cell.correct_opinion, num_sources=cell.num_sources)
        state = protocol.init_state(cell.n, rng)
        initializer(population, protocol, state, rng)
        engine = SynchronousEngine(
            protocol,
            population,
            sampler=scalar_factory() if scalar_factory is not None else None,
            rng=rng,
            state=state,
        )
        result = engine.run(
            cell.max_rounds,
            stability_rounds=cell.stability_rounds,
            stop_condition=lambda pop: pop.nonsource_correct_fraction() >= theta,
        )
        if result.converged:
            reached += 1
            times.append(result.rounds)
            levels = []
            for _ in range(settle_window):
                engine.step()
                levels.append(population.nonsource_correct_fraction())
            settle_levels.append(float(np.mean(levels)) if levels else float("nan"))
    if cell.trials == 0:
        protocol_name = factory().name
    return {
        "measure": "theta",
        "protocol": protocol_name,
        "initializer": initializer.name,
        "reached": reached,
        "times": [float(t) for t in times],
        "settle_levels": settle_levels,
        "theta": theta,
        "settle_window": settle_window,
        "engine": "sequential",
    }


# ----------------------------------------------------------------- trace


def _validate_trace(measure: dict) -> None:
    if int(measure.get("stride", 1)) < 1:
        raise ValueError(f"stride must be >= 1, got {measure['stride']}")
    ring = measure.get("ring")
    if ring is not None and int(ring) < 1:
        raise ValueError(f"ring capacity must be >= 1, got {ring}")
    if float(measure.get("tolerance", 0.0)) < 0:
        raise ValueError(f"tolerance must be >= 0, got {measure['tolerance']}")


def _measure_trace(cell: Cell, factory, initializer) -> dict:
    """Convergence aggregates plus trace-derived trajectory statistics.

    Runs the cell's trials on a lock-step engine (counts when the cell's
    policy resolves to it, else batched) with a recorder configured
    by the measure parameters (``stride``, ``ring`` capacity, ``flips``) and
    reduces the trace vectorized: per-replica settle round (the round the
    trajectory freezes, within ``tolerance``) and, when the flip channel is
    on, the post-settle flip rate. Also the workload of the trace-overhead
    benchmark: it is the consensus measurement plus recording.
    """
    if cell.engine == "sequential":
        # No silent engine override: unlike theta, this measure has no
        # per-trial sequential implementation (merging per-trial ring/stride
        # windows is not well-defined), so an explicit sequential request is
        # an error rather than a different dynamics stream than asked for.
        raise ValueError(
            "the trace measure runs on the batched engine; "
            "engine='sequential' is not supported for kind='trace'"
        )
    stride = int(cell.measure.get("stride", 1))
    ring = cell.measure.get("ring")
    flips = bool(cell.measure.get("flips", False))
    tolerance = float(cell.measure.get("tolerance", 0.0))
    protocol = factory()
    # No per-trial implementation: a sequential resolution runs batched.
    engine = "counts" if cell.resolve_engine(protocol, initializer) == "counts" else "batched"
    base = _base_payload("trace", protocol.name, initializer, engine)
    base.update({"successes": 0, "settle_rounds": [], "recorded_columns": 0})
    if cell.trials == 0:
        return base
    recorder = make_recorder(ring=ring, stride=stride, record_flips=flips)
    result = _lockstep_engine(cell, engine, protocol, initializer).run(
        cell.max_rounds,
        stability_rounds=cell.stability_rounds,
        recorder=recorder,
        linger_rounds=cell.linger_rounds,
    )
    trace = recorder.trace()
    settle = settle_rounds(trace.x, trace.rounds, tolerance=tolerance)
    base.update(
        {
            "successes": int(result.successes),
            "times": [float(t) for t in result.times()],
            "final_x_mean": float(result.final_fractions.mean()),
            "settle_rounds": [int(t) for t in settle],
            "recorded_columns": trace.columns,
        }
    )
    if flips:
        rates = post_settle_flip_rate(trace, settle)
        finite = rates[np.isfinite(rates)]
        base["post_settle_flip_rate"] = float(finite.mean()) if finite.size else float("nan")
    return base


register_measure("consensus", _measure_consensus)
register_measure("theta", _measure_theta, _validate_theta)
register_measure("trace", _measure_trace, _validate_trace)
