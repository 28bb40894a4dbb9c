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
    spec itself: noise cells get the noisy sampler, declarative
    ``sampler`` components their registry entry.
``theta``
    θ-convergence plus settle level — the robustness measurement of
    :mod:`repro.experiments.robustness`. The settle window is served by
    trace recording plus ``linger_rounds`` retirement (replicas keep
    stepping through their window before retiring), and the per-trial
    settle levels are reduced vectorized from the trace — on one lock-step
    engine, or on one single-replica engine per trial under
    ``engine="sequential"``.
``trace``
    Convergence aggregates plus trace-derived trajectory statistics (settle
    round per replica, optional post-settle flip rate) recorded through a
    configurable recorder (``stride``, ``ring`` capacity, ``flips``) —
    also the workload of the trace-overhead benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..telemetry.ambient import Telemetry, use_telemetry
from ..telemetry.spans import span
from ..stats.summary import TimesSummary, describe_times
from ..trace import (
    FullTrace,
    make_recorder,
    nonsource_correct_fractions,
    post_settle_flip_rate,
    settle_rounds,
    window_mean_after,
)
from .registry import build_initializer, build_protocol
from .spec import Cell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.protocol import Protocol
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
    ``cached`` marks results served from a store instead of computed
    (:meth:`from_record` rebuilds one from its store record).

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
    #: Wall-clock seconds of the computing attempt; ``None`` on legacy
    #: records and on failure records (their duration is censored).
    elapsed_s: float | None = field(default=None, compare=False)
    #: Worker-side telemetry payload (:meth:`Telemetry.payload` form: the
    #: metrics snapshot, span log and events of the pillars the sweep ran
    #: with), attached by :class:`MeteredCell`; ``None`` otherwise.
    #: Excluded from equality — two runs of one cell are the same result
    #: however they were observed — and never persisted to the store (a
    #: cached cell was not executed, so it has nothing to report).
    telemetry: dict | None = field(default=None, compare=False)

    @classmethod
    def from_record(cls, key: str, record: dict) -> "CellResult":
        """Rebuild a cached result (or failure record) from its store record.

        Legacy records that still carry a ``metrics`` snapshot load the
        same: the snapshot is ignored, since cached cells are never merged.
        """
        if "error" in record:
            return cls(
                key=key, cell=record["cell"], payload={}, cached=True, error=record["error"]
            )
        provenance = record.get("provenance") or {}
        return cls(
            key=key, cell=record["cell"], payload=record["payload"], cached=True,
            elapsed_s=provenance.get("elapsed_s"),
        )

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

#: kind -> (executor(cell, protocol, initializer) -> payload, validator(measure))
_MEASURES: dict[str, tuple[Callable, Callable[[dict], None] | None]] = {}


def register_measure(
    kind: str,
    executor: Callable[[Cell, "Protocol", object], dict],
    validator: Callable[[dict], None] | None = None,
) -> None:
    """Register a measurement kind for sweep cells.

    ``executor(cell, protocol, initializer)`` must return a JSON-able
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
    protocol = build_protocol(cell.protocol, cell.n)
    initializer = build_initializer(cell.initializer)
    kind = cell.measure["kind"]
    if kind not in _MEASURES:
        raise ValueError(f"unknown measure kind {cell.measure!r}")
    start = time.perf_counter()
    payload = _MEASURES[kind][0](cell, protocol, initializer)
    return CellResult(
        key=cell.key(),
        cell=cell.to_dict(),
        payload=payload,
        elapsed_s=time.perf_counter() - start,
    )


class MeteredCell:
    """Picklable work-function wrapper that collects per-cell telemetry.

    Runs the wrapped function under a *fresh local* telemetry bundle with
    the named ``pillars`` switched on (``"metrics"``, ``"spans"``,
    ``"events"`` — the orchestrator passes the pillars of its own bundle)
    — in a pool worker or inline — and attaches the bundle's by-value
    payload to the returned :class:`CellResult` as ``telemetry``. With
    spans on, the cell's work runs under a root ``cell`` span labelled
    with protocol/n/key. Payloads ride back through the dispatcher's
    ordered ``on_result`` seam like any other result field, so the
    orchestrator can aggregate worker telemetry deterministically without
    shared memory. Attempts that raise (faults, timeouts) contribute no
    payload: their partial counts die with the attempt, keeping aggregated
    counters exactly reproducible across retry schedules.

    The pillar names are plain constructor state (not ambient reads)
    because ContextVars do not cross process boundaries — the wrapper
    pickles into pool workers carrying its configuration with it.

    Composes with other wrappers (e.g. the fault injector): whatever
    ``fn(item)`` returns, only :class:`CellResult` values get annotated.
    """

    def __init__(
        self,
        fn: Callable[[Cell], CellResult] = execute_cell,
        pillars: Iterable[str] = ("metrics",),
    ) -> None:
        self.fn = fn
        self.pillars = tuple(pillars)

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
        bundle = Telemetry.fresh(self.pillars)
        labels = self._cell_labels(cell) if bundle.tracer is not None else {}
        with use_telemetry(bundle), span("cell", **labels):
            result = self.fn(cell)
        if isinstance(result, CellResult):
            result.telemetry = bundle.payload()
        return result


def _lockstep_engines(cell: Cell, engine: str, protocol, initializer):
    """The prepared lock-step engines of a trace-backed measure: one counts
    or batched engine, or one single-replica engine per trial for
    ``"sequential"``. All share one run contract (stop condition on the
    replica container, recorder, linger retirement), so the measures are
    engine-agnostic."""
    from ..experiments.harness import make_lockstep_engines

    return make_lockstep_engines(cell, engine, protocol=protocol, initializer=initializer)


def _base_payload(kind: str, protocol_name: str, initializer, engine: str) -> dict:
    return {
        "measure": kind,
        "protocol": protocol_name,
        "initializer": initializer.name,
        "times": [],
        "engine": engine,
    }


# ------------------------------------------------------------- consensus


def _measure_consensus(cell: Cell, protocol, initializer) -> dict:
    # The cell IS a RunSpec: its executor resolves the observation model
    # (noise/sampler), population shape, and engine policy itself.
    stats = cell.execute(protocol=protocol, initializer=initializer)
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


def _measure_theta(cell: Cell, protocol, initializer) -> dict:
    """θ-convergence + settle level, on the lock-step engines.

    Every engine (counts, batched, or the per-trial engines of
    ``"sequential"``) runs its trials with a full-trace recorder:
    ``linger_rounds`` keeps each replica stepping through its settle window
    after it first held θ for the stability window, and the per-trial
    settle levels come vectorized from the recorded non-source correct
    fractions.
    """
    theta = float(cell.measure["theta"])
    settle_window = int(cell.measure.get("settle_window", 20))
    engine = cell.resolve_engine(protocol)
    base = _base_payload("theta", protocol.name, initializer, engine)
    base.update({"reached": 0, "settle_levels": [], "theta": theta, "settle_window": settle_window})
    if cell.trials == 0:
        return base
    for lockstep in _lockstep_engines(cell, engine, protocol, initializer):
        recorder = FullTrace()
        result = lockstep.run(
            cell.max_rounds,
            stability_rounds=cell.stability_rounds,
            stop_condition=lambda b: b.nonsource_correct_fraction() >= theta,
            recorder=recorder,
            linger_rounds=settle_window,
        )
        trace = recorder.trace()
        levels = nonsource_correct_fractions(trace)
        # The settle window opens where the θ condition's stability window
        # closed: round t_con + stability - 1.
        window_start = np.where(
            result.converged, result.rounds + (cell.stability_rounds - 1), -1
        )
        settle = window_mean_after(levels, trace.rounds, window_start, settle_window)
        base["reached"] += int(result.successes)
        base["times"] += [float(t) for t in result.times()]
        base["settle_levels"] += [float(level) for level in settle[result.converged]]
    return base


# ----------------------------------------------------------------- trace


def _validate_trace(measure: dict) -> None:
    if int(measure.get("stride", 1)) < 1:
        raise ValueError(f"stride must be >= 1, got {measure['stride']}")
    ring = measure.get("ring")
    if ring is not None and int(ring) < 1:
        raise ValueError(f"ring capacity must be >= 1, got {ring}")
    if float(measure.get("tolerance", 0.0)) < 0:
        raise ValueError(f"tolerance must be >= 0, got {measure['tolerance']}")


def _measure_trace(cell: Cell, protocol, initializer) -> dict:
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
    engine = cell.resolve_engine(protocol)
    base = _base_payload("trace", protocol.name, initializer, engine)
    base.update({"successes": 0, "settle_rounds": [], "recorded_columns": 0})
    if cell.trials == 0:
        return base
    recorder = make_recorder(ring=ring, stride=stride, record_flips=flips)
    (lockstep,) = _lockstep_engines(cell, engine, protocol, initializer)
    result = lockstep.run(
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
