"""The one synchronous round loop: the lock-step driver behind every engine.

Both replica engines advance R independent trials of one condition in
lock-step and differ only in how a replica is stored and stepped: an
``(R, n)`` opinion matrix on :class:`~repro.core.batch.BatchedEngine`, an
``(R, S)`` state-count matrix on :class:`~repro.core.counts.CountEngine`.
Beside it, both carry the protocol's per-replica state in one
``states`` dict with a leading replica axis (per-agent arrays on batched,
the count model's carried state — FET's counter law — on counts).
Everything else — stability windows, ``t_con`` accounting, lock/linger
settle windows, retirement into a compact working set, trace recorders,
telemetry — is :func:`run_lockstep`, written once over a small backend
that :class:`LockstepEngine` subclasses implement:

* ``_rows`` — the full replica container (``select``, ``fraction_ones``,
  ``invalidate_cache`` and the consensus predicates);
* ``_step(work, flips, horizon)`` — advance the working set in place,
  returning per-row flip counts when asked and the rounds each row
  advanced (``1``, or an ``(A,)`` array of ``Δ ≥ 1``);
* ``_retire(retired, work, done)`` — write the finished working rows back
  into ``_rows``.

The driver compacts ``states`` with the working set when replicas retire.

**Per-replica clocks.** Every iteration advances each working row by at
least one round; a backend may advance a row further (the counts engine
lets a still two-class replica jump straight to the round where it next
moves, :mod:`repro.protocols.counting`), so each row keeps its own round
clock. ``horizon()`` tells the backend how far each row may go: no row
crosses, mid-jump, its round budget (unlocked rows), the end of its
stability window (a row whose condition holds), or the end of its linger
countdown (locked rows). Those are the only rounds the loop acts on, so a
row's accounting — its ``t_con``, its lock round, its retirement — is what
stepping it round by round gives. A streak grows by ``Δ`` across a jump
when the condition held before it and restarts at 1 otherwise
(``where(streak > 0, streak + Δ, 1) * cond``, which is ``(streak + 1) *
cond`` at ``Δ = 1``). With a recorder attached no horizon is offered and
every ``Δ`` is 1, so traces and the θ measure still see every round; the
batched engine always advances one round.

Sharing the driver is what makes ``engine="auto"`` a transparent switch:
whichever engine it resolves to, the run contract is the same code. The
single-population :class:`~repro.core.engine.SynchronousEngine` and
``engine="sequential"`` are its ``R = 1`` case.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..telemetry import catalog
from ..telemetry.registry import current_registry
from ..telemetry.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only; trace layers on core
    from ..telemetry.registry import MetricsRegistry
    from ..trace.recorder import TraceRecorder

__all__ = ["BatchRunResult", "LockstepEngine", "run_lockstep"]


@dataclass
class BatchRunResult:
    """Per-replica outcome of a lock-step engine run.

    Attributes
    ----------
    converged:
        ``(R,)`` bool — replica reached the correct consensus and held it for
        the stability window before ``max_rounds``.
    rounds:
        ``(R,)`` int — the replica's ``t_con`` (first round of the final
        streak) when converged, else the number of rounds executed; exactly
        :attr:`RunResult.rounds`, per replica.
    rounds_executed:
        ``(R,)`` int — synchronous rounds the replica advanced (its
        retirement round, or ``max_rounds``), rounds covered by jumps
        included. Throughput accounting.
    final_fractions:
        ``(R,)`` float — one-fraction of each replica's final configuration.
    """

    converged: np.ndarray
    rounds: np.ndarray
    rounds_executed: np.ndarray
    final_fractions: np.ndarray

    @property
    def replicas(self) -> int:
        return int(self.converged.shape[0])

    @property
    def successes(self) -> int:
        return int(np.count_nonzero(self.converged))

    def times(self) -> np.ndarray:
        """Convergence rounds of the successful replicas, as floats."""
        return self.rounds[self.converged].astype(float)

    def summary(self) -> dict:
        return {
            "replicas": self.replicas,
            "successes": self.successes,
            "total_rounds_executed": int(self.rounds_executed.sum()),
        }


class LockstepEngine(ABC):
    """Base of the replica engines: the shared ``run`` and its backend hooks.

    Subclasses set :attr:`engine_name` (the ``engine`` label of spans and
    metrics), initialize ``round_index = 0``, ``_consumed = False`` and the
    per-replica protocol ``states`` (``{}`` when there are none), and
    implement the backend (module docstring).
    """

    engine_name = ""
    round_index: int
    _consumed: bool
    states: dict[str, np.ndarray]

    @property
    @abstractmethod
    def _rows(self) -> Any:
        """The full replica container the run reads and writes back into."""

    @abstractmethod
    def _step(
        self, work: Any, flips: bool, horizon: Callable[[], np.ndarray] | None
    ) -> tuple[np.ndarray | None, int | np.ndarray]:
        """Advance ``work`` in place: per-row flips if asked, and the rounds
        each row advanced — ``1``, or ``(A,)`` values no larger than
        ``horizon()`` (only offered when rows may jump)."""

    @abstractmethod
    def _retire(self, retired: np.ndarray, work: Any, done: np.ndarray) -> None:
        """Write ``work``'s ``done`` rows back into ``_rows`` at ``retired``."""

    @abstractmethod
    def _recorder_facts(self) -> dict:
        """``sources_correct`` and ``pin_each_round`` for ``recorder.bind``."""

    def _check_recorder(self, flips: bool) -> None:
        """Reject recorder channels the backend cannot fill."""

    def _observe(self, metrics: "MetricsRegistry") -> None:
        """Backend-specific metrics, emitted once per run."""

    def run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int = 2,
        stop_condition: Callable[[Any], np.ndarray] | None = None,
        recorder: "TraceRecorder | None" = None,
        linger_rounds: int = 0,
    ) -> BatchRunResult:
        """Run until every replica converged (condition held for
        ``stability_rounds`` consecutive observations) or ``max_rounds``.

        ``stop_condition`` optionally replaces the correct-consensus test; it
        must map the engine's replica container (a working subset of its
        rows) to an ``(A,)`` boolean vector over them (e.g.
        ``at_consensus``).

        ``recorder`` optionally captures per-replica trajectories: the engine
        reports the full ``(R,)`` one-fraction vector (and, when the recorder
        asks for them and the engine can count them, per-replica flip
        counts) for round 0 and after every executed round, with retired
        rows frozen at their final values.

        ``linger_rounds`` keeps a replica running that many extra rounds
        after its convergence is detected before retiring it — convergence
        accounting (``converged``/``rounds``) is locked at detection and not
        revisited. This is the settle-window hook: the θ measure keeps each
        replica stepping after its stop condition fired, under retirement
        (the extra rounds are allowed to run past ``max_rounds``).

        Single-shot: retirement compacts the working state down to the
        replicas that were still running, so a second ``run`` on the same
        engine has no coherent state to resume from and is rejected. To
        continue simulating one population, run it through
        :class:`~repro.core.engine.SynchronousEngine`, whose every ``run``
        drives a fresh one-row engine over the same one-row population and
        stacked ``(1, …)`` state: retirement writes the final row back into
        the population, and the state dict was stepped in place.
        """
        # Same bound and message as RunSpec's: a 0-round budget cannot
        # observe anything.
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        with span("engine.run", engine=self.engine_name):
            return run_lockstep(
                self,
                max_rounds,
                stability_rounds=stability_rounds,
                stop_condition=stop_condition,
                recorder=recorder,
                linger_rounds=linger_rounds,
            )


def run_lockstep(
    engine: LockstepEngine,
    max_rounds: int,
    *,
    stability_rounds: int,
    stop_condition: Callable[[Any], np.ndarray] | None,
    recorder: "TraceRecorder | None",
    linger_rounds: int,
) -> BatchRunResult:
    """The lock-step loop of :meth:`LockstepEngine.run` over ``engine``'s
    backend hooks (see the module docstring). A zero-round budget only
    checks the initial configuration."""
    if engine._consumed:
        raise RuntimeError(
            f"{type(engine).__name__}.run is single-shot; build a fresh engine to run again"
        )
    engine._consumed = True
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    if stability_rounds < 1:
        raise ValueError(f"stability_rounds must be >= 1, got {stability_rounds}")
    if linger_rounds < 0:
        raise ValueError(f"linger_rounds must be non-negative, got {linger_rounds}")
    wants_flips = recorder is not None and getattr(recorder, "record_flips", False)
    engine._check_recorder(wants_flips)
    rows = engine._rows
    condition = stop_condition or type(rows).at_correct_consensus
    metrics = current_registry()
    run_start = time.perf_counter() if metrics is not None else 0.0

    total = rows.replicas
    converged = np.zeros(total, dtype=bool)
    rounds = np.zeros(total, dtype=np.int64)
    rounds_executed = np.zeros(total, dtype=np.int64)

    # Compact working set: only rows still running. ``ids`` maps working
    # row -> replica index in the full container.
    ids = np.arange(total)
    work = rows.select(ids)

    if recorder is not None:
        recorder.bind(
            replicas=total,
            n=rows.n,
            num_sources=rows.num_sources,
            correct_opinion=rows.correct_opinion,
            **engine._recorder_facts(),
        )
        # Full-batch value vectors; retired rows simply stop being written,
        # which freezes them at their final values.
        current_x = work.fraction_ones().astype(float)
        current_flips = np.zeros(total, dtype=np.int64) if wants_flips else None
        recorder.on_round(0, current_x, current_flips)

    # ``streak`` counts the consecutive rounds, up to the row's current one,
    # that satisfied the condition, so its first round is ``clock + 1 -
    # streak``. Lock/linger bookkeeping: a replica whose streak reaches the
    # stability window is *locked* (its outcome is final, its streak no
    # longer read) but keeps stepping for ``linger_rounds`` more rounds
    # before it retires. A row's clock is ``rounds_done + ahead``: the
    # iterations run plus the extra rounds its jumps covered; ``lead``
    # bounds ``ahead`` over the working set, so rounds that nobody jumped
    # keep the scalar budget test. A row locks only on a round its condition
    # held and retires only once locked or out of budget, so a round where
    # neither can happen pays one reduction, ``holds.any()``.
    holds = condition(work)
    streak = holds.astype(np.int64)
    any_locked = False
    locked = np.zeros(total, dtype=bool)
    locked_round = np.full(total, -1, dtype=np.int64)
    countdown = np.zeros(total, dtype=np.int64)
    ahead = np.zeros(total, dtype=np.int64)
    lead = 0
    rounds_done = 0

    def horizon() -> np.ndarray:
        """How far each working row may advance: locked rows to the end of
        their linger countdown, the others to their budget and, while the
        condition holds, to the end of their stability window."""
        window = np.where(streak > 0, stability_rounds - streak, max_rounds)
        budget = np.minimum(max_rounds - rounds_done - ahead, window)
        return np.where(locked, countdown, budget)

    while True:
        if holds.any():
            newly_locked = ~locked & (streak >= stability_rounds)
            if newly_locked.any():
                first_round = rounds_done + ahead + 1 - streak
                locked_round = np.where(newly_locked, first_round, locked_round)
                countdown = np.where(newly_locked, linger_rounds, countdown)
                locked = locked | newly_locked
                any_locked = True
        out_of_budget = rounds_done + lead >= max_rounds
        if any_locked or out_of_budget:
            done = locked & (countdown <= 0)
            if out_of_budget:
                # Budget exhausted: unconverged replicas stop here; locked
                # replicas mid-linger keep stepping their settle window out.
                done = done | (~locked & (rounds_done + ahead >= max_rounds))
            if done.any():
                retired = ids[done]
                conv = locked[done]
                clock = rounds_done + ahead[done]
                converged[retired] = conv
                rounds[retired] = np.where(conv, locked_round[done], clock)
                rounds_executed[retired] = clock
                engine._retire(retired, work, done)
                keep = ~done
                engine.states = {key: value[keep] for key, value in engine.states.items()}
                ids, streak, locked, locked_round, countdown, ahead = (
                    array[keep] for array in (ids, streak, locked, locked_round, countdown, ahead)
                )
                lead = int(ahead.max()) if ahead.size else 0
                any_locked = bool(locked.any())
                if ids.size:
                    work = work.select(keep)
        if ids.size == 0:
            break
        flips, delta = engine._step(work, wants_flips, None if recorder is not None else horizon)
        rounds_done += 1
        engine.round_index += 1
        holds = condition(work)
        if isinstance(delta, np.ndarray):
            ahead += delta - 1
            lead = int(ahead.max())
            countdown = countdown - locked * delta
            streak = np.where(streak > 0, streak + delta, 1) * holds
        else:
            countdown = countdown - locked
            streak = (streak + 1) * holds
        if recorder is not None:
            current_x[ids] = work.fraction_ones()
            if wants_flips:
                current_flips[:] = 0
                current_flips[ids] = flips
            recorder.on_round(rounds_done, current_x, current_flips)

    rows.invalidate_cache()
    if metrics is not None:
        catalog.ENGINE_ROUNDS.on(metrics, engine=engine.engine_name).inc(rounds_done)
        catalog.ENGINE_REPLICAS_RETIRED.on(metrics).inc(total)
        catalog.ENGINE_RUN_SECONDS.on(metrics, engine=engine.engine_name).observe(
            time.perf_counter() - run_start
        )
        engine._observe(metrics)
    return BatchRunResult(
        converged=converged,
        rounds=rounds,
        rounds_executed=rounds_executed,
        final_fractions=rows.fraction_ones(),
    )
