"""Synchronous round engine: the single-population view of the lock-step driver.

Drives a :class:`~repro.core.protocol.Protocol` over a
:class:`~repro.core.population.PopulationState` in synchronous rounds, exactly
as in the paper's model: every agent simultaneously observes, updates its
internal state, and publishes its next opinion. Detects convergence to the
correct consensus and (for self-stabilizing protocols such as FET) verifies a
stability window so that the reported time matches the paper's ``t_con`` — the
first round after which the configuration "remained unchanged forever after".

For FET specifically, two consecutive all-correct rounds are provably
absorbing: with ``x_t = x_{t+1} = 1`` every sampled block is all ones, both
counters equal ℓ, and the tie rule keeps every opinion. The default stability
window of 2 therefore makes the detection exact rather than heuristic.

:class:`SynchronousEngine` owns no round loop, no sampler and no protocol
step of its own: it is the ``R = 1`` case of
:class:`~repro.core.batch.BatchedEngine`
(:class:`~repro.core.batch.SequentialEngine`). Each :meth:`~SynchronousEngine.run`
drives a one-row batch built on the caller's population and state through
:func:`~repro.core.lockstep.run_lockstep` — observing through a
:class:`~repro.core.sampling.BatchedSampler`, stepping through
``Protocol.step_batch`` — then writes the final opinions and state back, so
the population is mutated in place and runs can be chained. An
``initializer`` is likewise installed through its batched ``apply_batch`` on
that one-row batch.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..telemetry.spans import span
from ..trace.recorder import FullTrace
from .batch import BatchedPopulation, SequentialEngine
from .lockstep import run_lockstep
from .population import PopulationState
from .protocol import Protocol, ProtocolState
from .records import RoundRecord, RunResult
from .rng import as_rng
from .sampling import BatchedBinomialSampler, BatchedSampler

if TYPE_CHECKING:  # pragma: no cover - typing only; layers built on core
    from ..initializers.standard import Initializer
    from ..trace.recorder import TraceRecorder

__all__ = ["SynchronousEngine", "run_protocol"]


class SynchronousEngine:
    """Stateful single-population simulation driver.

    Parameters
    ----------
    protocol:
        The update rule to execute.
    population:
        The population to mutate in place.
    sampler:
        PULL sampler, observing the one-row batch. Defaults to the fast
        exact-in-distribution :class:`BatchedBinomialSampler`.
    rng:
        Generator or integer seed for all stochastic choices.
    state:
        Pre-built internal protocol state (e.g. adversarial); defaults to the
        protocol's clean initial state.
    initializer:
        Optional initial configuration, installed at construction through
        its one implementation, ``apply_batch``, on the one-row batch (after
        ``state``, on ``rng``).
    """

    def __init__(
        self,
        protocol: Protocol,
        population: PopulationState,
        *,
        sampler: BatchedSampler | None = None,
        rng: int | np.random.Generator | None = None,
        state: ProtocolState | None = None,
        initializer: "Initializer | None" = None,
    ) -> None:
        self.protocol = protocol
        self.population = population
        self.sampler = sampler if sampler is not None else BatchedBinomialSampler()
        self.rng = as_rng(rng)
        self.state = state if state is not None else protocol.init_state(population.n, self.rng)
        self.round_index = 0
        if initializer is not None:
            engine = self._engine()
            initializer.apply_batch(engine.batch, protocol, engine.states, self.rng)
            self._write_back(engine, engine.states)
        # The engine pins sources once up-front so that a sloppy caller cannot
        # start a single-source run with a deviating source opinion.
        if population.pin_each_round:
            population.pin_sources()

    def _engine(self) -> SequentialEngine:
        """A fresh one-row engine over the population's live arrays — the
        source structure is read anew on every call, since callers (e.g.
        the changing-environment experiment) flip preferences between
        steps."""
        population = self.population
        batch = BatchedPopulation._trusted(
            population.opinions[None, :].copy(),
            population.source_mask,
            population.source_preferences,
            population.correct_opinion,
            population.pin_each_round,
        )
        engine = SequentialEngine(
            self.protocol,
            batch,
            sampler=self.sampler,
            rng=self.rng,
            states={key: value[None] for key, value in self.state.items()},
        )
        engine.round_index = self.round_index
        return engine

    def _write_back(self, engine: SequentialEngine, states: ProtocolState) -> None:
        self.population.set_opinions(engine.batch.opinions[0])
        self.state.update({key: value[0] for key, value in states.items()})
        self.round_index = engine.round_index

    def step(self) -> RoundRecord:
        """Run one synchronous round and return its summary.

        Flips are counted against the *published* opinion vectors, i.e. after
        sources are re-pinned: a source whose tentative opinion deviated but
        was pinned straight back never changed its public output.
        """
        engine = self._engine()
        x_before = self.population.fraction_ones()
        old = self.population.opinions
        engine._step(engine.batch, False)
        engine.round_index += 1
        self._write_back(engine, engine.states)
        return RoundRecord(
            round_index=self.round_index - 1,
            x_before=x_before,
            x_after=self.population.fraction_ones(),
            flips=int(np.count_nonzero(self.population.opinions != old)),
        )

    def run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int = 2,
        record_flips: bool = False,
        stop_condition: Callable[[PopulationState], bool] | None = None,
        recorder: "TraceRecorder | None" = None,
    ) -> RunResult:
        """Run until convergence (correct consensus held for
        ``stability_rounds`` consecutive observations) or ``max_rounds``.

        ``stop_condition`` optionally replaces the correct-consensus test,
        e.g. for experiments that stop on *any* consensus (baseline dynamics).

        ``recorder`` optionally mirrors the run into the trace subsystem as a
        one-replica batch — the same :class:`~repro.trace.recorder.BatchTrace`
        shape the batched engine produces.
        """
        wants_flips = recorder is not None and getattr(recorder, "record_flips", False)
        full = FullTrace(record_flips=record_flips or wants_flips)
        condition = None
        if stop_condition is not None:
            condition = lambda rows: np.array([stop_condition(rows.replica(0))])  # noqa: E731
        engine = self._engine()
        with span("engine.run", engine=engine.engine_name):
            result = run_lockstep(
                engine,
                max_rounds,
                stability_rounds=stability_rounds,
                stop_condition=condition,
                recorder=full,
                linger_rounds=0,
            )
        self._write_back(engine, engine.final_states)
        trace = full.trace()
        if recorder is not None:
            recorder.bind(**trace.meta)
            for column, round_index in enumerate(trace.rounds):
                flips = trace.flips[:, column] if wants_flips else None
                recorder.on_round(int(round_index), trace.x[:, column], flips)
        (run_result,) = trace.to_run_results(result)
        if not record_flips:
            run_result = replace(run_result, flips=np.zeros(0, dtype=np.int64))
        return run_result


def run_protocol(
    protocol: Protocol,
    population: PopulationState,
    max_rounds: int,
    *,
    sampler: BatchedSampler | None = None,
    rng: int | np.random.Generator | None = None,
    state: ProtocolState | None = None,
    initializer: "Initializer | None" = None,
    stability_rounds: int = 2,
    record_flips: bool = False,
) -> RunResult:
    """One-shot convenience wrapper around :class:`SynchronousEngine`."""
    engine = SynchronousEngine(
        protocol,
        population,
        sampler=sampler,
        rng=rng,
        state=state,
        initializer=initializer,
    )
    return engine.run(
        max_rounds,
        stability_rounds=stability_rounds,
        record_flips=record_flips,
    )
