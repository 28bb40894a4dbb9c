"""Synchronous round engine: the single-population view of the lock-step driver.

Drives a :class:`~repro.core.protocol.Protocol` over one population — a
one-row :class:`~repro.core.batch.BatchedPopulation`
(:func:`~repro.core.population.make_population`) — in synchronous rounds,
exactly as in the paper's model: every agent simultaneously observes,
updates its internal state, and publishes its next opinion. Detects
convergence to the correct consensus and (for self-stabilizing protocols
such as FET) verifies a stability window so that the reported time matches
the paper's ``t_con`` — the first round after which the configuration
"remained unchanged forever after".

For FET specifically, two consecutive all-correct rounds are provably
absorbing: with ``x_t = x_{t+1} = 1`` every sampled block is all ones, both
counters equal ℓ, and the tie rule keeps every opinion. The default stability
window of 2 therefore makes the detection exact rather than heuristic.

:class:`SynchronousEngine` owns no round loop, no sampler and no protocol
step of its own: it holds the one-row population and its stacked ``(1, …)``
protocol state, and each :meth:`~SynchronousEngine.run` drives one
:class:`~repro.core.batch.SequentialEngine` over them through
:func:`~repro.core.lockstep.run_lockstep` — observing through a
:class:`~repro.core.sampling.BatchedSampler`, stepping through
``Protocol.step_batch``. Retirement writes the final row back into the
population and the protocol steps the state in place, so runs chain (a
caller may change the source preferences between runs, as the
changing-environment experiment does). An ``initializer`` is installed
through its ``apply_batch`` on the same row. Every round of a live
population runs through :meth:`~SynchronousEngine.run`; there is no
single-round entry point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..telemetry.spans import span
from ..trace.recorder import FullTrace
from .batch import BatchedPopulation, SequentialEngine
from .lockstep import run_lockstep
from .protocol import Protocol, ProtocolState
from .records import RunResult
from .rng import as_rng
from .sampling import BatchedBinomialSampler, BatchedSampler

if TYPE_CHECKING:  # pragma: no cover - typing only; layers built on core
    from ..initializers.standard import Initializer
    from ..trace.recorder import TraceRecorder

__all__ = ["SynchronousEngine"]


class SynchronousEngine:
    """Stateful single-population simulation driver.

    Parameters
    ----------
    protocol:
        The update rule to execute.
    population:
        The one-row population to mutate in place.
    sampler:
        PULL sampler. Defaults to the fast exact-in-distribution
        :class:`BatchedBinomialSampler`.
    rng:
        Generator or integer seed for all stochastic choices.
    state:
        Pre-built stacked ``(1, …)`` protocol state (e.g. adversarial);
        defaults to the protocol's clean ``init_state_batch(1, n, rng)``.
    initializer:
        Optional initial configuration, installed at construction through
        its ``apply_batch`` (after ``state``, on ``rng``).
    """

    def __init__(
        self,
        protocol: Protocol,
        population: BatchedPopulation,
        *,
        sampler: BatchedSampler | None = None,
        rng: int | np.random.Generator | None = None,
        state: ProtocolState | None = None,
        initializer: "Initializer | None" = None,
    ) -> None:
        if population.replicas != 1:
            raise ValueError(f"population must have one row, got {population.replicas}")
        self.protocol = protocol
        self.population = population
        self.sampler = sampler if sampler is not None else BatchedBinomialSampler()
        self.rng = as_rng(rng)
        if state is None:
            state = protocol.init_state_batch(1, population.n, self.rng)
        self.state = state
        self.round_index = 0
        if initializer is not None:
            initializer.apply_batch(population, protocol, state, self.rng)
        # Pin sources up-front so that a sloppy caller cannot start a
        # single-source run with a deviating source opinion.
        if population.pin_each_round:
            population.pin_sources()

    def run(
        self,
        max_rounds: int,
        *,
        stability_rounds: int = 2,
        record_flips: bool = False,
        stop_condition: Callable[[BatchedPopulation], np.ndarray] | None = None,
        recorder: "TraceRecorder | None" = None,
    ) -> RunResult:
        """Run until convergence (correct consensus held for
        ``stability_rounds`` consecutive observations) or ``max_rounds``.

        ``stop_condition`` optionally replaces the correct-consensus test,
        e.g. for experiments that stop on *any* consensus (baseline
        dynamics). Its contract is :meth:`LockstepEngine.run`'s: it maps the
        working population to a ``(1,)`` boolean vector (e.g.
        ``BatchedPopulation.at_consensus``).

        ``recorder`` optionally mirrors the run into the trace subsystem as a
        one-replica batch — the same :class:`~repro.trace.recorder.BatchTrace`
        shape the batched engine produces.
        """
        wants_flips = recorder is not None and getattr(recorder, "record_flips", False)
        full = FullTrace(record_flips=record_flips or wants_flips)
        # The state dict is stepped in place; retirement rebinds the
        # engine's own compacted copy and writes the final row back into the
        # population, so both hold the run's final values afterwards.
        engine = SequentialEngine(
            self.protocol, self.population, sampler=self.sampler, rng=self.rng, states=self.state
        )
        with span("engine.run", engine=engine.engine_name):
            result = run_lockstep(
                engine,
                max_rounds,
                stability_rounds=stability_rounds,
                stop_condition=stop_condition,
                recorder=full,
                linger_rounds=0,
            )
        self.round_index += int(result.rounds_executed[0])
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
