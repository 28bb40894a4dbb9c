"""Multi-trial experiment harness.

Runs many independent trials of a protocol from a chosen initializer and
aggregates convergence statistics. This is the workhorse behind every
benchmark table — and the **only** layer that assembles engines. Everything
above it speaks :class:`~repro.config.RunSpec`:

* :func:`execute_run` — the execution core behind
  :meth:`RunSpec.execute`: resolves the spec's declarative components
  (``protocol=``/``initializer=`` may replace them with live instances),
  picks the engine, and runs the batch of trials;
* :func:`make_lockstep_engines` — the one engine builder: the prepared
  lock-step engines that run a spec's trials, for ``execute_run``, the
  sweep measures, ``repro trace`` and the per-trial trajectory consumers.

Three execution engines are available; :meth:`RunSpec.resolve_engine`
maps the ``engine`` policy onto one of them. All three run on the one
lock-step driver (:mod:`repro.core.lockstep`) with the same components:
each protocol, observation model and initializer has one per-agent
implementation, the batched one, and a single trial is its one-row case.

* ``"sequential"`` — one one-row lock-step run per trial, each on its own
  ``spawn_rngs(seed, trials)`` stream (initialization, then dynamics).
* ``"batched"`` — all trials as one ``(R, n)`` system on the
  :class:`~repro.core.batch.BatchedEngine`: all replicas advance in
  lock-step and retire individually on convergence. Statistically
  equivalent, several times faster for many-trial sweeps.
* ``"counts"`` — the sufficient-statistic
  :class:`~repro.core.counts.CountEngine`: replicas are ``(S,)`` state-count
  vectors plus the protocol's carried per-replica state (FET's counter
  law), one binomial-family transition per round, O(S + ℓ) memory
  regardless of ``n``. Exact in distribution for exchangeable populations
  but a *different* RNG consumption pattern, so per-trial streams do not
  match the other engines bitwise (aggregates are KS-equivalent). Requires
  a count-capable condition (:meth:`RunSpec.counts_obstacle`): a count-model
  protocol (``Protocol.counts_supported``), the standard population, a
  fraction-keyed observation model, and no flip recording. Every
  initializer on the standard population is exchangeable over the
  non-sources and installs one law in either engine.
* ``"auto"`` (default) — counts whenever the condition is count-capable,
  at every ``n``; batched otherwise. ``auto`` never picks sequential;
  ``engine="batched"`` and ``engine="sequential"`` are the explicit
  overrides.

Per-trial trajectory consumers attach a :class:`~repro.trace.FullTrace`
recorder to an engine from :func:`make_lockstep_engines` and convert the
recorded ``(R, T)`` matrix back into per-trial
:class:`~repro.core.records.RunResult` objects
(``recorder.trace().to_run_results(result)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..config import RunSpec
from ..core.batch import BatchedEngine, BatchedPopulation, SequentialEngine
from ..core.counts import CountEngine, CountPopulation, make_count_population
from ..core.lockstep import LockstepEngine
from ..core.protocol import Protocol, ProtocolState
from ..core.rng import spawn_rngs
from ..initializers.standard import Initializer
from ..stats.summary import TimesSummary, describe_times, wilson_interval

__all__ = [
    "TrialStats",
    "execute_run",
    "make_lockstep_engines",
    "prepare_batch",
    "prepare_counts",
]


@dataclass
class TrialStats:
    """Aggregated outcome of a batch of trials."""

    protocol_name: str
    initializer_name: str
    n: int
    trials: int
    max_rounds: int
    successes: int
    times: np.ndarray  # convergence rounds of the successful trials
    engine: str  # which execution engine produced the stats

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def success_interval(self) -> tuple[float, float]:
        if self.trials == 0:
            return (float("nan"), float("nan"))
        return wilson_interval(self.successes, self.trials)

    def time_summary(self) -> TimesSummary:
        return describe_times(self.times)

    def row(self) -> dict:
        """Flat dict for table rendering."""
        summary = self.time_summary()
        lo, hi = self.success_interval
        return {
            "protocol": self.protocol_name,
            "init": self.initializer_name,
            "n": self.n,
            "trials": self.trials,
            "success": f"{self.successes}/{self.trials}",
            "rate_ci": f"[{lo:.2f},{hi:.2f}]",
            "median": summary.median,
            "mean": summary.mean,
            "p95": summary.p95,
            "max": summary.maximum,
        }


def execute_run(
    spec: RunSpec,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
) -> TrialStats:
    """Execution core of :meth:`RunSpec.execute` (see the module docstring).

    ``protocol``/``initializer`` replace the spec's declared components with
    live instances — pre-built ones, or components with no declarative
    form. The engine comes from :meth:`RunSpec.resolve_engine`.
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    max_rounds = spec.resolved_max_rounds()
    engine = spec.resolve_engine(protocol)
    stats = TrialStats(
        protocol_name=protocol.name,
        initializer_name=initializer.name,
        n=spec.n,
        trials=spec.trials,
        max_rounds=max_rounds,
        successes=0,
        times=np.empty(0, dtype=float),
        engine=engine,
    )
    if spec.trials == 0:
        # Degrade gracefully: an empty aggregate with no division warnings
        # (success_rate and the time summary report NaN, times stays empty)
        # rather than an error — sweep grids may legitimately zip in empty
        # cells, and downstream table code handles the NaNs already.
        return stats
    times = [stats.times]
    for lockstep in make_lockstep_engines(
        spec, engine, protocol=protocol, initializer=initializer
    ):
        result = lockstep.run(
            max_rounds,
            stability_rounds=spec.stability_rounds,
            linger_rounds=spec.linger_rounds,
        )
        stats.successes += result.successes
        times.append(result.times())
    stats.times = np.concatenate(times)
    return stats


def make_lockstep_engines(
    spec: RunSpec,
    engine: str,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
) -> Iterable[LockstepEngine]:
    """The prepared lock-step engines that run ``spec``'s trials on the
    resolved ``engine`` — the one engine builder.

    ``"counts"`` and ``"batched"`` are one engine holding every trial as a
    replica, initialized by :func:`prepare_counts` / :func:`prepare_batch`.
    ``"sequential"`` is one one-row
    :class:`~repro.core.batch.SequentialEngine` per trial, lazily built on
    that trial's own ``spawn_rngs(seed, trials)`` stream (initialization by
    the initializer's ``apply_batch``, then dynamics), observing through the
    same batched sampler. ``protocol``/``initializer`` replace the spec's
    declared components with live instances.
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    sampler = spec.build_sampler()
    if engine == "counts":
        population, states, rng = prepare_counts(spec, protocol, initializer)
        return [CountEngine(protocol, population, sampler=sampler, rng=rng, states=states)]
    if engine == "batched":
        batch, states, rng = prepare_batch(spec, protocol, initializer)
        return [BatchedEngine(protocol, batch, sampler=sampler, rng=rng, states=states)]
    template = spec.build_population()

    def trial(rng: np.random.Generator) -> SequentialEngine:
        batch, states = _initialized_batch(protocol, template, initializer, 1, rng)
        return SequentialEngine(protocol, batch, sampler=sampler, rng=rng, states=states)

    return (trial(rng) for rng in spawn_rngs(spec.seed, spec.trials))


def _initialized_batch(
    protocol: Protocol,
    template: BatchedPopulation,
    initializer: Initializer,
    replicas: int,
    rng: np.random.Generator,
) -> tuple[BatchedPopulation, ProtocolState]:
    """``replicas`` rows of the one-row ``template`` with their stacked
    protocol states, installed by the initializer's one implementation on
    ``rng``."""
    batch = template.select(np.zeros(replicas, dtype=int))
    states = protocol.init_state_batch(replicas, batch.n, rng)
    initializer.apply_batch(batch, protocol, states, rng)
    return batch, states


def prepare_batch(
    spec: RunSpec, protocol: Protocol, initializer: Initializer
) -> tuple[BatchedPopulation, ProtocolState, np.random.Generator]:
    """Build the initialized ``(R, n)`` batch for ``spec``'s trials.

    Returns the initialized batch, its stacked protocol states, and the
    generator for the lock-step dynamics stream. One stream initializes the
    whole batch with the initializer's vectorized ``apply_batch``, the
    second drives the lock-step dynamics. Every replica shares the spec's
    one population layout (:meth:`RunSpec.build_population`). One protocol
    instance serves the whole batch — valid because protocol instances hold
    round configuration only, with all per-agent state in the state dict
    (the :class:`~repro.core.protocol.Protocol` contract).
    """
    init_rng, batch_rng = spawn_rngs(spec.seed, 2)
    batch, states = _initialized_batch(
        protocol, spec.build_population(), initializer, spec.trials, init_rng
    )
    return batch, states, batch_rng


def prepare_counts(
    spec: RunSpec, protocol: Protocol, initializer: Initializer
) -> tuple[CountPopulation, ProtocolState, np.random.Generator]:
    """Build the initialized ``(R, S)`` count population for ``spec``'s
    trials, with the protocol's carried count-model state.

    The counts analogue of :func:`prepare_batch`: one stream initializes
    every replica's state-count vector and carried state via the
    initializer's count-level application — the same law ``apply_batch``
    installs per agent — and the second drives the lock-step dynamics.
    """
    init_rng, dyn_rng = spawn_rngs(spec.seed, 2)
    population = make_count_population(
        protocol,
        spec.trials,
        spec.n,
        num_sources=spec.num_sources,
        correct_opinion=spec.correct_opinion,
    )
    states = protocol.init_count_state(spec.trials)
    initializer.apply_counts(population, protocol, states, init_rng)
    return population, states, dyn_rng
