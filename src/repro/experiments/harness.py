"""Multi-trial experiment harness.

Runs many independent trials of a protocol from a chosen initializer and
aggregates convergence statistics. This is the workhorse behind every
benchmark table — and the **only** layer that assembles engines and pairs
scalar/batched observation models. Everything above it speaks
:class:`~repro.config.RunSpec`:

* :func:`execute_run` — the execution core behind
  :meth:`RunSpec.execute`: resolves the spec's declarative components
  (with optional live-object overrides), picks the engine, and runs the
  batch of trials;
* :func:`make_batched_engine` — the core behind
  :meth:`RunSpec.batched_engine`: a fully prepared lock-step engine for
  trace/θ consumers;
* :func:`run_trials` — the legacy factory-kwargs signature, kept working
  as a thin adapter over :meth:`RunSpec.execute`.

Three execution engines are available; :meth:`RunSpec.resolve_engine`
maps the ``engine`` policy onto one of them:

* ``"sequential"`` — one :class:`SynchronousEngine` per trial, each on its own
  spawned RNG stream.
* ``"batched"`` — all trials as one ``(R, n)`` system on the
  :class:`~repro.core.batch.BatchedEngine`: initial configurations are built
  per trial on the *same* spawned streams as the sequential path (so the
  initial-condition distribution is bitwise identical), then all replicas
  advance in lock-step and retire individually on convergence. Statistically
  equivalent, several times faster for many-trial sweeps. Per-trial
  trajectory consumers (``keep_results=True``) are served by attaching a
  :class:`~repro.trace.FullTrace` recorder and converting the recorded
  ``(R, T)`` matrix back into per-trial :class:`RunResult` objects.
* ``"counts"`` — the sufficient-statistic
  :class:`~repro.core.counts.CountEngine`: replicas are ``(S,)`` state-count
  vectors, one multinomial-family transition per round, O(num_states) memory
  regardless of ``n``. Exact in distribution for exchangeable populations
  but a *different* RNG consumption pattern, so per-trial streams do not
  match the other engines bitwise (aggregates are KS-equivalent). Requires
  a count-capable condition (:meth:`RunSpec.counts_obstacle`): a count-model
  protocol (``Protocol.counts_supported``), an exchangeable initializer
  (``Initializer.supports_counts``), the standard population, a
  fraction-keyed observation model, and no flip recording.
* ``"auto"`` (default) — counts when the condition is count-capable and
  ``n`` is at or above the protocol's measured crossover
  (``Protocol.counts_min_n``); otherwise batched when the protocol ships a
  vectorized ``step_batch`` (``Protocol.batch_vectorized``) and the
  observation model has a batched side; sequential otherwise.
  ``engine="batched"`` and ``engine="sequential"`` remain the explicit
  overrides (the latter for bitwise per-trial streams).

The batched and counts engines share one lock-step driver
(:mod:`repro.core.lockstep`), so the run contract does not depend on which
one ``auto`` picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import RunSpec
from ..core.batch import BatchedEngine, BatchedPopulation, stack_states
from ..core.counts import CountEngine, CountPopulation, make_count_population
from ..core.engine import SynchronousEngine
from ..core.population import PopulationState, make_population
from ..core.protocol import Protocol, ProtocolState
from ..core.records import RunResult
from ..core.rng import spawn_rngs
from ..core.sampling import BatchedBinomialSampler, BatchedSampler, Sampler
from ..initializers.standard import Initializer
from ..stats.summary import TimesSummary, describe_times, wilson_interval
from ..trace import FullTrace

__all__ = [
    "TrialStats",
    "execute_run",
    "make_batched_engine",
    "make_count_engine",
    "prepare_batch",
    "prepare_counts",
    "run_trials",
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
    results: list[RunResult] = field(default_factory=list, repr=False)
    engine: str = "sequential"  # which execution engine produced the stats

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


def run_trials(
    protocol_factory: Callable[[], Protocol],
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    max_rounds: int,
    seed: int,
    correct_opinion: int = 1,
    sampler_factory: Callable[[], Sampler] | None = None,
    population_factory: Callable[[], PopulationState] | None = None,
    stability_rounds: int = 2,
    keep_results: bool = False,
    engine: str = "auto",
    batched_sampler: BatchedSampler | None = None,
) -> TrialStats:
    """Run ``trials`` independent runs and aggregate their outcomes.

    Legacy factory-kwargs front door, kept stable: it adapts its arguments
    onto a :class:`~repro.config.RunSpec` and calls
    :meth:`~repro.config.RunSpec.execute` with the factories as live-object
    overrides. New code should construct the ``RunSpec`` directly — the
    declarative components cover the common cases (including paired noisy
    observation models via ``noise``/``sampler``) without any factory
    plumbing.

    Each trial builds a fresh population (factories keep trials independent
    even for stateful protocols), applies ``initializer`` under its own RNG
    stream, and runs to convergence or ``max_rounds``. ``trials=0`` is
    allowed and yields an empty aggregate (no successes, empty ``times``,
    NaN summaries) without touching either engine. ``batched_sampler``
    supplies the batched observation model when ``sampler_factory``
    customizes the sequential one (e.g.
    :class:`~repro.core.noise.BatchedNoisyCountSampler` to pair with
    :class:`~repro.core.noise.NoisyCountSampler`) — declaratively-built
    specs never need the pair, the sampler registry pairs them.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    spec = RunSpec(
        protocol=None,
        n=n,
        trials=trials,
        max_rounds=max_rounds,
        seed=seed,
        correct_opinion=correct_opinion,
        stability_rounds=stability_rounds,
        engine=engine,
    )
    return spec.execute(
        keep_results=keep_results,
        protocol_factory=protocol_factory,
        initializer=initializer,
        sampler_factory=sampler_factory,
        batched_sampler=batched_sampler,
        population_factory=population_factory,
    )


def execute_run(
    spec: RunSpec,
    *,
    keep_results: bool = False,
    protocol_factory: Callable[[], Protocol] | None = None,
    initializer: Initializer | None = None,
    sampler_factory: Callable[[], Sampler] | None = None,
    batched_sampler: BatchedSampler | None = None,
    population_factory: Callable[[], PopulationState] | None = None,
) -> TrialStats:
    """Execution core of :meth:`RunSpec.execute` (see the module docstring).

    Keyword overrides replace the spec's declarative components with live
    objects — the adapter path of :func:`run_trials` and the escape hatch
    for components with no declarative form. The engine comes from
    :meth:`RunSpec.resolve_engine` (a live ``population_factory`` keeps
    ``"auto"`` off the counts engine). When ``sampler_factory`` is
    overridden without a ``batched_sampler``, an explicit ``"batched"`` or
    ``"counts"`` request is an error and ``"auto"`` falls back to
    sequential (exactly the legacy contract); declarative samplers are
    always paired by the registry.
    """
    if spec.engine in ("batched", "counts") and sampler_factory is not None and batched_sampler is None:
        raise ValueError(
            "a custom sampler_factory needs a matching batched_sampler "
            f"for the {spec.engine} engine"
        )
    if protocol_factory is None:
        protocol_factory = spec.protocol_factory()
    if initializer is None:
        initializer = spec.build_initializer()
    custom_population = population_factory is not None
    if population_factory is None and spec.population is not None:
        population_factory = spec.population_factory()
    if sampler_factory is None and batched_sampler is None:
        sampler_factory, batched_sampler = spec.samplers()
    # The declared population shape (n, num_sources, correct_opinion) is
    # built natively by every engine path; a declarative ``population``
    # component resolves to a factory above (``standard`` resolves to None,
    # i.e. the native path), and the keyword stays the escape hatch for
    # layouts with no declarative form.
    max_rounds = spec.resolved_max_rounds()
    probe = protocol_factory()
    engine = spec.resolve_engine(
        probe,
        initializer,
        batched_sampler=batched_sampler,
        custom_population=custom_population,
    )
    if spec.trials == 0:
        # Degrade gracefully: an empty aggregate with no division warnings
        # (success_rate and the time summary report NaN, times stays empty)
        # rather than an error — sweep grids may legitimately zip in empty
        # cells, and downstream table code handles the NaNs already.
        return TrialStats(
            protocol_name=probe.name,
            initializer_name=initializer.name,
            n=spec.n,
            trials=0,
            max_rounds=max_rounds,
            successes=0,
            times=np.empty(0, dtype=float),
            engine=engine,
        )
    if engine == "counts":
        return _run_trials_counts(
            probe,
            spec,
            initializer,
            batched_sampler=batched_sampler,
            max_rounds=max_rounds,
            keep_results=keep_results,
        )
    if engine == "batched":
        return _run_trials_batched(
            probe,
            spec.n,
            initializer,
            trials=spec.trials,
            max_rounds=max_rounds,
            seed=spec.seed,
            correct_opinion=spec.correct_opinion,
            num_sources=spec.num_sources,
            batched_sampler=batched_sampler,
            population_factory=population_factory,
            stability_rounds=spec.stability_rounds,
            linger_rounds=spec.linger_rounds,
            keep_results=keep_results,
        )
    rngs = spawn_rngs(spec.seed, spec.trials)
    times: list[int] = []
    successes = 0
    results: list[RunResult] = []
    protocol_name = ""
    init_name = initializer.name
    for rng in rngs:
        protocol = protocol_factory()
        protocol_name = protocol.name
        population = (
            population_factory()
            if population_factory is not None
            else make_population(spec.n, spec.correct_opinion, num_sources=spec.num_sources)
        )
        state = protocol.init_state(population.n, rng)
        initializer(population, protocol, state, rng)
        trial_engine = SynchronousEngine(
            protocol,
            population,
            sampler=sampler_factory() if sampler_factory is not None else None,
            rng=rng,
            state=state,
        )
        result = trial_engine.run(max_rounds, stability_rounds=spec.stability_rounds)
        if result.converged:
            successes += 1
            times.append(result.rounds)
        if keep_results:
            results.append(result)
    return TrialStats(
        protocol_name=protocol_name,
        initializer_name=init_name,
        n=spec.n,
        trials=spec.trials,
        max_rounds=max_rounds,
        successes=successes,
        times=np.asarray(times, dtype=float),
        results=results,
        engine="sequential",
    )


def prepare_batch(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    seed: int,
    correct_opinion: int = 1,
    num_sources: int = 1,
    population_factory: Callable[[], PopulationState] | None = None,
) -> tuple[BatchedPopulation, ProtocolState, np.random.Generator]:
    """Build the initialized ``(R, n)`` batch for ``trials`` trials of a run.

    The shared front half of every batched workload (``execute_run``, the
    trace-based θ sweep measure, the batched transition experiment): returns
    the initialized batch, its stacked protocol states, and the generator for
    the lock-step dynamics stream.

    With a batch-capable initializer and a declarative population layout
    (``num_sources`` sources at the canonical indices), the whole initial
    batch is built with vectorized draws (one stream for initialization,
    one for the lock-step dynamics). Otherwise initial configurations are
    built per trial on the same spawned streams the sequential path uses,
    so the initial-condition distribution matches it bitwise. One protocol
    instance serves the whole batch — valid because protocol instances hold
    round configuration only, with all per-agent state in the state dict
    (the :class:`~repro.core.protocol.Protocol` contract).
    """
    if initializer.supports_batch and population_factory is None:
        init_rng, batch_rng = spawn_rngs(seed, 2)
        template = make_population(n, correct_opinion, num_sources=num_sources)
        batch = BatchedPopulation.from_population(template, trials)
        batch_states = protocol.init_state_batch(trials, n, init_rng)
        initializer.apply_batch(batch, protocol, batch_states, init_rng)
    else:
        rngs = spawn_rngs(seed, trials + 1)
        batch_rng = rngs[-1]
        template = None
        populations: list[PopulationState] = []
        states = []
        for rng in rngs[:trials]:
            if population_factory is not None:
                population = population_factory()
            else:
                if template is None:
                    template = make_population(n, correct_opinion, num_sources=num_sources)
                population = template.copy()
            state = protocol.init_state(population.n, rng)
            initializer(population, protocol, state, rng)
            populations.append(population)
            states.append(state)
        batch = BatchedPopulation.from_populations(populations)
        batch_states = stack_states(states)
    return batch, batch_states, batch_rng


def make_batched_engine(
    spec: RunSpec,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
    batched_sampler: BatchedSampler | None = None,
    population_factory: Callable[[], PopulationState] | None = None,
) -> BatchedEngine:
    """A fully prepared lock-step engine for ``spec`` — the core behind
    :meth:`RunSpec.batched_engine`.

    Resolves the protocol, initializer, batched observation model, and
    population layout from the spec (live-object keywords override), builds
    the initialized batch on the spec's seed, and returns the engine ready
    to ``run``. Raises when the spec's observation component has no batched
    side (e.g. the literal index sampler).
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    if batched_sampler is None:
        batched_sampler = spec.samplers()[1]
        if batched_sampler is None:
            raise ValueError(
                f"sampler {spec.sampler!r} has no batched observation model; "
                "this condition can only run on the sequential engine"
            )
    if population_factory is None and spec.population is not None:
        population_factory = spec.population_factory()
    batch, states, rng = prepare_batch(
        protocol,
        spec.n,
        initializer,
        trials=spec.trials,
        seed=spec.seed,
        correct_opinion=spec.correct_opinion,
        num_sources=spec.num_sources,
        population_factory=population_factory,
    )
    return BatchedEngine(protocol, batch, sampler=batched_sampler, rng=rng, states=states)


def _run_trials_batched(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    max_rounds: int,
    seed: int,
    correct_opinion: int,
    num_sources: int,
    batched_sampler: BatchedSampler | None,
    population_factory: Callable[[], PopulationState] | None,
    stability_rounds: int,
    linger_rounds: int,
    keep_results: bool,
) -> TrialStats:
    """All trials as one ``(R, n)`` system on the batched engine.

    ``keep_results`` attaches a :class:`~repro.trace.FullTrace` recorder to
    the run and converts the recorded trajectory matrix back into per-trial
    :class:`RunResult` objects, so trajectory consumers get the batched
    speedup too.
    """
    batch, batch_states, batch_rng = prepare_batch(
        protocol,
        n,
        initializer,
        trials=trials,
        seed=seed,
        correct_opinion=correct_opinion,
        num_sources=num_sources,
        population_factory=population_factory,
    )
    engine = BatchedEngine(
        protocol,
        batch,
        sampler=batched_sampler if batched_sampler is not None else BatchedBinomialSampler(),
        rng=batch_rng,
        states=batch_states,
    )
    recorder = FullTrace() if keep_results else None
    result = engine.run(
        max_rounds,
        stability_rounds=stability_rounds,
        recorder=recorder,
        linger_rounds=linger_rounds,
    )
    results = recorder.trace().to_run_results(result) if recorder is not None else []
    return TrialStats(
        protocol_name=protocol.name,
        initializer_name=initializer.name,
        n=n,
        trials=trials,
        max_rounds=max_rounds,
        successes=result.successes,
        times=result.times(),
        results=results,
        engine="batched",
    )


def prepare_counts(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    *,
    trials: int,
    seed: int,
    correct_opinion: int = 1,
    num_sources: int = 1,
) -> tuple[CountPopulation, np.random.Generator]:
    """Build the initialized ``(R, S)`` count population for ``trials`` trials.

    The counts analogue of :func:`prepare_batch`: one stream initializes
    every replica's state-count vector via the initializer's count-level
    application, the second drives the lock-step dynamics. There is no
    per-agent fallback — initializers without ``supports_counts`` are a
    hard error, because a crafted per-agent layout has no faithful
    sufficient-statistic representation.
    """
    if not initializer.supports_counts:
        raise ValueError(
            f"initializer {initializer.name!r} builds per-agent configurations "
            "(supports_counts=False); the counts engine needs an exchangeable "
            "count-level initializer — use engine='batched' or 'sequential'"
        )
    init_rng, dyn_rng = spawn_rngs(seed, 2)
    population = make_count_population(
        protocol, trials, n, num_sources=num_sources, correct_opinion=correct_opinion
    )
    initializer.apply_counts(population, protocol, init_rng)
    return population, dyn_rng


def make_count_engine(
    spec: RunSpec,
    *,
    protocol: Protocol | None = None,
    initializer: Initializer | None = None,
    sampler: BatchedSampler | None = None,
) -> CountEngine:
    """A fully prepared sufficient-statistic engine for ``spec`` — the core
    behind :meth:`RunSpec.count_engine`.

    Resolves the protocol, initializer, and fraction-keyed observation model
    from the spec (live-object keywords override), draws the initial count
    matrix on the spec's seed, and returns the engine ready to ``run``.
    Raises when any component has no count-level form: a protocol without a
    count model, a per-agent initializer, or an observation model that is
    not keyed on one-fractions.
    """
    if protocol is None:
        protocol = spec.build_protocol()
    if initializer is None:
        initializer = spec.build_initializer()
    if sampler is None:
        sampler = spec.samplers()[1]
        if sampler is None:
            raise ValueError(
                f"sampler {spec.sampler!r} has no fraction-keyed batched "
                "observation model; this condition cannot run on the counts "
                "engine"
            )
    population, rng = prepare_counts(
        protocol,
        spec.n,
        initializer,
        trials=spec.trials,
        seed=spec.seed,
        correct_opinion=spec.correct_opinion,
        num_sources=spec.num_sources,
    )
    return CountEngine(protocol, population, sampler=sampler, rng=rng)


def _run_trials_counts(
    protocol: Protocol,
    spec: RunSpec,
    initializer: Initializer,
    *,
    batched_sampler: BatchedSampler | None,
    max_rounds: int,
    keep_results: bool,
) -> TrialStats:
    """All trials as one ``(R, S)`` count matrix on the sufficient-statistic
    engine.

    ``keep_results`` works the same way as on the batched path: a
    :class:`~repro.trace.FullTrace` recorder captures the per-round
    one-fraction matrix and is converted back into per-trial
    :class:`RunResult` objects.
    """
    engine = make_count_engine(
        spec, protocol=protocol, initializer=initializer, sampler=batched_sampler
    )
    recorder = FullTrace() if keep_results else None
    result = engine.run(
        max_rounds,
        stability_rounds=spec.stability_rounds,
        recorder=recorder,
        linger_rounds=spec.linger_rounds,
    )
    results = recorder.trace().to_run_results(result) if recorder is not None else []
    return TrialStats(
        protocol_name=protocol.name,
        initializer_name=initializer.name,
        n=spec.n,
        trials=spec.trials,
        max_rounds=max_rounds,
        successes=result.successes,
        times=result.times(),
        results=results,
        engine="counts",
    )
