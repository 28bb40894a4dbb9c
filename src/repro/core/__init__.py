"""Core substrate: population, sampling, protocol interface, round engines.

Performance architecture
------------------------
The hot path of every aggregate experiment is *many independent trials of one
configuration*. Two layers keep it fast:

1. **Exact count-level sampling.** Under uniform-with-replacement ``PULL``
   sampling, an agent's observation is fully summarized by its 1-count, which
   is exactly ``Binomial(ℓ, x_t)`` — so a round needs one binomial tensor, not
   ``n·ℓ`` materialized samples.
2. **Batched replicas.** Because that count depends on the population only
   through ``x_t``, R replicas advance in lock-step as a single ``(R, n)``
   matrix (:mod:`repro.core.batch`): per-replica one-fractions key one
   :class:`BatchedBinomialSampler` call per round, ``Protocol.step_batch``
   steps every replica with a handful of numpy ops, and converged replicas
   retire from a compacted
   working set so finished trials stop costing work. The sampler tiers its
   draw strategy by where each replica's ``x`` sits (deterministic fills at
   consensus, geometric-gap sparse placement near consensus, numpy's
   scalar-p generator near the ends, shared-CDF inversion in the middle), so
   the draws themselves — not just the Python overhead — get cheaper than a
   per-trial loop.

The batched form is the only per-agent form: every protocol, sampler and
initializer has one implementation written against the ``(R, n)`` batch, and
a single population (``engine="sequential"``, :class:`SynchronousEngine`) is
its ``R = 1`` case. It covers the count-observing protocols (observation =
1-count, via ``sampler.counts`` / ``count_blocks``) *and* the
identity-sampling clock-sync baseline, whose per-agent plurality vote
vectorizes as one flat bincount over (replica, agent, clock) keys. Identity
draws have no count-level sufficient statistic, so that protocol's batched
win is uniformity (trace/retirement integration), not a draw-cost reduction.
Per-round trajectory and flip logs are served on *both* engines by the trace
subsystem (:mod:`repro.trace`): a recorder hooks the round loop and keeps
per-replica curves across retirement, so trajectory-shaped consumers ride
the batched path too.

A third layer sits above both: one ``(R, n)`` batch saturates a single core,
so **sweep cells** — independent (protocol, n, noise, initializer) grid
points — fan out over worker *processes* through the sweep orchestrator
(:mod:`repro.sweep`), each cell running this batched engine under its own
deterministically derived seed. Vectorization scales within a cell, the
process pool scales across cells.
"""

from .batch import (
    BatchedEngine,
    BatchedPopulation,
    BatchRunResult,
    run_protocol_batched,
)
from .engine import SynchronousEngine, run_protocol
from .noise import BatchedNoisyCountSampler, noisy_fraction
from .population import PopulationState, make_majority_population, make_population
from .protocol import Protocol, ProtocolState
from .records import RoundRecord, RunResult
from .rng import as_rng, derive_rng, make_rng, spawn_rngs
from .sampling import (
    BatchedBinomialSampler,
    BatchedSampler,
    IndexSampler,
    batched_binomial_counts,
)

__all__ = [
    "BatchRunResult",
    "BatchedBinomialSampler",
    "BatchedEngine",
    "BatchedNoisyCountSampler",
    "BatchedPopulation",
    "BatchedSampler",
    "IndexSampler",
    "PopulationState",
    "Protocol",
    "ProtocolState",
    "RoundRecord",
    "RunResult",
    "SynchronousEngine",
    "as_rng",
    "batched_binomial_counts",
    "derive_rng",
    "make_majority_population",
    "make_population",
    "make_rng",
    "noisy_fraction",
    "run_protocol",
    "run_protocol_batched",
    "spawn_rngs",
]
