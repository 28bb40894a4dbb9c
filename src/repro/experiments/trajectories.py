"""Trajectory recording with domain annotation.

Connects the simulator to the analysis layer: runs a protocol and labels
every consecutive-fraction pair ``(x_t, x_{t+1})`` with its Figure 1a domain.
Used by the Figure 1b experiment and by the trajectory examples.

Two entry points:

* :func:`run_annotated` — one trial on the sequential engine (the original
  single-run tour, and the cross-check reference for the batched path);
* :func:`run_annotated_batch` — R independent trials as one batched run with
  a :class:`~repro.trace.FullTrace` recorder; the recorded ``(R, T)`` matrix
  is split back into per-trial trajectories and annotated identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.domains import Domain, DomainPartition
from ..config import RunSpec
from ..core.engine import SynchronousEngine
from ..core.population import make_population
from ..core.protocol import Protocol
from ..core.records import RunResult
from ..core.rng import as_rng
from ..initializers.standard import Initializer
from ..trace import FullTrace
from .harness import make_lockstep_engines

__all__ = ["AnnotatedRun", "run_annotated", "run_annotated_batch"]


@dataclass
class AnnotatedRun:
    """A run result plus the domain label of every trajectory pair."""

    result: RunResult
    domains: list[Domain]

    def domain_families(self) -> list[str]:
        return [d.family for d in self.domains]

    def dwell_segments(self) -> list[tuple[Domain, int]]:
        """Run-length encode the domain sequence: [(domain, rounds), …]."""
        segments: list[tuple[Domain, int]] = []
        for label in self.domains:
            if segments and segments[-1][0] is label:
                segments[-1] = (label, segments[-1][1] + 1)
            else:
                segments.append((label, 1))
        return segments


def run_annotated(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    *,
    max_rounds: int,
    seed: int | np.random.Generator,
    correct_opinion: int = 1,
    delta: float = 0.05,
    stability_rounds: int = 2,
) -> AnnotatedRun:
    """Run once and classify every trajectory pair into Figure 1a domains."""
    rng = as_rng(seed)
    population = make_population(n, correct_opinion)
    engine = SynchronousEngine(protocol, population, rng=rng, initializer=initializer)
    result = engine.run(max_rounds, stability_rounds=stability_rounds)
    partition = DomainPartition(n=n, delta=delta)
    domains = partition.classify_pairs(result.pairs())
    return AnnotatedRun(result=result, domains=domains)


def run_annotated_batch(
    protocol: Protocol,
    n: int,
    initializer: Initializer,
    replicas: int,
    *,
    max_rounds: int,
    seed: int,
    correct_opinion: int = 1,
    delta: float = 0.05,
    stability_rounds: int = 2,
) -> list[AnnotatedRun]:
    """Run ``replicas`` trials batched and annotate each trajectory.

    One lock-step :class:`~repro.core.batch.BatchedEngine` run with a
    full-trace recorder replaces ``replicas`` sequential runs; each recorded
    per-replica trajectory is trimmed to the rounds that replica executed and
    classified exactly as :func:`run_annotated` classifies a sequential one.
    """
    spec = RunSpec(
        protocol=None,  # live instance supplied below
        n=n,
        trials=replicas,
        max_rounds=max_rounds,
        seed=seed,
        correct_opinion=correct_opinion,
        stability_rounds=stability_rounds,
    )
    recorder = FullTrace()
    (engine,) = make_lockstep_engines(spec, "batched", protocol=protocol, initializer=initializer)
    outcome = engine.run(max_rounds, stability_rounds=stability_rounds, recorder=recorder)
    partition = DomainPartition(n=n, delta=delta)
    return [
        AnnotatedRun(result=result, domains=partition.classify_pairs(result.pairs()))
        for result in recorder.trace().to_run_results(outcome)
    ]
