"""Empirical domain-transition statistics — the data behind Figure 1b.

Figure 1b sketches the proof of Theorem 1 as a transition diagram between
domains, annotated with dwell-time bounds (Lemmas 1–5). This experiment runs
many FET trajectories from adversarial starts, classifies every consecutive
pair, and aggregates (a) how long the chain dwells in each domain family and
(b) where it goes when it leaves — the measured counterpart of the diagram.

Trajectories come from the batched engine by default (one trace-recorded
lock-step run per initializer instead of ``trials_per_init`` sequential
runs); ``engine="sequential"`` runs each trial on its own stream as a
cross-check.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..core.rng import spawn_rngs
from ..initializers.standard import Initializer
from ..protocols.fet import FETProtocol
from .trajectories import AnnotatedRun, run_annotated, run_annotated_batch

__all__ = ["TransitionSummary", "collect_transitions"]


@dataclass
class TransitionSummary:
    """Aggregated dwell times and inter-domain transition counts.

    Keys are domain *family* names ('Green', 'Purple', 'Red', 'Cyan',
    'Yellow', 'None'); side-0/1 variants are merged because the diagram of
    Figure 1b treats them symmetrically (the source is w.l.o.g. 1, so the
    chain's consensus target lives on side 1).
    """

    dwell_times: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    transitions: Counter = field(default_factory=Counter)  # (from, to) -> count
    runs: int = 0
    converged_runs: int = 0

    def transition_probability(self, source: str, target: str) -> float:
        """Empirical P(next family = target | leaving family = source)."""
        total = sum(count for (src, _), count in self.transitions.items() if src == source)
        if total == 0:
            return float("nan")
        return self.transitions[(source, target)] / total

    def max_dwell(self, family: str) -> int:
        times = self.dwell_times.get(family, [])
        return max(times) if times else 0

    def mean_dwell(self, family: str) -> float:
        times = self.dwell_times.get(family, [])
        return float(np.mean(times)) if times else float("nan")

    def families(self) -> list[str]:
        seen = set(self.dwell_times)
        for src, dst in self.transitions:
            seen.add(src)
            seen.add(dst)
        return sorted(seen)


def _accumulate(summary: TransitionSummary, annotated: AnnotatedRun) -> None:
    """Fold one annotated trajectory into the running aggregate."""
    summary.runs += 1
    if annotated.result.converged:
        summary.converged_runs += 1
    segments = annotated.dwell_segments()
    for domain, dwell in segments:
        summary.dwell_times[domain.family].append(dwell)
    for (src, _), (dst, _) in zip(segments, segments[1:]):
        summary.transitions[(src.family, dst.family)] += 1


def collect_transitions(
    n: int,
    ell: int,
    initializers: list[Initializer],
    *,
    trials_per_init: int,
    max_rounds: int,
    seed: int,
    delta: float = 0.05,
    engine: str = "auto",
) -> TransitionSummary:
    """Run FET from each initializer and aggregate domain-transition data.

    ``engine="auto"`` (default) and ``"batched"`` record all of an
    initializer's trials in one trace-recorded batched run — statistically
    equivalent and several times faster; ``"sequential"`` runs one
    single-population engine per trial on its own spawned stream (the
    cross-check path the equivalence tests compare against).
    """
    if engine not in ("auto", "batched", "sequential"):
        raise ValueError(f"engine must be 'auto', 'batched' or 'sequential', got {engine!r}")
    summary = TransitionSummary()
    if trials_per_init == 0:
        return summary
    for init_index, initializer in enumerate(initializers):
        if engine != "sequential":
            annotated_runs = run_annotated_batch(
                FETProtocol(ell),
                n,
                initializer,
                trials_per_init,
                max_rounds=max_rounds,
                seed=seed + init_index,
                delta=delta,
            )
        else:
            annotated_runs = (
                run_annotated(
                    FETProtocol(ell),
                    n,
                    initializer,
                    max_rounds=max_rounds,
                    seed=rng,
                    delta=delta,
                )
                for rng in spawn_rngs(seed + init_index, trials_per_init)
            )
        for annotated in annotated_runs:
            _accumulate(summary, annotated)
    return summary
