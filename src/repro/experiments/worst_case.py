"""Randomized worst-case search over initial configurations (E-worst).

The paper warns (footnote 3) that "simulation results may be deceiving in
self-stabilizing contexts, since the worst initial conditions for a given
protocol are not always evident". This experiment takes that warning
seriously: instead of trusting hand-picked starts, it searches for bad ones.

The search space is the chain's effective initial state — the pair
``(x_prev, x_now)`` plus a counter-bias knob — explored with a coarse grid
followed by local refinement around the worst cell found (each candidate
scored by mean convergence time over a few seeded runs). The result is an
empirical lower bound on the worst-case convergence time, comparable against
Theorem 1's upper-bound scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import run_protocol
from ..core.population import make_population
from ..core.rng import derive_rng
from ..initializers.adversarial import TwoRoundTarget
from ..protocols.fet import FETProtocol

__all__ = ["WorstCaseResult", "search_worst_start"]


@dataclass(frozen=True)
class WorstCaseResult:
    """Worst starting pair found and its measured convergence times."""

    x_prev: float
    x_now: float
    mean_rounds: float
    max_rounds_seen: int
    evaluations: int
    all_converged: bool


def _score(
    n: int,
    ell: int,
    x_prev: float,
    x_now: float,
    *,
    runs: int,
    budget: int,
    seed: int,
) -> tuple[float, int, bool]:
    """Mean/max convergence time of FET from the given pair (seeded)."""
    times = []
    converged_all = True
    for r in range(runs):
        rng = derive_rng(seed, int(x_prev * 1000), int(x_now * 1000), r)
        result = run_protocol(
            FETProtocol(ell),
            make_population(n, 1),
            budget,
            rng=rng,
            initializer=TwoRoundTarget(x_prev, x_now),
        )
        converged_all &= result.converged
        times.append(result.rounds)
    return float(np.mean(times)), int(max(times)), converged_all


def search_worst_start(
    n: int,
    ell: int,
    *,
    coarse: int = 7,
    refine_steps: int = 2,
    runs_per_candidate: int = 3,
    budget: int = 20_000,
    seed: int = 0,
) -> WorstCaseResult:
    """Grid-then-refine search for the worst (x_prev, x_now) start.

    ``coarse`` points per axis on the first pass; each refinement zooms by 3x
    around the current worst cell. Scores are deterministic given ``seed``.
    """
    if coarse < 2:
        raise ValueError(f"coarse grid needs >= 2 points per axis, got {coarse}")
    lo_p, hi_p = 0.0, 1.0
    lo_n, hi_n = 0.0, 1.0
    best = (-1.0, 0, True, 0.5, 0.5)  # (mean, max, converged, x_prev, x_now)
    evaluations = 0
    for _ in range(refine_steps + 1):
        xs_prev = np.linspace(lo_p, hi_p, coarse)
        xs_now = np.linspace(lo_n, hi_n, coarse)
        for xp in xs_prev:
            for xn in xs_now:
                mean, worst, ok = _score(
                    n, ell, float(xp), float(xn),
                    runs=runs_per_candidate, budget=budget, seed=seed,
                )
                evaluations += 1
                if mean > best[0]:
                    best = (mean, worst, ok, float(xp), float(xn))
        # Zoom in around the worst cell found so far.
        span_p = (hi_p - lo_p) / 3
        span_n = (hi_n - lo_n) / 3
        lo_p = max(0.0, best[3] - span_p / 2)
        hi_p = min(1.0, best[3] + span_p / 2)
        lo_n = max(0.0, best[4] - span_n / 2)
        hi_n = min(1.0, best[4] + span_n / 2)
    mean, worst, ok, xp, xn = best
    return WorstCaseResult(
        x_prev=xp,
        x_now=xn,
        mean_rounds=mean,
        max_rounds_seen=worst,
        evaluations=evaluations,
        all_converged=ok,
    )
