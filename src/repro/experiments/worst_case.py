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

from ..sweep.orchestrator import run_sweep
from ..sweep.spec import SweepSpec

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


def _score_pass(
    n: int,
    ell: int,
    starts: list[tuple[float, float]],
    *,
    runs: int,
    budget: int,
    seed: int,
) -> list[tuple[float, int, bool]]:
    """Mean/max convergence time and all-converged flag of FET from each
    ``(x_prev, x_now)`` start, a run that never converged counting as
    ``budget`` rounds.

    The starts are one sweep's initializer axis: each is a cell whose seed
    derives from its content hash, so distinct starts draw independent
    streams however close they are.
    """
    spec = SweepSpec(
        name="worst-start",
        seed=seed,
        trials=runs,
        axes={
            "protocol": [{"name": "fet", "ell": int(ell)}],
            "n": [n],
            "initializer": [
                {"name": "two-round", "x_prev": xp, "x_now": xn} for xp, xn in starts
            ],
        },
        max_rounds=budget,
    )
    scores = []
    for result in run_sweep(spec).results:
        stats = result.stats()
        missed = stats.trials - stats.successes
        mean = (float(stats.times.sum()) + missed * budget) / stats.trials
        worst = budget if missed else int(stats.times.max())
        scores.append((mean, worst, missed == 0))
    return scores


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
    around the current worst cell. Each pass scores its ``coarse²``
    candidates as one sweep on ``engine="auto"`` (the counts engine, for
    FET), ``runs_per_candidate`` trials per candidate. Scores are
    deterministic given ``seed``.
    """
    if coarse < 2:
        raise ValueError(f"coarse grid needs >= 2 points per axis, got {coarse}")
    if runs_per_candidate < 1:
        raise ValueError(f"runs_per_candidate must be >= 1, got {runs_per_candidate}")
    lo_p, hi_p = 0.0, 1.0
    lo_n, hi_n = 0.0, 1.0
    best = (-1.0, 0, True, 0.5, 0.5)  # (mean, max, converged, x_prev, x_now)
    evaluations = 0
    for _ in range(refine_steps + 1):
        starts = [
            (float(xp), float(xn))
            for xp in np.linspace(lo_p, hi_p, coarse)
            for xn in np.linspace(lo_n, hi_n, coarse)
        ]
        scores = _score_pass(
            n, ell, starts, runs=runs_per_candidate, budget=budget, seed=seed
        )
        evaluations += len(starts)
        for (xp, xn), (mean, worst, ok) in zip(starts, scores):
            if mean > best[0]:
                best = (mean, worst, ok, xp, xn)
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
