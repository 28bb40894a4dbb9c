"""Dynamic-environment experiment (extension E-adapt).

The paper's title is *Early Adapting to Trends*, and its motivating story is
an environment that can change (the preferable foraging side): whenever the
correct opinion flips, the previous consensus plus stale counters are just
another adversarial configuration, and self-stabilization guarantees
re-convergence. This experiment makes that quantitative: the source's
correct opinion flips every ``period`` rounds, and we measure the
*adaptation lag* — the number of rounds after each flip until the population
re-converges on the new correct opinion — along with the fraction of total
time spent correct.

The lag is exactly a convergence-from-all-wrong-consensus episode, so it
should match the Cyan-bounce times of the static experiments and stay flat
in the number of flips (no degradation over repeated changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import SynchronousEngine
from ..core.population import make_population
from ..core.rng import as_rng
from ..protocols.fet import FETProtocol

__all__ = ["AdaptivityResult", "run_changing_environment"]


@dataclass
class AdaptivityResult:
    """Outcome of a changing-environment run.

    ``lags[i]`` is the number of rounds after the i-th flip until the whole
    population first holds the new correct opinion (``period`` when it never
    re-converged within the cycle — counted in ``missed``).
    """

    n: int
    period: int
    flips: int
    lags: list[int] = field(default_factory=list)
    missed: int = 0
    correct_time_fraction: float = 0.0

    @property
    def mean_lag(self) -> float:
        return float(np.mean(self.lags)) if self.lags else float("nan")

    @property
    def max_lag(self) -> int:
        return max(self.lags) if self.lags else 0


def run_changing_environment(
    n: int,
    ell: int,
    *,
    period: int,
    flips: int,
    seed: int | np.random.Generator,
) -> AdaptivityResult:
    """Run FET while the correct opinion flips every ``period`` rounds.

    The run starts converged on opinion 1. Each cycle flips the source's
    preference (and the population's ``correct_opinion``), then runs
    ``period`` rounds as one :meth:`SynchronousEngine.run` that never stops
    early, and reads off its trajectory when the population first fully
    matches the new correct opinion and how many rounds of the cycle were
    spent correct. The engine writes its final opinions and counters back,
    so each cycle starts from where the last one ended.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if flips < 1:
        raise ValueError(f"flips must be >= 1, got {flips}")
    protocol = FETProtocol(ell)
    population = make_population(n, correct_opinion=1)
    population.set_opinions(np.ones((1, n), dtype=np.uint8))
    state = {"prev_count": np.full((1, n), ell, dtype=np.int64)}
    engine = SynchronousEngine(protocol, population, rng=as_rng(seed), state=state)

    result = AdaptivityResult(n=n, period=period, flips=flips)
    correct_rounds = 0
    for _ in range(flips):
        new_correct = 1 - population.correct_opinion
        population.correct_opinion = new_correct
        population.source_preferences[population.source_mask] = new_correct
        population.pin_sources()

        run = engine.run(period, stop_condition=_never)
        # trajectory[t] is the one-fraction after round t of the cycle; the
        # whole population is correct exactly when it equals the new bit.
        correct = run.trajectory[1:] == float(new_correct)
        correct_rounds += int(np.count_nonzero(correct))
        if correct.any():
            result.lags.append(int(np.argmax(correct)) + 1)
        else:
            result.missed += 1
            result.lags.append(period)
    result.correct_time_fraction = correct_rounds / (period * flips)
    return result


def _never(rows) -> np.ndarray:
    """Stop condition of a cycle: run its full period."""
    return np.zeros(rows.replicas, dtype=bool)
