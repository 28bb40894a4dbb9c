"""Run records: what an engine execution produces.

Kept separate from the engine so that experiment code can build and serialize
results without importing simulation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of a full engine run.

    Attributes
    ----------
    converged:
        ``True`` when the population reached the correct consensus and held it
        for the engine's stability window before ``max_rounds`` elapsed.
    rounds:
        Number of rounds executed until convergence was first detected
        (i.e. the first round index ``t_con`` at which the configuration
        reached the correct consensus and then stayed), or ``max_rounds``
        when the run did not converge.
    trajectory:
        ``x_t`` for every observed round, *including* the initial fraction;
        ``trajectory[t]`` is the one-fraction at the start of round ``t``.
    flips:
        Per-round count of agents that changed opinion (parallel to rounds
        executed). Empty when flip recording is disabled.
    """

    converged: bool
    rounds: int
    trajectory: np.ndarray
    flips: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def final_fraction(self) -> float:
        return float(self.trajectory[-1])

    def pairs(self) -> np.ndarray:
        """Return the ``(x_t, x_{t+1})`` pairs of the trajectory.

        This is the state of the Markov chain the paper analyzes on the grid
        ``G`` (Section 2); used by domain classification and the Figure 1b
        transition experiment.
        """
        xs = self.trajectory
        if xs.size < 2:
            return np.zeros((0, 2))
        return np.stack([xs[:-1], xs[1:]], axis=1)

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "rounds": self.rounds,
            "final_fraction": self.final_fraction,
        }
