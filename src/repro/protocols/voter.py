"""Voter model baseline.

Classic opinion dynamics (Liggett 1985, cited in Section 1.4): each round,
each agent copies the opinion of one uniformly sampled agent. It is passive
(the revealed information is the opinion) but it is *not* a solution to
source-driven bit-dissemination: from an adversarial almost-wrong-consensus
start it typically reaches the *wrong* consensus, and with a pinned source the
expected escape time back to the correct consensus is polynomial in ``n``, not
poly-logarithmic. The baseline benchmark (E-base) measures exactly this
failure mode.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import ProtocolState
from ..core.sampling import BatchedSampler
from .counting import TwoClassCountModel

__all__ = ["VoterProtocol"]


class VoterProtocol(TwoClassCountModel):
    """Copy one uniformly random agent's opinion each round."""

    passive = True
    name = "voter"

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        seen = sampler.counts(batch, 1, rng)
        return (seen > 0).astype(np.uint8)

    # ---------------------------------------------------------- count model
    #
    # Stateless and opinion-blind: every agent adopts 1 independently with
    # probability x̃, so the new one-count is a single binomial draw per
    # replica.

    def adoption_law(
        self, states: ProtocolState, x_eff: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return x_eff, x_eff

    def samples_per_round(self) -> int:
        return 1
