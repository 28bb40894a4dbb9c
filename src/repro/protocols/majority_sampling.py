"""Sample-majority baseline: adopt the majority of an ℓ-sample.

The most obvious passive rule with ℓ samples: look at ℓ random agents and
adopt the majority opinion among them (keep on ties). This amplifies whatever
majority currently exists — so, started from an adversarial wrong-majority
configuration, it locks the population into the *wrong* consensus and the
single pinned source cannot tip it back in sub-polynomial time. It is the
canonical illustration of why trend-following (comparing across rounds, as FET
does) rather than level-following (thresholding within a round) is needed for
self-stabilization. Benchmark E-base quantifies the failure.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import ProtocolState
from ..core.sampling import BatchedSampler
from .counting import TwoClassCountModel, binomial_upper_tail

__all__ = ["MajoritySamplingProtocol"]


class MajoritySamplingProtocol(TwoClassCountModel):
    """Adopt the majority among ℓ uniform samples; keep opinion on ties."""

    passive = True

    def __init__(self, ell: int) -> None:
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.name = f"sample-majority(ell={ell})"

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        twice = 2 * sampler.counts(batch, self.ell, rng)
        return np.where(
            twice > self.ell,
            np.uint8(1),
            np.where(twice < self.ell, np.uint8(0), batch.opinions),
        ).astype(np.uint8)

    # ---------------------------------------------------------- count model
    #
    # Stateless, but the tie-keep rule makes the adoption probability depend
    # on the current opinion when ℓ is even: agents at opinion 1 also keep
    # on the tie count ℓ/2. Two binomial splits (one per opinion class), with
    # the tails read in closed form.

    def adoption_law(
        self, states: ProtocolState, x_eff: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # opinion 0 moves on 2·count > ℓ; opinion 1 also keeps on the tie
        p_up = binomial_upper_tail(self.ell, self.ell // 2 + 1, x_eff)
        p_keep = binomial_upper_tail(self.ell, (self.ell + 1) // 2, x_eff)
        return p_up, p_keep

    def samples_per_round(self) -> int:
        return self.ell
