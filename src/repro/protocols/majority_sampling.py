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
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler
from .counting import OPINION_DISPLAY, OPINION_STATE_PMF, binomial_upper_tail

__all__ = ["MajoritySamplingProtocol"]


class MajoritySamplingProtocol(Protocol):
    """Adopt the majority among ℓ uniform samples; keep opinion on ties."""

    passive = True
    counts_supported = True
    #: measured counts/batched crossover (results/BENCH_counts.json, scan)
    counts_min_n = 32

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

    def count_display(self) -> np.ndarray:
        return OPINION_DISPLAY

    def count_state_pmf(self, counter: np.ndarray | None = None) -> np.ndarray:
        return OPINION_STATE_PMF

    def step_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        # opinion 0 moves on 2·count > ℓ; opinion 1 also keeps on the tie
        p_up = binomial_upper_tail(self.ell, self.ell // 2 + 1, x_eff)
        p_keep = binomial_upper_tail(self.ell, (self.ell + 1) // 2, x_eff)
        from_zero = rng.binomial(counts[:, 0], p_up)
        from_one = rng.binomial(counts[:, 1], p_keep)
        ones = from_zero + from_one
        return np.stack([counts.sum(axis=1) - ones, ones], axis=1).astype(np.int64)

    def samples_per_round(self) -> int:
        return self.ell
