"""3-majority dynamics baseline.

Each round, each agent samples three agents uniformly at random and adopts the
majority opinion among them (Doerr et al. 2011, cited in Section 1.4). Like
the voter model it is passive, converges quickly to *some* consensus — but the
consensus tracks the initial majority, not the source's opinion, so it fails
self-stabilizing bit-dissemination from adversarial starts. A generalized
``k``-majority (odd ``k``) is provided for ablations.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler
from .counting import OPINION_DISPLAY, OPINION_STATE_PMF, binomial_upper_tail

__all__ = ["MajorityProtocol"]


class MajorityProtocol(Protocol):
    """Adopt the majority among ``k`` uniform samples (odd ``k``, ties impossible)."""

    passive = True
    counts_supported = True
    #: measured counts/batched crossover (results/BENCH_counts.json, scan)
    counts_min_n = 32

    def __init__(self, k: int = 3) -> None:
        if k < 1 or k % 2 == 0:
            raise ValueError(f"k must be odd and >= 1, got {k}")
        self.k = k
        self.name = f"{k}-majority"

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        counts = sampler.counts(batch, self.k, rng)
        return (2 * counts > self.k).astype(np.uint8)

    # ---------------------------------------------------------- count model
    #
    # Stateless and opinion-independent (odd k, no ties): every agent adopts
    # 1 with probability P(Binomial(k, x̃) > k/2), so the new one-count is a
    # single binomial draw per replica.

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
        p_one = binomial_upper_tail(self.k, (self.k + 1) // 2, x_eff)
        n_free = counts.sum(axis=1)
        ones = rng.binomial(n_free, p_one)
        return np.stack([n_free - ones, ones], axis=1).astype(np.int64)

    def samples_per_round(self) -> int:
        return self.k
