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
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler
from .counting import OPINION_DISPLAY, OPINION_STATE_PMF

__all__ = ["VoterProtocol"]


class VoterProtocol(Protocol):
    """Copy one uniformly random agent's opinion each round."""

    passive = True
    counts_supported = True
    #: measured counts/batched crossover (results/BENCH_counts.json, scan)
    counts_min_n = 32
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
    # Stateless: the opinion bit is the whole state. Every agent adopts 1
    # independently with probability x̃, so the new one-count is a single
    # binomial draw per replica.

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
        n_free = counts.sum(axis=1)
        ones = rng.binomial(n_free, x_eff)
        return np.stack([n_free - ones, ones], axis=1).astype(np.int64)

    def samples_per_round(self) -> int:
        return 1
