"""Dead-band (hysteresis) FET — a negative-result ablation.

The noise study (E-noise) shows FET's consensus is a knife-edge: any
observation noise knocks the population into sustained oscillation, because
the trend rule amplifies a single noisy defection. The obvious fix is
hysteresis: only react to trends larger than a dead-band ``band``::

    count′_t > count″_{t-1} + band  → adopt 1
    count′_t < count″_{t-1} − band  → adopt 0
    otherwise                        → keep

Measured outcome (bench E-hyst): the fix **does not work** —

* retention under noise is *not* restored: near (but not at) consensus the
  count fluctuation scale is ``√(ℓ·x(1−x))``, which exceeds any fixed band
  long before unanimity is reached, so the oscillations survive;
* noiseless convergence *slows dramatically* (the Yellow-escape mechanism
  of Section 3 lives off exactly the small ``O(√ℓ)``-scale trends the band
  suppresses), and large bands stall convergence outright.

The alternative — anchoring retention on the sample *level* (e.g. "never
leave opinion 1 while ``count′ ≥ (1−θ)ℓ``") — provably breaks
self-stabilization: it recreates the frozen-unanimity witness of the
Section 1.2 impossibility argument around the *wrong* consensus. Together
these ablations show the paper's bare tie rule is not an oversight but a
forced move: sensitivity to vanishing trends is precisely what buys
self-stabilization. ``band = 0`` recovers FET exactly.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import ProtocolState
from ..core.sampling import BatchedSampler
from .counting import PairChainCountModel

__all__ = ["HysteresisFETProtocol"]


class HysteresisFETProtocol(PairChainCountModel):
    """FET with a symmetric dead-band on the trend comparison."""

    passive = True

    def __init__(self, ell: int, band: int) -> None:
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        if band < 0:
            raise ValueError(f"band must be non-negative, got {band}")
        self.ell = ell
        self.band = band
        self.name = f"hysteresis-fet(ell={ell},band={band})"

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"prev_count": np.zeros((replicas, n), dtype=np.int64)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"prev_count": rng.integers(0, self.ell + 1, size=(replicas, n), dtype=np.int64)}

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        blocks = sampler.count_blocks(batch, self.ell, 2, rng)
        count_prime = blocks[0]
        prev = states["prev_count"]
        new = np.where(
            count_prime > prev + self.band,
            np.uint8(1),
            np.where(count_prime < prev - self.band, np.uint8(0), batch.opinions),
        ).astype(np.uint8)
        states["prev_count"] = blocks[1]
        return new

    # ---------------------------------------------------------- count model
    #
    # FET's pair chain (opinion counts plus one carried counter law per
    # replica, ``PairChainCountModel``); the dead-band only moves the
    # adoption thresholds inside ``pair_chain_law``. ``band = 0`` recovers
    # FET's count model exactly.

    def samples_per_round(self) -> int:
        return 2 * self.ell

    def memory_bits(self) -> float:
        return math.log2(self.ell + 1)
