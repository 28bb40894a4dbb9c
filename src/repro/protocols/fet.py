"""Follow the Emerging Trend (FET) — Protocol 1 of the paper.

Each round ``t``, every agent draws ``2ℓ`` uniform-with-replacement samples,
partitions them uniformly at random into two blocks ``S′_t`` and ``S″_t`` of
size ℓ, and counts 1-opinions in each (``count′_t``, ``count″_t``). It then
compares this round's ``count′_t`` to the *previous* round's ``count″_{t-1}``:

* ``count′_t > count″_{t-1}`` → adopt opinion 1 (an upward trend is emerging);
* ``count′_t < count″_{t-1}`` → adopt opinion 0;
* tie → keep the current opinion.

The split into two blocks makes consecutive comparisons use disjoint sample
sets, removing the dependence between ``Y_t`` and ``Y_{t+1}`` that would make
the single-counter variant (see :mod:`repro.protocols.simple_trend`) harder to
analyze — the key modelling move of Section 1.3.

Sampling with replacement from a population with one-fraction ``x`` makes the
two block counts independent ``Binomial(ℓ, x)`` variables, so the vectorized
implementation below draws them directly (exact, not approximate).

Memory: the only carried variable is ``count″_{t-1} ∈ {0, …, ℓ}``, i.e.
``log2(ℓ+1)`` bits — the ``O(log ℓ)`` of Theorem 1.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import ProtocolState
from ..core.sampling import BatchedSampler
from .counting import PairChainCountModel

__all__ = ["FETProtocol", "ell_for", "DEFAULT_SAMPLE_CONSTANT"]

#: Default multiplier in ℓ = ceil(c · ln n). The paper requires c sufficiently
#: large; c = 8 keeps per-domain failure probabilities small for the n used in
#: the experiments while staying fast.
DEFAULT_SAMPLE_CONSTANT = 8.0


def ell_for(n: int, c: float = DEFAULT_SAMPLE_CONSTANT) -> int:
    """The paper's sample size ``ℓ = ⌈c·ln n⌉`` (at least 1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return max(1, math.ceil(c * math.log(n)))


class FETProtocol(PairChainCountModel):
    """Vectorized FET (paper, Protocol 1).

    Parameters
    ----------
    ell:
        Block sample size ℓ. Each agent draws ``2ℓ`` samples per round.
    """

    passive = True
    #: FET's count model is the band-0 pair chain.
    band = 0

    def __init__(self, ell: int) -> None:
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.name = f"fet(ell={ell})"

    # ---------------------------------------------------------------- state

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """Clean start: as if the previous round's block was all zeros.

        The concrete value is irrelevant to correctness (the protocol is
        self-stabilizing); adversarial runs overwrite it anyway.
        """
        return {"prev_count": np.zeros((replicas, n), dtype=np.int64)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """Adversarial state: arbitrary counters in ``{0, …, ℓ}``."""
        return {"prev_count": rng.integers(0, self.ell + 1, size=(replicas, n), dtype=np.int64)}

    # ----------------------------------------------------------------- step

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All replicas at once: Protocol 1's rule over ``(A, n)``.

        The three-way rule (greater → 1, smaller → 0, tie → keep) is fused
        into a single comparison: doubling both counters makes room to fold
        the current opinion bit into the left side, and
        ``2·count′ + opinion > 2·prev`` resolves to ``count′ > prev`` off a
        tie and to ``opinion`` on one. One comparison pass over scratch
        buffers (both count matrices are dead after this round) replaces
        the equality/greater/select triple — each of which read two full
        ``(A, n)`` operands — and the bool result reinterprets as ``uint8``
        for free.
        """
        blocks = sampler.count_blocks(batch, self.ell, 2, rng)
        count_prime = blocks[0]
        prev = states["prev_count"]
        if np.shares_memory(prev, blocks):
            # A buffer-reusing sampler handed back the tensor that still
            # backs last round's carried count: leave it untouched and
            # build the doubled operands out of place.
            lhs = count_prime + count_prime
            prev2 = prev + prev
        else:
            # count_blocks returns freshly-allocated counts (the
            # BatchedSampler contract), and the carried count dies this
            # round — both are scratch, so the doubling runs in place.
            lhs = np.add(count_prime, count_prime, out=count_prime)
            prev2 = np.add(prev, prev, out=prev)
        np.add(lhs, batch.opinions, out=lhs, casting="unsafe")
        new = lhs > prev2
        states["prev_count"] = blocks[1]
        return new.view(np.uint8)

    # ---------------------------------------------------------- count model
    #
    # The paper's pair chain. The carried counter is an independent second
    # sample block, so given the opinions every non-source's counter is iid
    # from one law whatever its opinion (Observation 1). A replica is its
    # opinion counts (S = 2) plus that ``(ℓ+1,)`` counter law, carried as
    # per-replica protocol state: a point mass at 0 for the clean start, the
    # initializer's ``counter_pmf`` otherwise (``PairChainCountModel``). A
    # round is two binomial draws over the adoption law ``pair_chain_law``
    # reads off the carried law; FET is the band-0 case.

    # ----------------------------------------------------------- accounting

    def samples_per_round(self) -> int:
        return 2 * self.ell

    def memory_bits(self) -> float:
        return math.log2(self.ell + 1)
