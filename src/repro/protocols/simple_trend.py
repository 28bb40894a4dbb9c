"""The single-counter trend protocol — the first procedure of Section 1.3.

This is FET *without* the sample split: each round an agent draws one block of
``ℓ`` samples, compares its count to the count of the previous round, and
moves with the trend. The same counter is therefore used in two consecutive
comparisons, making ``Y_t`` and ``Y_{t+1}`` dependent even conditioned on
``(x_{t-1}, x_t)`` — the feature that, per the paper, "will make the analysis
difficult" and motivates the FET split.

It is included as an ablation target (E-ablate in DESIGN.md): empirically it
behaves very similarly to FET, and the ablation benchmark quantifies that.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler, _binomial_pmf_rows

__all__ = ["SimpleTrendProtocol"]


class SimpleTrendProtocol(Protocol):
    """Single-counter trend following (ℓ samples per round)."""

    passive = True
    counts_supported = True

    def __init__(self, ell: int) -> None:
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.name = f"simple-trend(ell={ell})"

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
        count = sampler.counts(batch, self.ell, rng)
        prev = states["prev_count"]
        new = np.where(
            count > prev,
            np.uint8(1),
            np.where(count < prev, np.uint8(0), batch.opinions),
        ).astype(np.uint8)
        states["prev_count"] = count
        return new

    # ---------------------------------------------------------- count model
    #
    # State ``s = opinion·(ℓ+1) + prev`` (S = 2(ℓ+1)). Unlike FET's pair
    # chain, the counters do not stay iid from one law beside the opinions:
    # the carried counter *is* the compared count, so the new ``(opinion,
    # prev)`` pair is a deterministic function of the source state and the
    # single draw ``count ~ Binomial(ℓ, x̃)``, and the histogram over both
    # must be carried. The step
    # draws only what that law needs: one binomial per state keeps the
    # agents whose count equals ``prev``, one per counter value splits the
    # rest into count below or above ``prev``, and one hazard sweep lands
    # the movers, pooled over their origins, on their new counts — O(A·ℓ)
    # draws per round. The correlation that distinguishes this ablation from
    # FET is preserved.

    def count_display(self) -> np.ndarray:
        return np.repeat(np.array([0, 1], dtype=np.uint8), self.ell + 1)

    def count_state_pmf(self, counter: np.ndarray | None = None) -> np.ndarray:
        """Given o: ``prev ~ counter``, uniform on ``{0..ℓ}`` when ``None``
        (``randomize_state_batch``'s counters)."""
        width = self.ell + 1
        if counter is None:
            counter = np.full(width, 1.0 / width)
        pmf = np.zeros((2, 2 * width))
        pmf[0, :width] = counter
        pmf[1, width:] = counter
        return pmf

    def step_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        replicas, width = counts.shape[0], self.ell + 1
        pmf = _binomial_pmf_rows(self.ell, x_eff)
        # at_most[:, c] = P(count ≤ c), at_least[:, c] = P(count ≥ c); each is
        # a running sum of non-negative terms, so it bounds pmf[:, c] from
        # above and every ratio below stays within [0, 1].
        at_most = np.cumsum(pmf, axis=1)
        at_least = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]

        by_prev = counts.reshape(replicas, 2, width)
        # Agents whose count equals prev keep their state. The rest move, and
        # whether down or up does not depend on the opinion: one binomial per
        # counter value with P(count < p | count ≠ p).
        new = rng.binomial(by_prev, pmf[:, None, :])
        movers = (by_prev - new).sum(axis=1)
        below = np.zeros_like(pmf)
        below[:, 1:] = at_most[:, :-1]
        above = np.zeros_like(pmf)
        above[:, :-1] = at_least[:, 1:]
        p_down = np.zeros_like(pmf)
        np.divide(below, below + above, out=p_down, where=below > 0)
        down = rng.binomial(movers, p_down)

        # One sweep lands both directions, count-major so each step reads a
        # contiguous row: columns ``:A`` rise into ``(1, c)``, columns ``A:``
        # fall into ``(0, c)`` on the reversed count axis.
        entering = np.concatenate([(movers - down).T, down.T[::-1]], axis=1)
        hazard = np.ones((width, 2 * replicas))
        rise, fall = hazard[:, :replicas], hazard[:, replicas:]
        np.divide(pmf.T, at_least.T, out=rise, where=at_least.T > 0)
        np.divide(pmf.T[::-1], at_most.T[::-1], out=fall, where=at_most.T[::-1] > 0)
        landed = _hazard_sweep(entering, hazard, rng)
        new[:, 1, :] += landed[:, :replicas].T
        new[:, 0, :] += landed[::-1, replicas:].T
        return new.reshape(replicas, 2 * width)

    def samples_per_round(self) -> int:
        return self.ell

    def memory_bits(self) -> float:
        return math.log2(self.ell + 1)


def _hazard_sweep(
    entering: np.ndarray, hazard: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Land agents whose fresh count lies strictly above their origin.

    Arrays are count-major, one column per pool: ``entering[p]`` agents hold
    a count known to exceed ``p``, and ``hazard[c] = P(count = c | count ≥
    c)``. Walking ``c`` upward, every agent still in the pool has count ≥
    ``c`` whatever its origin, so ``Binomial(pool, hazard[c])`` of them land
    at ``c`` — one binomial per count value for all origins at once. The walk
    starts past the lowest occupied origin and stops once the last origin has
    entered and the pool is empty; ``hazard[ℓ]`` is 1 (``pmf[ℓ] / pmf[ℓ]``),
    which drains it at the top.
    """
    landed = np.zeros_like(entering)
    origins = np.flatnonzero(entering.any(axis=1))
    if origins.size == 0:
        return landed
    pool = np.zeros(entering.shape[1], dtype=np.int64)
    for c in range(origins[0] + 1, entering.shape[0]):
        pool += entering[c - 1]
        if c > origins[-1] and not pool.any():
            break
        landed[c] = rng.binomial(pool, hazard[c])
        pool -= landed[c]
    return landed
