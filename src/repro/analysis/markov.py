"""Exact Markov chain of the FET pair process for small populations.

Observation 1 implies that conditioned on ``(x_t, x_{t+1})`` — equivalently
on the one-counts ``(i, j)`` — the next one-count ``k`` is distributed as

    k = 1 + Binomial(j − 1, p_keep) + Binomial(n − j, p_gain)

where (for a source with opinion 1, ``x = i/n``, ``y = j/n``)

    p_gain = P(B_ℓ(y) > B_ℓ(x))          (a 0-holder flips to 1)
    p_keep = P(B_ℓ(y) ≥ B_ℓ(x))          (a 1-holder stays at 1)

and the ``1 +`` accounts for the pinned source. The pair ``(i, j)`` therefore
forms a Markov chain on ``{1..n}²`` with unique absorbing state ``(n, n)``.
For small ``n`` we build the exact transition law and solve the linear system
for expected absorption times — the ground truth that validates the
simulation engine (benchmark E-markov) and Observation 1 itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import binomial_pmf, compare_binomials

__all__ = ["ExactPairChain", "next_count_distribution"]


def next_count_distribution(n: int, i: int, j: int, ell: int) -> np.ndarray:
    """Distribution of the next one-count ``k`` given counts ``(i, j)``.

    Returns an ``(n+1,)`` vector over ``k ∈ {0..n}`` (entries below 1 are
    zero because the source is pinned at opinion 1).
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"counts must lie in [1, n] with a pinned source, got ({i}, {j})")
    x = i / n
    y = j / n
    cmp_ = compare_binomials(ell, y, x)
    # Clamp away float accumulation (p_keep can exceed 1 by a few ulps,
    # which would poison the pmf with NaNs).
    p_gain = min(1.0, max(0.0, cmp_.p_first_wins))
    p_keep = min(1.0, max(0.0, cmp_.p_first_wins + cmp_.p_tie))
    ones_part = binomial_pmf(j - 1, p_keep)  # kept 1-holders among non-sources
    zeros_part = binomial_pmf(n - j, p_gain)  # converted 0-holders
    dist = np.convolve(ones_part, zeros_part)
    out = np.zeros(n + 1)
    out[1 : 1 + dist.size] = dist
    return out


@dataclass(frozen=True)
class ExactPairChain:
    """Exact chain on pairs ``(i, j) ∈ {1..n}²`` for FET with sample size ℓ.

    Builds the full transition structure lazily; states are indexed
    ``s = (i − 1)·n + (j − 1)``.
    """

    n: int
    ell: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.n > 64:
            raise ValueError(
                f"exact chain is O(n^4); n={self.n} would be too large — use the simulator"
            )

    @property
    def num_states(self) -> int:
        return self.n * self.n

    def state_index(self, i: int, j: int) -> int:
        return (i - 1) * self.n + (j - 1)

    def state_of(self, s: int) -> tuple[int, int]:
        return s // self.n + 1, s % self.n + 1

    @property
    def absorbing_index(self) -> int:
        return self.state_index(self.n, self.n)

    @lru_cache(maxsize=None)
    def _next_dist(self, i: int, j: int) -> tuple[float, ...]:
        return tuple(next_count_distribution(self.n, i, j, self.ell))

    def transition_matrix(self) -> np.ndarray:
        """Dense ``(n², n²)`` row-stochastic matrix of the pair chain.

        From state ``(i, j)`` the chain moves to ``(j, k)`` with the
        probability that the next one-count is ``k``.
        """
        n = self.n
        size = self.num_states
        matrix = np.zeros((size, size))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dist = np.asarray(self._next_dist(i, j))
                row = self.state_index(i, j)
                for k in range(1, n + 1):
                    p = dist[k]
                    if p > 0.0:
                        matrix[row, self.state_index(j, k)] = p
        return matrix

    def is_absorbing(self) -> bool:
        """Check that ``(n, n)`` is absorbing: all-ones stays all-ones."""
        dist = np.asarray(self._next_dist(self.n, self.n))
        return bool(np.isclose(dist[self.n], 1.0))

    def expected_absorption_times(self) -> np.ndarray:
        """Expected rounds to reach ``(n, n)`` from every state.

        Solves ``(I − Q)h = 1`` over the transient states. Requires the chain
        to be absorbing from everywhere (true for FET with a pinned source:
        the absorption probability is 1).
        """
        matrix = self.transition_matrix()
        absorbing = self.absorbing_index
        transient = [s for s in range(self.num_states) if s != absorbing]
        q = matrix[np.ix_(transient, transient)]
        identity = np.eye(len(transient))
        times = np.linalg.solve(identity - q, np.ones(len(transient)))
        out = np.zeros(self.num_states)
        for idx, s in enumerate(transient):
            out[s] = times[idx]
        return out

    def expected_time_from(self, i: int, j: int) -> float:
        """Expected absorption time from pair state ``(i, j)``."""
        return float(self.expected_absorption_times()[self.state_index(i, j)])

    def expected_time_from_all_wrong(self) -> float:
        """Expected absorption time from the all-wrong start ``(1, 1)``.

        (Only the source holds opinion 1 in both of the last two rounds.)
        """
        return self.expected_time_from(1, 1)
