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
from .counting import (
    prev_count_display,
    prev_count_init_pmf,
    prev_count_random_pmf,
    scatter_counts,
)

__all__ = ["SimpleTrendProtocol"]


class SimpleTrendProtocol(Protocol):
    """Single-counter trend following (ℓ samples per round)."""

    passive = True
    counts_supported = True
    #: measured counts/batched crossover (results/BENCH_counts.json, scan)
    counts_min_n = 10_000

    def __init__(self, ell: int) -> None:
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.name = f"simple-trend(ell={ell})"
        self._count_targets: np.ndarray | None = None

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
    # Same state space as FET (``s = opinion·(ℓ+1) + prev``) but the kernel
    # does NOT factorize: the carried counter *is* the compared count, so
    # the new ``(opinion, prev)`` pair is a deterministic function of the
    # source state and the single draw ``count ~ Binomial(ℓ, x̃)``. The
    # transition is one multinomial split per source state followed by a
    # scatter onto the precomputed ``(s, count) -> s′`` map — exactly the
    # correlation that distinguishes this ablation from FET, preserved at
    # the count level.

    def count_states(self) -> int:
        return 2 * (self.ell + 1)

    def count_display(self) -> np.ndarray:
        return prev_count_display(self.ell)

    def count_init_state_pmf(self) -> np.ndarray:
        return prev_count_init_pmf(self.ell)

    def count_random_state_pmf(self) -> np.ndarray:
        return prev_count_random_pmf(self.ell)

    def _targets(self) -> np.ndarray:
        if self._count_targets is None:
            width = self.ell + 1
            prev = np.tile(np.arange(width), 2)[:, None]
            opinion = np.repeat(np.array([0, 1]), width)[:, None]
            count = np.arange(width)[None, :]
            new_opinion = np.where(count > prev, 1, np.where(count < prev, 0, opinion))
            self._count_targets = new_opinion * width + count
        return self._count_targets

    def step_counts(
        self, counts: np.ndarray, x_eff: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        pmf = _binomial_pmf_rows(self.ell, x_eff)
        dist = rng.multinomial(counts, pmf[:, None, :])
        return scatter_counts(dist, self._targets(), 2 * (self.ell + 1))

    def samples_per_round(self) -> int:
        return self.ell

    def memory_bits(self) -> float:
        return math.log2(self.ell + 1)
