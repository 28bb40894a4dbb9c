"""Undecided-State Dynamics (USD) baseline.

Angluin, Aspnes & Eisenstat 2008 (cited in Section 1.4): each agent is either
*decided* on an opinion or *undecided*. On meeting a decided agent with the
opposite opinion, a decided agent becomes undecided; an undecided agent adopts
the first decided opinion it sees.

Passive-communication adaptation: an undecided agent still has to display a
binary opinion (it cannot display "undecided"), so it keeps showing its last
decided opinion while internally undecided — this is the natural embedding of
USD into the paper's passive model, and it is why the internal ``undecided``
flag counts toward the protocol's memory.

Like the other consensus dynamics, USD converges to the initial
majority/plurality, not to the source's opinion, so it fails the
self-stabilizing dissemination task from adversarial starts.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler

__all__ = ["UndecidedStateProtocol"]


class UndecidedStateProtocol(Protocol):
    """One-sample undecided-state dynamics under passive communication."""

    passive = True
    counts_supported = True
    name = "undecided-state"

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"undecided": np.zeros((replicas, n), dtype=bool)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"undecided": rng.integers(0, 2, size=(replicas, n)).astype(bool)}

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        seen = (sampler.counts(batch, 1, rng) > 0).astype(np.uint8)
        opinions = batch.opinions
        undecided = states["undecided"]
        disagree = seen != opinions
        states["undecided"] = np.where(undecided, False, disagree)
        return np.where(undecided, seen, opinions).astype(np.uint8)

    # ---------------------------------------------------------- count model
    #
    # State ``s = 2·opinion + undecided`` (S = 4). Each agent's transition
    # depends only on its state and the one observed bit (Bernoulli(x̃)), so
    # the full dense 4×4 kernel is cheap: one multinomial split per state.

    def count_display(self) -> np.ndarray:
        return np.array([0, 0, 1, 1], dtype=np.uint8)

    def count_state_pmf(self, counter: np.ndarray | None = None) -> np.ndarray:
        pmf = np.zeros((2, 4))
        pmf[0, 0] = pmf[0, 1] = 0.5
        pmf[1, 2] = pmf[1, 3] = 0.5
        return pmf

    def step_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        replicas = counts.shape[0]
        x = np.asarray(x_eff, dtype=float)
        kernel = np.zeros((replicas, 4, 4))
        # Decided 0 (s=0): sees 1 w.p. x̃ -> undecided (s=1), else stays.
        kernel[:, 0, 0] = 1.0 - x
        kernel[:, 0, 1] = x
        # Undecided showing 0 (s=1): adopts what it sees and decides.
        kernel[:, 1, 0] = 1.0 - x
        kernel[:, 1, 2] = x
        # Decided 1 (s=2): sees 0 w.p. 1-x̃ -> undecided (s=3), else stays.
        kernel[:, 2, 2] = x
        kernel[:, 2, 3] = 1.0 - x
        # Undecided showing 1 (s=3): adopts what it sees and decides.
        kernel[:, 3, 0] = 1.0 - x
        kernel[:, 3, 2] = x
        moved = rng.multinomial(counts, kernel)
        return moved.sum(axis=1).astype(np.int64)

    def samples_per_round(self) -> int:
        return 1

    def memory_bits(self) -> float:
        return 1.0
