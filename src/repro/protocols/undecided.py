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
    # State ``s = 2·opinion + undecided`` (S = 4). Each agent's move depends
    # only on its state and its one observed bit (Bernoulli(x̃)), and the
    # two undecided states move alike, so three binomial splits give the
    # exact law: decided-0 agents that see a 1 (they become undecided
    # showing 0), decided-1 agents that see a 1 (they stay), and undecided
    # agents that see a 1 (they decide 1; the rest decide 0).

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
        decided0, undecided0, decided1, undecided1 = counts.T
        undecided = undecided0 + undecided1
        see_one = rng.binomial(
            np.stack([decided0, decided1, undecided], axis=1),
            np.asarray(x_eff, dtype=float)[:, None],
        )
        doubting, staying, deciding = see_one.T
        return np.stack(
            [decided0 - doubting + undecided - deciding, doubting,
             staying + deciding, decided1 - staying],
            axis=1,
        ).astype(np.int64)

    def samples_per_round(self) -> int:
        return 1

    def memory_bits(self) -> float:
        return 1.0
