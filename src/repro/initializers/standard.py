"""Standard initial-configuration builders.

An initializer installs an initial opinion configuration (and optionally
internal protocol state) before a run. The self-stabilizing setting means the
adversary controls everything, so experiments sweep over these classes; the
crafted worst-case constructions live in :mod:`repro.initializers.adversarial`.

Every initializer has one per-agent implementation,
:meth:`Initializer.apply_batch`: one call initializes every replica of a
:class:`~repro.core.batch.BatchedPopulation` with vectorized draws, and a
single population is the one-row case (``SynchronousEngine(initializer=...)``,
``engine="sequential"``). Exchangeable initializers additionally express
their law at the count level (``supports_counts`` /
:meth:`Initializer.apply_counts`) for the counts engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from typing import TYPE_CHECKING

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.counts import CountPopulation

__all__ = [
    "Initializer",
    "set_fraction",
    "AllWrong",
    "AllCorrect",
    "BernoulliRandom",
    "ExactFraction",
    "RandomizeProtocolState",
]


def set_fraction(batch: BatchedPopulation, x: float, rng: np.random.Generator) -> None:
    """Give every replica exactly ``round(x·n)`` ones at uniformly random
    positions (sources then re-pinned), independently per replica.

    A uniform within-row shuffle of a fixed-weight row is exactly "ones at
    uniformly random positions".
    """
    ones = int(round(x * batch.n))
    row = np.zeros(batch.n, dtype=np.uint8)
    row[:ones] = 1
    opinions = np.tile(row, (batch.replicas, 1))
    rng.permuted(opinions, axis=1, out=opinions)
    batch.adversarial_opinions(opinions, validate=False)


class Initializer(ABC):
    """Base class: installs opinions and/or protocol state in place."""

    name: str = "initializer"
    #: ``True`` when :meth:`apply_counts` can express the initial distribution
    #: at the count level (exchangeable over non-source agents). Crafted
    #: per-agent constructions stay ``False`` and are rejected by the counts
    #: engine dispatch.
    supports_counts: bool = False

    @abstractmethod
    def apply_batch(
        self,
        batch: BatchedPopulation,
        protocol: Protocol,
        states: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        """Install the initial configuration into every replica at once,
        mutating ``batch`` and ``states`` (the protocol's batched state,
        leading replica axis) in place. A single population is the one-row
        case."""

    def apply_counts(
        self,
        population: "CountPopulation",
        protocol: Protocol,
        rng: np.random.Generator,
    ) -> None:
        """Install the initial state-count distribution into every replica.

        The count-level form of :meth:`apply_batch`: draws each replica's
        ``(S,)`` state-count vector directly (multinomial over the joint
        opinion/internal-state distribution this initializer induces), with
        no per-agent arrays. Exact in distribution for exchangeable
        initializers; only available when ``supports_counts`` is ``True``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support count-level application "
            "(supports_counts=False)"
        )

    def spec(self) -> dict:
        """Declarative ``{"name": ..., params}`` form for sweep cells.

        The inverse of ``repro.sweep.registry.build_initializer``: it lets
        experiment drivers that accept initializer *objects* hand the same
        configuration to the declarative sweep orchestrator. Initializers
        without a registry entry raise.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no declarative sweep spec; "
            "see repro.sweep.registry for the supported initializers"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class AllWrong(Initializer):
    """Every non-source agent starts on the wrong opinion.

    The canonical dissemination start: the source's information has to spread
    against a unanimous wrong consensus. Corresponds to the Cyan region of the
    grid (``x_t ≈ x_{t+1} ≈ 0`` when correct = 1).
    """

    name = "all-wrong"
    supports_counts = True

    def apply_batch(self, batch, protocol, states, rng) -> None:
        wrong = 1 - batch.correct_opinion
        opinions = np.full((batch.replicas, batch.n), wrong, dtype=np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Every non-source shows the wrong opinion with adversarial-uniform
        # internal state: one multinomial over that opinion's state row.
        wrong = 1 - population.correct_opinion
        pmf = protocol.count_random_state_pmf()[wrong]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "all-wrong"}


class AllCorrect(Initializer):
    """Every agent starts on the correct opinion (stability check)."""

    name = "all-correct"
    supports_counts = True

    def apply_batch(self, batch, protocol, states, rng) -> None:
        opinions = np.full((batch.replicas, batch.n), batch.correct_opinion, dtype=np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        pmf = protocol.count_random_state_pmf()[population.correct_opinion]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "all-correct"}


class BernoulliRandom(Initializer):
    """Each non-source opinion independently 1 with probability ``p``."""

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.name = f"bernoulli(p={p})"
        self.supports_counts = True

    def apply_batch(self, batch, protocol, states, rng) -> None:
        opinions = (rng.random((batch.replicas, batch.n)) < self.p).astype(np.uint8)
        batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Non-source opinions are iid Bernoulli(p); with adversarial internal
        # state the per-agent state distribution is the p-mixture of the two
        # opinion rows, so each replica is one multinomial draw from it.
        rows = protocol.count_random_state_pmf()
        pmf = self.p * rows[1] + (1.0 - self.p) * rows[0]
        population.set_counts(
            rng.multinomial(population.n_free, pmf, size=population.replicas)
        )

    def spec(self) -> dict:
        return {"name": "bernoulli", "p": self.p}


class ExactFraction(Initializer):
    """Exactly ``round(x * n)`` agents start with opinion 1, placed at random.

    Used to pin the chain's starting point ``x_0`` precisely, e.g. to start in
    a chosen grid domain.
    """

    def __init__(self, x: float) -> None:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x must be in [0, 1], got {x}")
        self.x = x
        self.name = f"fraction(x={x})"
        self.supports_counts = True

    def apply_batch(self, batch, protocol, states, rng) -> None:
        set_fraction(batch, self.x, rng)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # apply_batch places round(x·n) ones uniformly among all n agents
        # and then pins sources, so the number landing on non-sources is
        # hypergeometric; internal state is adversarial-uniform per opinion.
        ones = int(round(self.x * population.n))
        n_free = population.n_free
        replicas = population.replicas
        if ones <= 0:
            ones_free = np.zeros(replicas, dtype=np.int64)
        elif ones >= population.n:
            ones_free = np.full(replicas, n_free, dtype=np.int64)
        else:
            ones_free = rng.hypergeometric(
                n_free, population.num_sources, ones, size=replicas
            )
        rows = protocol.count_random_state_pmf()
        counts = rng.multinomial(ones_free, rows[1]) + rng.multinomial(
            n_free - ones_free, rows[0]
        )
        population.set_counts(counts)

    def spec(self) -> dict:
        return {"name": "fraction", "x": self.x}


class RandomizeProtocolState(Initializer):
    """Leave opinions untouched; randomize only the internal protocol state."""

    name = "randomize-state"
    supports_counts = True

    def apply_batch(self, batch, protocol, states, rng) -> None:
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))

    def apply_counts(self, population, protocol, rng) -> None:
        # Opinions keep their current per-replica totals; internal state is
        # redrawn adversarial-uniform within each opinion class.
        rows = protocol.count_random_state_pmf()
        ones_mass = population.counts @ (population.display == 1).astype(np.int64)
        counts = rng.multinomial(ones_mass, rows[1]) + rng.multinomial(
            population.n_free - ones_mass, rows[0]
        )
        population.set_counts(counts)

    def spec(self) -> dict:
        return {"name": "randomize-state"}
