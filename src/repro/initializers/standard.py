"""Standard initial-configuration builders.

An initializer installs an initial opinion configuration (and optionally
internal protocol state) before a run. The self-stabilizing setting means the
adversary controls everything, so experiments sweep over these classes; the
crafted worst-case constructions live in :mod:`repro.initializers.adversarial`.

Every start in this package except frozen unanimity is exchangeable over the
non-source agents, so its law is declared once, as two pieces:

* :meth:`Initializer.nonsource_ones` — how many non-sources of each replica
  show opinion 1 (``None`` keeps the current opinions);
* :meth:`Initializer.counter_pmf` — the law of a carried ``prev_count`` on
  ``{0..ℓ}`` (``None`` keeps the protocol's adversarial-uniform state).

The base class installs that one law in both engines:
:meth:`Initializer.apply_batch` places the drawn ones among each row's
non-source positions of a :class:`~repro.core.batch.BatchedPopulation`
(a single population is the one-row case), and
:meth:`Initializer.apply_counts` splits each opinion class of a
:class:`~repro.core.counts.CountPopulation` multinomially over the
protocol's :meth:`~repro.core.protocol.Protocol.count_state_pmf` and hands
the counter law to the protocol's carried count-model state
(:meth:`~repro.core.protocol.Protocol.randomize_count_state`; FET carries it
as one law per replica). Both read the same opinion-count draw, so the
per-agent and the count engines start from one law by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Union

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.counts import CountPopulation

    Population = Union[BatchedPopulation, CountPopulation]

__all__ = [
    "Initializer",
    "fraction_ones",
    "AllWrong",
    "AllCorrect",
    "BernoulliRandom",
    "ExactFraction",
    "RandomizeProtocolState",
]


def _n_free(population: "Population") -> int:
    return population.n - population.num_sources


def _uniform_ones(population: "Population", opinion: int) -> np.ndarray:
    """Every non-source of every replica on ``opinion``: ``(R,)`` one-counts."""
    return np.full(population.replicas, _n_free(population) if opinion else 0, dtype=np.int64)


def fraction_ones(
    population: "Population", x: float, rng: np.random.Generator
) -> np.ndarray:
    """Non-source one-counts when ``round(x·n)`` ones land uniformly on all n
    agents and the sources are then pinned: hypergeometric per replica."""
    ones = int(round(x * population.n))
    n_free = _n_free(population)
    if ones <= 0:
        return np.zeros(population.replicas, dtype=np.int64)
    if ones >= population.n:
        return np.full(population.replicas, n_free, dtype=np.int64)
    return rng.hypergeometric(n_free, population.num_sources, ones, size=population.replicas)


class Initializer(ABC):
    """Base class: one exchangeable initial-state law, installed in both
    engines (see the module docstring)."""

    name: str = "initializer"

    @abstractmethod
    def nonsource_ones(
        self, population: "Population", rng: np.random.Generator
    ) -> np.ndarray | None:
        """``(R,)`` number of non-source agents showing opinion 1, per replica
        of ``population`` (a batched or a count population), or ``None`` to
        keep the current opinions."""

    def counter_pmf(self, ell: int) -> np.ndarray | None:
        """Law of a carried ``prev_count`` on ``{0..ℓ}``, or ``None`` for the
        protocol's own adversarial-uniform state."""
        return None

    def apply_batch(
        self,
        batch: BatchedPopulation,
        protocol: Protocol,
        states: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        """Install the law into every replica at once, mutating ``batch`` and
        ``states`` (the protocol's batched state, leading replica axis) in
        place: the drawn ones sit at uniformly random non-source positions,
        internal state is adversarial, and a ``prev_count`` state is redrawn
        iid from :meth:`counter_pmf`."""
        ones = self.nonsource_ones(batch, rng)
        if ones is not None:
            free = batch.nonsource_mask
            n_free = _n_free(batch)
            placed = (np.arange(n_free) < ones[:, None]).view(np.uint8)
            if not ((ones == 0) | (ones == n_free)).all():
                rng.permuted(placed, axis=1, out=placed)
            opinions = np.zeros((batch.replicas, batch.n), dtype=np.uint8)
            opinions[:, free] = placed
            batch.adversarial_opinions(opinions, validate=False)
        states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))
        if "prev_count" in states:
            ell = getattr(protocol, "ell", None)
            if ell is None:
                raise ValueError(f"{self.name} needs a protocol exposing .ell")
            counter = self.counter_pmf(ell)
            if counter is not None:
                states["prev_count"] = rng.choice(
                    ell + 1, size=(batch.replicas, batch.n), p=counter
                )

    def apply_counts(
        self,
        population: "CountPopulation",
        protocol: Protocol,
        states: ProtocolState,
        rng: np.random.Generator,
    ) -> None:
        """Install the law into every replica's ``(S,)`` state-count vector
        and ``states`` (the protocol's carried count-model state, leading
        replica axis) in place: each opinion class splits multinomially over
        the protocol's state law given that opinion, and a carried counter
        law becomes :meth:`counter_pmf` — with no per-agent arrays."""
        ones = self.nonsource_ones(population, rng)
        if ones is None:
            ones = population.count_ones() - population.sources_ones
        ell = getattr(protocol, "ell", None)
        counter = None if ell is None else self.counter_pmf(ell)
        pmf = protocol.count_state_pmf(counter)
        population.set_counts(
            rng.multinomial(ones, pmf[1]) + rng.multinomial(population.n_free - ones, pmf[0])
        )
        states.update(protocol.randomize_count_state(population.replicas, counter))

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

    def nonsource_ones(self, population, rng):
        return _uniform_ones(population, 1 - population.correct_opinion)

    def spec(self) -> dict:
        return {"name": "all-wrong"}


class AllCorrect(Initializer):
    """Every agent starts on the correct opinion (stability check)."""

    name = "all-correct"

    def nonsource_ones(self, population, rng):
        return _uniform_ones(population, population.correct_opinion)

    def spec(self) -> dict:
        return {"name": "all-correct"}


class BernoulliRandom(Initializer):
    """Each non-source opinion independently 1 with probability ``p``."""

    def __init__(self, p: float = 0.5) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = p
        self.name = f"bernoulli(p={p})"

    def nonsource_ones(self, population, rng):
        return rng.binomial(_n_free(population), self.p, size=population.replicas)

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

    def nonsource_ones(self, population, rng):
        return fraction_ones(population, self.x, rng)

    def spec(self) -> dict:
        return {"name": "fraction", "x": self.x}


class RandomizeProtocolState(Initializer):
    """Leave opinions untouched; randomize only the internal protocol state."""

    name = "randomize-state"

    def nonsource_ones(self, population, rng):
        return None

    def spec(self) -> dict:
        return {"name": "randomize-state"}
