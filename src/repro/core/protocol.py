"""Protocol interface.

A protocol is the per-agent update rule executed synchronously each round. To
keep large-``n`` simulation fast, protocols are written in vectorized form:
one :meth:`Protocol.step` call computes the tentative next opinion of *every*
agent at once from the shared population snapshot and the protocol's internal
per-agent state arrays.

Self-stabilization contract
---------------------------
The adversary controls the full initial configuration: opinions *and* internal
state. Every protocol therefore implements :meth:`randomize_state`, which
draws a uniformly random valid internal state, and keeps all state in a plain
``dict[str, np.ndarray]`` so adversarial initializers can overwrite it
directly. Convergence results in this repository are always reported under
adversarial initialization unless stated otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from .population import PopulationState
from .sampling import BatchedSampler, Sampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchedPopulation

__all__ = ["Protocol", "ProtocolState"]

#: Internal per-agent protocol state: name -> array of shape (n,) or (k, n).
ProtocolState = dict[str, np.ndarray]


class Protocol(ABC):
    """Abstract synchronous-round protocol.

    Attributes
    ----------
    name:
        Short identifier used in tables and benchmark output.
    passive:
        ``True`` when the information revealed by an agent is exactly its
        opinion bit (the paper's passive-communication model). Non-passive
        baselines (decoupled messages) set this ``False``.
    """

    name: str = "protocol"
    passive: bool = True
    #: ``True`` when :meth:`step_batch` is a genuinely vectorized override
    #: that advances all replicas with O(1) numpy calls; protocols that rely
    #: on the generic per-replica fallback leave it ``False`` so dispatchers
    #: (``run_trials(engine="auto")``) know the batched path is a fast path.
    batch_vectorized: bool = False
    #: ``True`` when the protocol exposes the sufficient-statistic count model
    #: (:meth:`count_states` / :meth:`step_counts` / the pmf hooks) consumed by
    #: the counts engine (``core/counts.py``). Requires that an agent's full
    #: behaviour is a function of its discrete state and the population
    #: one-fraction alone — no identity-dependent draws.
    counts_supported: bool = False
    #: Smallest ``n`` at which ``engine="auto"`` runs a count-capable
    #: condition of this protocol on the counts engine instead of batched:
    #: the measured crossover (``results/BENCH_counts.json``, ``scan``) from
    #: which counts is at least as fast as batched at every larger scanned
    #: ``n``. A class constant, not a user option — explicit
    #: ``engine="batched"``/``"sequential"`` are the override.
    counts_min_n: int = 100

    @abstractmethod
    def init_state(self, n: int, rng: np.random.Generator) -> ProtocolState:
        """Return the protocol's designated initial internal state.

        This is the "clean start" state. Self-stabilization experiments do
        not use it directly; they call :meth:`randomize_state`.
        """

    def randomize_state(self, n: int, rng: np.random.Generator) -> ProtocolState:
        """Return a uniformly random *valid* internal state (adversarial).

        Default: the clean initial state. Protocols with internal variables
        must override so the adversary truly controls them.
        """
        return self.init_state(n, rng)

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """Clean initial state for ``replicas`` independent replicas.

        Arrays gain a leading replica axis (``(R, *per_replica_shape)``).
        The generic fallback stacks per-replica :meth:`init_state` draws;
        protocols on the batched fast path override with one vectorized draw.
        """
        first = self.init_state(n, rng)
        if not first:
            return {}
        rest = [self.init_state(n, rng) for _ in range(replicas - 1)]
        return {key: np.stack([first[key]] + [state[key] for state in rest]) for key in first}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """Adversarial random state for ``replicas`` independent replicas.

        Same layout contract as :meth:`init_state_batch`.
        """
        first = self.randomize_state(n, rng)
        if not first:
            return {}
        rest = [self.randomize_state(n, rng) for _ in range(replicas - 1)]
        return {key: np.stack([first[key]] + [state[key] for state in rest]) for key in first}

    @abstractmethod
    def step(
        self,
        population: PopulationState,
        state: ProtocolState,
        sampler: Sampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Execute one synchronous round for all agents.

        Reads the population snapshot (opinions of round ``t``), performs the
        protocol's sampling through ``sampler``, mutates ``state`` in place to
        its round-``t+1`` value, and returns the tentative opinion vector for
        round ``t+1``. The engine installs the returned opinions and re-pins
        sources, so protocols may uniformly update everyone.
        """

    def step_batch(
        self,
        batch: "BatchedPopulation",
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Execute one synchronous round for every replica of a batch.

        ``states`` holds this protocol's state arrays with a leading replica
        axis (shape ``(A, *per_replica_shape)``); the method mutates them to
        their round-``t+1`` values and returns the ``(A, n)`` tentative
        opinion matrix. The batched engine installs the returned opinions and
        re-pins sources in every row.

        The default implementation is a generic per-replica fallback that
        drives each row through the scalar :meth:`step` with the sampler's
        single-replica equivalent — correct for every protocol, but it keeps
        the per-replica Python cost. Vectorized overrides advance all
        replicas at once (numpy broadcasting makes the scalar body work
        nearly verbatim on ``(A, n)`` arrays) and set
        ``batch_vectorized = True``.
        """
        scalar = sampler.scalar()
        out = np.empty_like(batch.opinions)
        for r in range(batch.replicas):
            replica_state = {key: value[r] for key, value in states.items()}
            out[r] = self.step(batch.replica(r), replica_state, scalar, rng)
            # Scalar steps may rebind state entries rather than mutate them in
            # place (FET does); fold the results back into the batched arrays.
            for key in states:
                states[key][r] = replica_state[key]
        return out

    # ---------------------------------------------------------- count model
    #
    # The sufficient-statistic interface behind ``engine="counts"``. A count
    # state is one point of the protocol's finite per-agent state space
    # (opinion bit plus internal variables); an exchangeable replica is then
    # fully described by its ``(S,)`` state-count vector and is stepped in
    # O(S) via multinomial transitions, independent of ``n``. Protocols that
    # implement the four hooks below set ``counts_supported = True``.

    def count_states(self) -> int:
        """Number of discrete per-agent states ``S`` in the count model."""
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def count_display(self) -> np.ndarray:
        """``(S,)`` uint8 vector: the opinion bit displayed by each state."""
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def count_init_state_pmf(self) -> np.ndarray:
        """``(2, S)`` rows: clean-start state distribution given opinion o.

        Row ``o`` is the probability vector over count states for an agent
        whose opinion bit is ``o`` and whose internal state was drawn by
        :meth:`init_state`.
        """
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def count_random_state_pmf(self) -> np.ndarray:
        """``(2, S)`` rows: adversarial-uniform state distribution given o.

        Row ``o`` is the distribution over count states for an agent with
        opinion ``o`` whose internal state was drawn by
        :meth:`randomize_state`.
        """
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def step_counts(
        self, counts: np.ndarray, x_eff: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance ``(A, S)`` state-count matrices one synchronous round.

        ``counts[a, s]`` is the number of non-source agents of replica ``a``
        in count state ``s``; ``x_eff`` is the ``(A,)`` effective one-fraction
        each agent's samples are drawn against (noise already applied by the
        engine's sampler seam). Draws per-state observation-count
        distributions multinomially, maps them through the decision rule, and
        returns the re-aggregated ``(A, S)`` int64 matrix — no per-agent
        arrays anywhere.
        """
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    # ------------------------------------------------------------ accounting

    def samples_per_round(self) -> int:
        """Total number of PULL samples each agent draws per round."""
        return 0

    def memory_bits(self) -> float:
        """Bits of internal memory per agent beyond the opinion bit.

        Used by the memory benchmark (E-mem) to check the ``O(log ℓ)`` claim
        of Theorem 1. Protocols without internal state return 0.
        """
        return 0.0

    def describe(self) -> dict[str, Any]:
        """Structured description used by benchmark tables."""
        return {
            "name": self.name,
            "passive": self.passive,
            "samples_per_round": self.samples_per_round(),
            "memory_bits": self.memory_bits(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
