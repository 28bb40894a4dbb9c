"""Protocol interface.

A protocol is the per-agent update rule executed synchronously each round. To
keep large-``n`` simulation fast, protocols are written in vectorized form:
one :meth:`Protocol.step_batch` call computes the tentative next opinion of
*every* agent of *every* replica at once from the ``(R, n)`` batch snapshot
and the protocol's stacked per-agent state arrays. That is the protocol's
one per-agent implementation: a single population is the ``R = 1`` case, and
count-capable protocols add the sufficient-statistic model behind
``engine="counts"`` beside it.

Self-stabilization contract
---------------------------
The adversary controls the full initial configuration: opinions *and* internal
state. Every protocol with internal variables therefore implements
:meth:`randomize_state_batch`, which draws a uniformly random valid internal
state per replica, and keeps all state in a plain ``dict[str, np.ndarray]``
so adversarial initializers can overwrite it directly. Convergence results in
this repository are always reported under adversarial initialization unless
stated otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

import numpy as np

from .sampling import BatchedSampler

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
    #: ``True`` when the protocol exposes the sufficient-statistic count model
    #: (:meth:`count_display` / :meth:`count_state_pmf` / :meth:`step_counts`,
    #: and a carried state through :meth:`init_count_state`)
    #: consumed by the counts engine (``core/counts.py``). Requires that an
    #: agent's full behaviour is a function of its discrete state and the
    #: population one-fraction alone — no identity-dependent draws.
    counts_supported: bool = False
    #: Smallest ``n`` at which ``engine="auto"`` runs a count-capable
    #: condition of this protocol on the counts engine instead of batched:
    #: the measured crossover (``results/BENCH_counts.json``, ``scan``) from
    #: which counts is at least as fast as batched at every larger scanned
    #: ``n``. A class constant, not a user option — explicit
    #: ``engine="batched"``/``"sequential"`` are the override.
    counts_min_n: int = 100

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """Clean initial state for ``replicas`` independent replicas.

        Arrays carry a leading replica axis (``(R, *per_replica_shape)``).
        This is the "clean start" state; self-stabilization experiments do
        not use it directly, they call :meth:`randomize_state_batch`.
        Default: no internal state (stateless protocols).
        """
        return {}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        """A uniformly random *valid* internal state per replica (adversarial).

        Same layout contract as :meth:`init_state_batch`. Default: the clean
        initial state. Protocols with internal variables must override so
        the adversary truly controls them.
        """
        return self.init_state_batch(replicas, n, rng)

    def init_state(self, n: int, rng: np.random.Generator) -> ProtocolState:
        """Clean initial state of a single population: the one-row case of
        :meth:`init_state_batch`, for
        :class:`~repro.core.engine.SynchronousEngine` callers."""
        return {key: value[0] for key, value in self.init_state_batch(1, n, rng).items()}

    @abstractmethod
    def step_batch(
        self,
        batch: "BatchedPopulation",
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Execute one synchronous round for every replica of a batch.

        Reads the batch snapshot (opinions of round ``t``), performs the
        protocol's sampling through ``sampler``, mutates ``states`` — this
        protocol's state arrays with a leading replica axis (shape
        ``(A, *per_replica_shape)``) — to their round-``t+1`` values, and
        returns the ``(A, n)`` tentative opinion matrix. The engine installs
        the returned opinions and re-pins sources in every row, so protocols
        may uniformly update everyone. A single population is the ``A = 1``
        case; there is no separate single-population step.
        """

    # ---------------------------------------------------------- count model
    #
    # The sufficient-statistic interface behind ``engine="counts"``. A count
    # state is one point of a finite per-agent state space (the opinion bit,
    # plus whatever internal variables the counts must resolve); an
    # exchangeable replica is then described by its ``(S,)`` state-count
    # vector plus an optional carried per-replica state — FET's counter law,
    # say — kept in a :data:`ProtocolState` dict with a leading replica axis,
    # the way the batched engine carries per-agent state. A replica costs
    # O(S + ℓ) memory and compute, independent of ``n``. Protocols that
    # implement the hooks below set ``counts_supported = True``; the number
    # of states is ``S = count_display().size``, and the clean start of an
    # opinion is the first state that displays it.

    def count_display(self) -> np.ndarray:
        """``(S,)`` uint8 vector: the opinion bit displayed by each state."""
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def count_state_pmf(self, counter: np.ndarray | None = None) -> np.ndarray:
        """``(2, S)`` rows: the state law of an agent given its opinion o.

        Row ``o`` is the distribution over count states of an agent showing
        ``o`` whose internal state was drawn by :meth:`randomize_state_batch`
        — with its carried ``prev_count`` drawn from ``counter`` (a pmf on
        ``{0..ℓ}``) instead, when given and resolved by the count states.
        Protocols whose count states do not hold a ``prev_count`` ignore
        ``counter``, exactly as initializers leave their per-agent state
        adversarial.
        """
        raise NotImplementedError(
            f"{self.name} does not define a count model (counts_supported=False)"
        )

    def init_count_state(self, replicas: int) -> ProtocolState:
        """Carried count-model state of the clean start, one entry per
        replica (the counts analogue of :meth:`init_state_batch`). Default:
        none."""
        return {}

    def randomize_count_state(
        self, replicas: int, counter: np.ndarray | None = None
    ) -> ProtocolState:
        """Carried count-model state of an adversarial start (the counts
        analogue of :meth:`randomize_state_batch`), with a carried counter
        law ``counter`` when given. Default: the clean state."""
        return self.init_count_state(replicas)

    def step_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Advance ``(A, S)`` state-count matrices one synchronous round.

        ``counts[a, s]`` is the number of non-source agents of replica ``a``
        in count state ``s``; ``states`` is the carried count-model state
        (leading axis ``A``), updated in place to its next-round value;
        ``x_eff`` is the ``(A,)`` effective one-fraction each agent's samples
        are drawn against (noise already applied by the engine's sampler
        seam). Every agent's count is an independent ``Binomial(ℓ, x̃)``
        draw, so the kernel draws only the splits its decision rule needs —
        binomial or multinomial splits of the state counts, over closed-form
        tail probabilities where a threshold is all that matters — and
        returns the new ``(A, S)`` int64 matrix, with every row keeping its
        sum. No per-agent arrays anywhere.
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
