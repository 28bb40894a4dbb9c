"""Sufficient-statistic simulation: R replicas as ``(R, num_states)`` counts.

Every batch-vectorized protocol in this repository observes the population
only through its one-fraction, and per-agent state lives in a small finite
set — so an exchangeable replica is fully described by its *state-count
vector* (plus, where the protocol carries one, a per-replica law of what the
counts leave out), not an ``(R, n)`` opinion matrix. This module is the
third engine built on that observation:

* :class:`CountPopulation` holds the ``(R, S)`` matrix of non-source state
  counts (``S = protocol.count_display().size``), the shared source
  structure, and the per-state displayed opinions — enough to answer every
  question the engine contract asks (one-fractions, consensus predicates,
  non-source correct fraction) in O(S) per replica;
* :class:`CountEngine` drives it on the lock-step driver it shares with
  :class:`~repro.core.batch.BatchedEngine` (:mod:`repro.core.lockstep`),
  so the run contract is the same code: per-replica stability
  windows, ``t_con`` accounting, retirement with a compact working set,
  ``linger_rounds`` settle windows, and the ``recorder=`` hook emitting
  per-round one-fractions — so traces and measures work unchanged. Beside
  the counts it carries the protocol's count-model state (FET's and
  hysteresis-FET's ``(R, ℓ+1)`` counter law; ``{}`` for every other
  protocol) in the ``states`` dict the driver compacts on retirement, as
  the batched engine carries per-agent state.

Per-round memory and compute are O(S + ℓ) per replica, independent of
``n``: each protocol's :meth:`~repro.core.protocol.Protocol.step_counts`
draws binomial and multinomial splits of the state counts against the
effective fraction — only the splits its decision rule needs; two binomials
per replica for the two-block trend rules' pair chain — with no per-agent
arrays anywhere. That turns n = 10^6–10^8 populations into routine sweep
cells.

Stalled replicas skip ahead. For the two-class models (voter, k-majority,
sample-majority, FET, hysteresis-FET: ``protocol.count_jumps``) the engine
tracks which working rows are *still* — their last round left the counts
unchanged, so x̃ and the adoption law ``(q₀, q₁)`` are unchanged too (for
the pair chain the carried law already sits at its fixed point
``Binomial(ℓ, x̃)``). Such a row keeps every agent put each round with the
same probability ``p_stay = (1−q₀)^{m₀}·q₁^{m₁}``, so its holding time is
``Geometric(1 − p_stay)`` and the round that ends it draws the step law
conditioned on a move: with weight ``1 − (1−q₀)^{m₀}`` a zero-truncated
``Binomial(m₀, q₀)`` of new ones beside ``Binomial(m₁, q₁)``, otherwise no
new one and a zero-truncated ``Binomial(m₁, 1−q₁)`` of ones lost — a
zero-truncated ``Binomial(m, p)`` being ``1 + Binomial(m − G, p)`` with G
the first success's position, drawn by inverse CDF. A still row with
``p_stay ≥ ½`` takes that jump through
:meth:`~repro.protocols.counting.TwoClassCountModel.jump_counts`, no
further than the lock-step horizon allows; the per-replica clocks of
:func:`~repro.core.lockstep.run_lockstep` keep every row's accounting
exact. With a recorder attached nothing jumps, so traces see every round.

What the counts path cannot express (and rejects with clear errors):

* per-agent observation models — the literal index sampler materializes
  sampled identities, which do not exist here; the engine consumes the
  observation model through the
  :meth:`~repro.core.sampling.BatchedBinomialSampler.effective_fractions`
  seam alone (noise included);
* crafted per-agent layouts — populations whose sources are not pinned to
  the correct opinion (the majority variant, and with it frozen unanimity,
  the one initializer that is not exchangeable over the non-sources); every
  other initializer, the paper's crafted Yellow-centre, two-round and
  poisoned-counter starts included, installs its one law here through
  :meth:`~repro.initializers.standard.Initializer.apply_counts`;
* per-replica flip counts — which agents flipped is not a function of the
  sufficient statistic, so recorders with ``record_flips=True`` are
  rejected.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..telemetry import catalog
from .lockstep import LockstepEngine
from .protocol import Protocol, ProtocolState
from .rng import as_rng
from .sampling import BatchedBinomialSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..telemetry.registry import MetricsRegistry

__all__ = [
    "CountPopulation",
    "CountEngine",
    "make_count_population",
]


class CountPopulation:
    """R replicas of one population as a single ``(R, S)`` state-count matrix.

    ``counts[r, s]`` is the number of *non-source* agents of replica ``r``
    in count state ``s``; ``display[s]`` is the opinion bit an agent in state
    ``s`` shows. Sources are not tracked per state: in the canonical layout
    (every source prefers ``correct_opinion`` and is re-pinned each round)
    their displayed opinion is always ``correct_opinion`` and their internal
    state never influences the dynamics, so they contribute a constant to
    every one-count.

    All replicas share the source structure; each row is an independent
    count vector. The per-replica one-counts are cached exactly like
    :class:`~repro.core.batch.BatchedPopulation` caches its counts; callers
    that write into ``counts`` directly must call :meth:`invalidate_cache`.
    """

    def __init__(
        self,
        counts: np.ndarray,
        display: np.ndarray,
        *,
        n: int,
        num_sources: int = 1,
        correct_opinion: int = 1,
    ) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)
        self.display = np.asarray(display, dtype=np.uint8)
        self._n = int(n)
        self._num_sources = int(num_sources)
        self.correct_opinion = int(correct_opinion)
        if self.counts.ndim != 2:
            raise ValueError(f"counts must have shape (R, S), got {self.counts.shape}")
        replicas, states = self.counts.shape
        if replicas < 1:
            raise ValueError("count population needs at least one replica")
        if states < 1:
            raise ValueError("count population needs at least one state")
        if self.display.shape != (states,):
            raise ValueError(
                f"display must have shape ({states},), got {self.display.shape}"
            )
        if not np.isin(self.display, (0, 1)).all():
            raise ValueError("display must be 0/1 valued")
        if self._n < 2:
            raise ValueError(f"population needs at least 2 agents, got {self._n}")
        if self.correct_opinion not in (0, 1):
            raise ValueError(f"correct_opinion must be 0 or 1, got {self.correct_opinion}")
        if not 1 <= self._num_sources < self._n:
            raise ValueError(
                f"num_sources must be in [1, n), got {self._num_sources} with n={self._n}"
            )
        if (self.counts < 0).any():
            raise ValueError("state counts must be non-negative")
        if not (self.counts.sum(axis=1) == self.n_free).all():
            raise ValueError(
                f"every replica's state counts must sum to n - num_sources = {self.n_free}"
            )
        self._ones_count: np.ndarray | None = None

    @classmethod
    def _trusted(
        cls,
        counts: np.ndarray,
        display: np.ndarray,
        n: int,
        num_sources: int,
        correct_opinion: int,
    ) -> "CountPopulation":
        """Wrap arrays known to satisfy the invariants, skipping validation —
        for internal hot paths (row selection, engine write-back)."""
        pop = object.__new__(cls)
        pop.counts = counts
        pop.display = display
        pop._n = n
        pop._num_sources = num_sources
        pop.correct_opinion = correct_opinion
        pop._ones_count = None
        return pop

    # ------------------------------------------------------------------ views

    @property
    def replicas(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_states(self) -> int:
        return int(self.counts.shape[1])

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_sources(self) -> int:
        return self._num_sources

    @property
    def n_free(self) -> int:
        """Non-source agents per replica — what each count row sums to."""
        return self._n - self._num_sources

    @property
    def sources_ones(self) -> int:
        """1-opinions contributed by the (pinned, agreeing) sources."""
        return self._num_sources if self.correct_opinion == 1 else 0

    def count_ones(self) -> np.ndarray:
        """Per-replica number of 1-opinions (sources included), shape ``(R,)``."""
        if self._ones_count is None:
            # display is 0/1-valued: it weighs each state by its one
            ones_mass = self.counts @ self.display
            self._ones_count = ones_mass + self.sources_ones
        return self._ones_count

    def fraction_ones(self) -> np.ndarray:
        """Per-replica ``x_t``, shape ``(R,)``."""
        return self.count_ones() / self._n

    def invalidate_cache(self) -> None:
        """Drop the cached one-counts after a direct write into ``counts``."""
        self._ones_count = None

    # -------------------------------------------------------------- mutation

    def set_counts(self, new_counts: np.ndarray) -> None:
        """Replace all rows with a stepped ``(R, S)`` count matrix."""
        new_counts = np.asarray(new_counts, dtype=np.int64)
        if new_counts.shape != self.counts.shape:
            raise ValueError("count matrix shape mismatch")
        self.counts = new_counts
        self.invalidate_cache()

    # ------------------------------------------------------------ predicates

    def at_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the same opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return (ones == 0) | (ones == self._n)

    def at_correct_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the correct opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return ones == self._n if self.correct_opinion == 1 else ones == 0

    def nonsource_correct_fraction(self) -> np.ndarray:
        """Per-replica fraction of non-source agents on the correct opinion."""
        correct_mass = self.counts @ (self.display == self.correct_opinion).astype(np.int64)
        return correct_mass / self.n_free

    # ----------------------------------------------------------------- misc

    def select(self, rows: np.ndarray) -> "CountPopulation":
        """New population holding only ``rows`` (boolean mask or index array).

        Count rows are copied; the shared display vector is not. Used by the
        engine to compact the working set when replicas retire.
        """
        sub = CountPopulation._trusted(
            self.counts[rows],
            self.display,
            self._n,
            self._num_sources,
            self.correct_opinion,
        )
        if self._ones_count is not None:
            sub._ones_count = self._ones_count[rows]
        return sub

    def copy(self) -> "CountPopulation":
        return CountPopulation._trusted(
            self.counts.copy(),
            self.display.copy(),
            self._n,
            self._num_sources,
            self.correct_opinion,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CountPopulation(replicas={self.replicas}, n={self._n}, "
            f"num_states={self.num_states})"
        )


def make_count_population(
    protocol: Protocol,
    replicas: int,
    n: int,
    *,
    num_sources: int = 1,
    correct_opinion: int = 1,
) -> CountPopulation:
    """Clean-start count template — the counts analogue of
    :func:`~repro.core.population.make_population`.

    Every non-source agent starts in the first state that displays the
    *wrong* opinion — the protocol's clean start for that opinion (callers
    normally overwrite with an initializer's ``apply_counts`` before
    running).
    """
    if not getattr(protocol, "counts_supported", False):
        raise ValueError(
            f"protocol {protocol.name!r} does not support the counts engine "
            "(counts_supported=False)"
        )
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if correct_opinion not in (0, 1):
        raise ValueError(f"correct_opinion must be 0 or 1, got {correct_opinion}")
    if not 1 <= num_sources < n:
        raise ValueError(f"num_sources must be in [1, n), got {num_sources}")
    display = protocol.count_display()
    counts = np.zeros((replicas, display.size), dtype=np.int64)
    counts[:, int(np.argmax(display == 1 - correct_opinion))] = n - num_sources
    return CountPopulation(
        counts,
        display,
        n=n,
        num_sources=num_sources,
        correct_opinion=correct_opinion,
    )


class CountEngine(LockstepEngine):
    """Lock-step engine for R count replicas with per-replica retirement.

    The counts analogue of :class:`~repro.core.batch.BatchedEngine`, on the
    same :func:`~repro.core.lockstep.run_lockstep` driver — so the ``run``
    contract (stability windows, ``t_con`` accounting, retirement, linger,
    ``recorder=``) is literally shared and every consumer above the harness
    — traces, the θ and trace sweep measures, telemetry — works unchanged.
    ``stop_condition`` sees a :class:`CountPopulation`; recorders asking for
    flip counts are rejected, because which agents flipped is not a function
    of the sufficient statistic.

    Parameters
    ----------
    protocol:
        Must declare ``counts_supported = True`` and implement the count
        model (:meth:`~repro.core.protocol.Protocol.step_counts` and
        friends).
    population:
        The :class:`CountPopulation` to simulate. After :meth:`run`,
        ``population.counts`` holds every replica's final state counts
        (frozen at retirement).
    sampler:
        Observation model, consumed **only** through its
        ``effective_fractions`` seam (any
        :class:`~repro.core.sampling.BatchedBinomialSampler`-family sampler,
        noisy variants included). Defaults to the noiseless model.
        Per-agent samplers (no such seam) are rejected.
    rng:
        Generator or integer seed for the shared dynamics stream.
    states:
        The protocol's carried count-model state, leading replica axis.
        Defaults to ``protocol.init_count_state`` (the clean start). The
        engine owns the dict (the lock-step driver compacts it on
        retirement).
    """

    engine_name = "counts"

    def __init__(
        self,
        protocol: Protocol,
        population: CountPopulation,
        *,
        sampler: BatchedBinomialSampler | None = None,
        rng: int | np.random.Generator | None = None,
        states: ProtocolState | None = None,
    ) -> None:
        if not getattr(protocol, "counts_supported", False):
            raise ValueError(
                f"protocol {protocol.name!r} does not support the counts engine "
                "(counts_supported=False); use the batched or sequential engine"
            )
        if sampler is None:
            sampler = BatchedBinomialSampler()
        if not hasattr(sampler, "effective_fractions"):
            raise ValueError(
                f"sampler {type(sampler).__name__} has no effective_fractions seam; "
                "the counts engine draws its own multinomial transitions and only "
                "supports fraction-keyed observation models "
                "(the BatchedBinomialSampler family)"
            )
        num_states = protocol.count_display().size
        if population.num_states != num_states:
            raise ValueError(
                f"population has {population.num_states} states but protocol "
                f"{protocol.name!r} defines {num_states}"
            )
        if not np.array_equal(population.display, protocol.count_display()):
            raise ValueError(
                f"population display vector does not match protocol {protocol.name!r}"
            )
        self.protocol = protocol
        self.population = population
        self.sampler = sampler
        self.rng = as_rng(rng)
        if states is None:
            states = protocol.init_count_state(population.replicas)
        if any(len(value) != population.replicas for value in states.values()):
            raise ValueError("every carried count-model state needs one row per replica")
        self.states = states
        self.round_index = 0
        self._consumed = False
        self._draw_seconds = 0.0
        # Two-class models: which working rows' last round left their
        # counts unchanged (none before the first round), and the rounds
        # their jumps covered beyond one per step.
        self._still = np.zeros(population.replicas, dtype=bool) if protocol.count_jumps else None
        self._skipped = 0

    # ----------------------------------------------------- lock-step backend

    @property
    def _rows(self) -> CountPopulation:
        return self.population

    def _recorder_facts(self) -> dict:
        return {"sources_correct": self.population.num_sources, "pin_each_round": True}

    def _check_recorder(self, flips: bool) -> None:
        if flips:
            raise ValueError(
                "the counts engine cannot record flips: per-agent flip counts "
                "are not a function of the state-count sufficient statistic; "
                "use engine='batched' for flip recording"
            )

    def _step(
        self,
        work: CountPopulation,
        flips: bool,
        horizon: Callable[[], np.ndarray] | None,
    ) -> tuple[None, int | np.ndarray]:
        x_eff = np.asarray(self.sampler.effective_fractions(work), dtype=float)
        draw_start = time.perf_counter()
        counts, still, delta = work.counts, self._still, 1
        # No horizon (a recorder is attached) means no jump for the whole run.
        jumps = horizon is not None and still is not None
        if jumps and still.any():
            new_counts, delta = self.protocol.jump_counts(
                counts, self.states, x_eff, still, horizon, self.rng
            )
        else:
            new_counts = self.protocol.step_counts(counts, self.states, x_eff, self.rng)
        self._draw_seconds += time.perf_counter() - draw_start
        if jumps:
            self._still = new_counts[:, 1] == counts[:, 1]
        if isinstance(delta, np.ndarray):
            self._skipped += int(delta.sum()) - delta.size
        work.set_counts(new_counts)
        return None, delta

    def _retire(self, retired: np.ndarray, work: CountPopulation, done: np.ndarray) -> None:
        self.population.counts[retired] = work.counts[done]
        if self._still is not None:
            self._still = self._still[~done]

    def _observe(self, metrics: "MetricsRegistry") -> None:
        catalog.COUNTS_DRAW_SECONDS.on(metrics).observe(self._draw_seconds)
        catalog.ENGINE_ROUNDS_SKIPPED.on(metrics, engine=self.engine_name).inc(self._skipped)
