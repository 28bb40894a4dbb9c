"""Batched multi-replica simulation: R independent trials as one (R, n) system.

Every aggregate result in this repository is an average over many independent
trials of the *same* configuration: same ``n``, same source structure, same
protocol, different random streams. Under uniform-with-replacement ``PULL``
sampling the round update of a replica depends on the population only through
its one-fraction ``x_t``, so R replicas can advance in lock-step as one
matrix-shaped system:

* opinions live in a single ``(R, n)`` ``uint8`` matrix
  (:class:`BatchedPopulation`), sharing the source structure across rows;
* per-agent observations for the whole batch come from one
  :class:`~repro.core.sampling.BatchedSampler` call keyed on the ``(R,)``
  vector of per-replica one-fractions;
* per-agent protocol state is stacked the same way (leading replica axis),
  and ``Protocol.step_batch`` steps every replica with a handful of numpy
  calls.

This is the only per-agent representation: protocols, samplers and
initializers each have one implementation, written against the batch, and a
single population is a one-row batch
(:func:`~repro.core.population.make_population`), run by the ``R = 1``
engine (:class:`SequentialEngine`, which also serves
:class:`~repro.core.engine.SynchronousEngine`).

:class:`BatchedEngine` drives the batch through the shared lock-step driver
(:mod:`repro.core.lockstep`): per-replica stability-window tracking,
convergence-round accounting (``t_con`` = first round of the final
all-correct streak), and *retirement* — a replica whose streak
reaches the stability window is removed from the active working set, so
finished trials stop costing work and their state provably never changes
again. The working set is kept compact (converged rows are physically dropped,
not masked), so late rounds with few stragglers cost ``O(active × n)``, not
``O(R × n)``.

The batched path is exact in distribution, not bitwise identical to
``engine="sequential"`` (one one-row run per trial stream): replicas
consume a shared dynamics stream instead of per-trial streams. Trajectory- and
flip-recording consumers attach a :class:`~repro.trace.recorder.TraceRecorder`
(``run(recorder=...)``): the engine reports the full ``(R,)`` one-fraction
(and optionally flip-count) vector every round, with retired rows frozen at
their final value, so per-round logs survive retirement.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .lockstep import BatchRunResult, LockstepEngine
from .protocol import Protocol, ProtocolState
from .rng import as_rng
from .sampling import BatchedBinomialSampler, BatchedSampler

__all__ = [
    "BatchedPopulation",
    "BatchRunResult",
    "BatchedEngine",
    "SequentialEngine",
]


class BatchedPopulation:
    """R replicas of one population as a single ``(R, n)`` opinion matrix.

    All replicas share the source structure (``source_mask``,
    ``source_preferences``, ``correct_opinion``, ``pin_each_round``); each row
    is an independent copy of the opinion vector. A single population is the
    one-row case. The per-replica one-counts are cached; callers that write
    into ``opinions`` directly must call :meth:`invalidate_cache`.
    """

    def __init__(
        self,
        opinions: np.ndarray,
        source_mask: np.ndarray,
        source_preferences: np.ndarray,
        correct_opinion: int,
        pin_each_round: bool = True,
    ) -> None:
        self.opinions = np.asarray(opinions, dtype=np.uint8)
        self.source_mask = np.asarray(source_mask, dtype=bool)
        self.source_preferences = np.asarray(source_preferences, dtype=np.uint8)
        self.correct_opinion = int(correct_opinion)
        self.pin_each_round = bool(pin_each_round)
        if self.opinions.ndim != 2:
            raise ValueError(f"opinions must have shape (R, n), got {self.opinions.shape}")
        replicas, n = self.opinions.shape
        if replicas < 1:
            raise ValueError("batch needs at least one replica")
        if n < 2:
            raise ValueError(f"population needs at least 2 agents, got {n}")
        if self.source_mask.shape != (n,) or self.source_preferences.shape != (n,):
            raise ValueError("source_mask and source_preferences must share shape (n,)")
        if self.correct_opinion not in (0, 1):
            raise ValueError(f"correct_opinion must be 0 or 1, got {self.correct_opinion}")
        if not self.source_mask.any():
            raise ValueError("population must contain at least one source agent")
        if not np.isin(self.opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        self._ones_count: np.ndarray | None = None

    # ------------------------------------------------------------ constructors

    @classmethod
    def _trusted(
        cls,
        opinions: np.ndarray,
        source_mask: np.ndarray,
        source_preferences: np.ndarray,
        correct_opinion: int,
        pin_each_round: bool,
    ) -> "BatchedPopulation":
        """Wrap arrays known to satisfy the invariants, skipping the O(R·n)
        validation — for internal hot paths (row selection, stacking rows of
        already-validated populations)."""
        batch = object.__new__(cls)
        batch.opinions = opinions
        batch.source_mask = source_mask
        batch.source_preferences = source_preferences
        batch.correct_opinion = correct_opinion
        batch.pin_each_round = pin_each_round
        batch._ones_count = None
        return batch

    # ------------------------------------------------------------------ views

    @property
    def replicas(self) -> int:
        return int(self.opinions.shape[0])

    @property
    def n(self) -> int:
        return int(self.opinions.shape[1])

    @property
    def num_sources(self) -> int:
        return int(self.source_mask.sum())

    @property
    def nonsource_mask(self) -> np.ndarray:
        return ~self.source_mask

    def count_ones(self) -> np.ndarray:
        """Per-replica number of 1-opinions, shape ``(R,)``."""
        if self._ones_count is None:
            self._ones_count = self.opinions.sum(axis=1, dtype=np.int64)
        return self._ones_count

    def fraction_ones(self) -> np.ndarray:
        """Per-replica ``x_t``, shape ``(R,)``."""
        return self.count_ones() / self.n

    def invalidate_cache(self) -> None:
        """Drop the cached one-counts after a direct write into ``opinions``."""
        self._ones_count = None

    # -------------------------------------------------------------- mutation

    def set_opinions(self, new_opinions: np.ndarray) -> None:
        """Replace all rows, then re-pin sources in every replica.

        Protocols compute tentative opinions for everyone; the population
        enforces the model invariant that a source always outputs its
        preference — the paper's source "adopts the correct opinion and
        remains with it throughout the execution".
        """
        new_opinions = np.asarray(new_opinions, dtype=np.uint8)
        if new_opinions.shape != self.opinions.shape:
            raise ValueError("opinion matrix shape mismatch")
        self.opinions = new_opinions
        self.invalidate_cache()
        if self.pin_each_round:
            self.pin_sources()

    def pin_sources(self) -> None:
        """Force every source agent's opinion to its preference, in every row."""
        self.opinions[:, self.source_mask] = self.source_preferences[self.source_mask][None, :]
        self.invalidate_cache()

    def adversarial_opinions(
        self, opinions: np.ndarray, *, pin_sources: bool = True, validate: bool = True
    ) -> None:
        """Install an adversarial ``(R, n)`` opinion configuration.

        By default sources are re-pinned (the adversary "may initially set a
        different opinion to the source, but then the value of the correct
        bit would change" — modelled by keeping the correct bit fixed and
        pinning). ``pin_sources=False`` reproduces the impossibility
        construction of Section 1.2, in which the adversary also controls
        the opinions that conflicted sources publicly display.
        ``validate=False`` skips the O(R·n) 0/1 check for initializers whose
        matrices are 0/1 by construction.
        """
        opinions = np.asarray(opinions, dtype=np.uint8)
        if opinions.shape != self.opinions.shape:
            raise ValueError("opinion matrix shape mismatch")
        if validate and not np.isin(opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        self.opinions = opinions.copy()
        self.invalidate_cache()
        if pin_sources:
            self.pin_sources()

    # ------------------------------------------------------------ predicates

    def at_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the same opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return (ones == 0) | (ones == self.n)

    def at_correct_consensus(self) -> np.ndarray:
        """Per-replica: every agent outputs the correct opinion. Shape ``(R,)``."""
        ones = self.count_ones()
        return ones == self.n if self.correct_opinion == 1 else ones == 0

    def nonsource_correct_fraction(self) -> np.ndarray:
        """Per-replica fraction of non-source agents on the correct opinion."""
        nonsource = self.opinions[:, self.nonsource_mask]
        if nonsource.shape[1] == 0:
            return np.ones(self.replicas)
        return (nonsource == self.correct_opinion).mean(axis=1)

    # ----------------------------------------------------------------- misc

    def select(self, rows: np.ndarray) -> "BatchedPopulation":
        """New batch holding only ``rows`` (boolean mask or index array).

        Opinion rows are copied; the shared source structure is not. Used by
        the engine to compact the working set when replicas retire, and to
        tile a one-row population into replicas (repeated row ``0``).
        """
        sub = BatchedPopulation._trusted(
            opinions=self.opinions[rows],
            source_mask=self.source_mask,
            source_preferences=self.source_preferences,
            correct_opinion=self.correct_opinion,
            pin_each_round=self.pin_each_round,
        )
        if self._ones_count is not None:
            sub._ones_count = self._ones_count[rows]
        return sub

    def copy(self) -> "BatchedPopulation":
        return BatchedPopulation._trusted(
            opinions=self.opinions.copy(),
            source_mask=self.source_mask.copy(),
            source_preferences=self.source_preferences.copy(),
            correct_opinion=self.correct_opinion,
            pin_each_round=self.pin_each_round,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedPopulation(replicas={self.replicas}, n={self.n})"


class BatchedEngine(LockstepEngine):
    """Lock-step engine for R ``(R, n)`` replicas with per-replica retirement.

    Runs on the shared :func:`~repro.core.lockstep.run_lockstep` driver
    (:meth:`~repro.core.lockstep.LockstepEngine.run`).

    Parameters
    ----------
    protocol:
        The update rule; stepped through :meth:`Protocol.step_batch`. One
        protocol instance serves the whole batch, so instance attributes must
        be round configuration only — all per-agent state belongs in the
        state dict, which is the existing contract of :class:`Protocol`.
    batch:
        The replicas to simulate. After :meth:`run`, ``batch.opinions`` holds
        every replica's *final* configuration (frozen at retirement).
    sampler:
        Batched PULL sampler; defaults to the tiered exact
        :class:`BatchedBinomialSampler`.
    rng:
        Generator or integer seed for the shared dynamics stream.
    states:
        Batched internal protocol state: arrays with a leading replica axis.
        Defaults to ``protocol.init_state_batch``. The engine owns the dict
        (the lock-step driver compacts it on retirement).
    """

    engine_name = "batched"

    def __init__(
        self,
        protocol: Protocol,
        batch: BatchedPopulation,
        *,
        sampler: BatchedSampler | None = None,
        rng: int | np.random.Generator | None = None,
        states: ProtocolState | None = None,
    ) -> None:
        self.protocol = protocol
        self.batch = batch
        self.sampler = sampler if sampler is not None else BatchedBinomialSampler()
        self.rng = as_rng(rng)
        if states is None:
            states = protocol.init_state_batch(batch.replicas, batch.n, self.rng)
        self.states = states
        self.round_index = 0
        self._consumed = False
        # Pin once up-front so a sloppy caller cannot start with a deviating
        # source opinion in any replica.
        if batch.pin_each_round:
            batch.pin_sources()

    # ----------------------------------------------------- lock-step backend

    @property
    def _rows(self) -> BatchedPopulation:
        return self.batch

    def _recorder_facts(self) -> dict:
        prefs = self.batch.source_preferences[self.batch.source_mask]
        return {
            "sources_correct": int((prefs == self.batch.correct_opinion).sum()),
            "pin_each_round": self.batch.pin_each_round,
        }

    def _step(
        self,
        work: BatchedPopulation,
        flips: bool,
        horizon: Callable[[], np.ndarray] | None,
    ) -> tuple[np.ndarray | None, int]:
        old = work.opinions.copy() if flips else None
        work.set_opinions(self.protocol.step_batch(work, self.states, self.sampler, self.rng))
        return (np.count_nonzero(work.opinions != old, axis=1) if flips else None), 1

    def _retire(self, retired: np.ndarray, work: BatchedPopulation, done: np.ndarray) -> None:
        self.batch.opinions[retired] = work.opinions[done]


class SequentialEngine(BatchedEngine):
    """One-row :class:`BatchedEngine`: the ``R = 1`` case that serves
    ``engine="sequential"`` and :class:`~repro.core.engine.SynchronousEngine`.
    Its spans and metrics carry ``engine="sequential"``."""

    engine_name = "sequential"
