"""Population state for the self-stabilizing bit-dissemination problem.

The model (paper, Section 1.2): a fully-connected network of ``n`` agents,
each holding a public binary opinion. One designated *source* agent knows the
correct opinion, adopts it, and never deviates. Non-source agents must
converge on the correct opinion from an arbitrary initial configuration.

:class:`PopulationState` stores the opinion vector and the source structure.
It also supports the generalized *majority bit-dissemination* setting of
Section 1.2 (``k ≥ 1`` sources, each with its own preference bit), which is
used by the impossibility experiment (E-imposs in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PopulationState", "make_population", "make_majority_population"]


@dataclass
class PopulationState:
    """Opinions plus source structure of a population.

    Attributes
    ----------
    opinions:
        ``uint8`` array of shape ``(n,)`` with values in ``{0, 1}``. This is
        the *public output* of every agent — under passive communication it is
        the only observable information.
    source_mask:
        Boolean array of shape ``(n,)``; ``True`` marks source agents.
    source_preferences:
        ``uint8`` array of shape ``(n,)``; meaningful only where
        ``source_mask`` is ``True``. In the single-source problem every source
        preference equals ``correct_opinion``.
    correct_opinion:
        The bit the population must converge on. In the majority variant this
        is the preference shared by the (strict) majority of sources.
    """

    opinions: np.ndarray
    source_mask: np.ndarray
    source_preferences: np.ndarray
    correct_opinion: int
    pin_each_round: bool = True

    def __post_init__(self) -> None:
        self.opinions = np.asarray(self.opinions, dtype=np.uint8)
        self.source_mask = np.asarray(self.source_mask, dtype=bool)
        self.source_preferences = np.asarray(self.source_preferences, dtype=np.uint8)
        n = self.opinions.shape[0]
        if self.source_mask.shape != (n,) or self.source_preferences.shape != (n,):
            raise ValueError("opinions, source_mask and source_preferences must share shape (n,)")
        if n < 2:
            raise ValueError(f"population needs at least 2 agents, got {n}")
        if self.correct_opinion not in (0, 1):
            raise ValueError(f"correct_opinion must be 0 or 1, got {self.correct_opinion}")
        if not self.source_mask.any():
            raise ValueError("population must contain at least one source agent")
        if not np.isin(self.opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        # One-count cache: ``fraction_ones`` is consulted several times per
        # round (engine bookkeeping before/after the step, plus the binomial
        # sampler keying on x_t), each a full reduction over ``opinions``.
        # Every mutating method invalidates it; callers that write into
        # ``opinions`` directly must call :meth:`invalidate_cache`.
        self._ones_count: int | None = None

    @classmethod
    def _trusted(
        cls,
        opinions: np.ndarray,
        source_mask: np.ndarray,
        source_preferences: np.ndarray,
        correct_opinion: int,
        pin_each_round: bool,
    ) -> "PopulationState":
        """Wrap arrays known to satisfy the invariants, skipping the O(n)
        validation of ``__post_init__`` — for copies and batch-row views."""
        population = object.__new__(cls)
        population.opinions = opinions
        population.source_mask = source_mask
        population.source_preferences = source_preferences
        population.correct_opinion = correct_opinion
        population.pin_each_round = pin_each_round
        population._ones_count = None
        return population

    # ------------------------------------------------------------------ views

    @property
    def n(self) -> int:
        """Total number of agents (sources included)."""
        return int(self.opinions.shape[0])

    @property
    def num_sources(self) -> int:
        return int(self.source_mask.sum())

    @property
    def nonsource_mask(self) -> np.ndarray:
        return ~self.source_mask

    def fraction_ones(self) -> float:
        """``x_t``: the fraction of agents (sources included) with opinion 1."""
        return self.count_ones() / self.n

    def count_ones(self) -> int:
        if self._ones_count is None:
            self._ones_count = int(self.opinions.sum())
        return self._ones_count

    def invalidate_cache(self) -> None:
        """Drop the cached one-count after a direct write into ``opinions``."""
        self._ones_count = None

    # -------------------------------------------------------------- mutation

    def set_opinions(self, new_opinions: np.ndarray) -> None:
        """Replace all opinions, then re-pin sources to their preference.

        Protocols compute tentative opinions for everyone; the population
        enforces the model invariant that a source always outputs its
        preference (for the single-source problem, the correct opinion). This
        mirrors the paper's assumption that the source "adopts the correct
        opinion and remains with it throughout the execution".
        """
        new_opinions = np.asarray(new_opinions, dtype=np.uint8)
        if new_opinions.shape != self.opinions.shape:
            raise ValueError("opinion vector shape mismatch")
        self.opinions = new_opinions
        self.invalidate_cache()
        if self.pin_each_round:
            self.pin_sources()

    def pin_sources(self) -> None:
        """Force every source agent's opinion to its preference bit."""
        self.opinions[self.source_mask] = self.source_preferences[self.source_mask]
        self.invalidate_cache()

    def adversarial_opinions(
        self, opinions: np.ndarray, *, pin_sources: bool = True, validate: bool = True
    ) -> None:
        """Install an adversarial opinion configuration.

        By default sources are re-pinned (the adversary "may initially set a
        different opinion to the source, but then the value of the correct bit
        would change" — we model this by keeping the correct bit fixed and
        pinning). Passing ``pin_sources=False`` reproduces the impossibility
        construction of Section 1.2, in which the adversary also controls the
        opinions that conflicted sources publicly display.

        ``validate=False`` skips the O(n) 0/1 check — for initializers whose
        vectors are 0/1 by construction, where the check would otherwise
        dominate many-trial setup.
        """
        opinions = np.asarray(opinions, dtype=np.uint8)
        if opinions.shape != self.opinions.shape:
            raise ValueError("opinion vector shape mismatch")
        if validate and not np.isin(opinions, (0, 1)).all():
            raise ValueError("opinions must be 0/1 valued")
        self.opinions = opinions.copy()
        self.invalidate_cache()
        if pin_sources:
            self.pin_sources()

    # ------------------------------------------------------------ predicates

    def at_consensus(self) -> bool:
        """True when every agent outputs the same opinion."""
        first = self.opinions[0]
        return bool((self.opinions == first).all())

    def at_correct_consensus(self) -> bool:
        """True when every agent outputs the correct opinion."""
        return bool((self.opinions == self.correct_opinion).all())

    def nonsource_correct_fraction(self) -> float:
        """Fraction of non-source agents currently holding the correct opinion."""
        nonsource = self.opinions[self.nonsource_mask]
        if nonsource.size == 0:
            return 1.0
        return float((nonsource == self.correct_opinion).mean())

    def copy(self) -> "PopulationState":
        # Valid by construction — skip __post_init__'s O(n) re-validation,
        # which matters when a harness copies one template per trial.
        new = PopulationState._trusted(
            self.opinions.copy(),
            self.source_mask.copy(),
            self.source_preferences.copy(),
            self.correct_opinion,
            self.pin_each_round,
        )
        new._ones_count = self._ones_count
        return new


def make_population(
    n: int,
    correct_opinion: int = 1,
    *,
    num_sources: int = 1,
    source_indices: np.ndarray | list[int] | None = None,
) -> PopulationState:
    """Build a single-preference population (the paper's standard setting).

    All sources share ``correct_opinion`` as their preference. Source agents
    are placed at ``source_indices`` if given, otherwise at indices
    ``0 .. num_sources-1`` (agent identity is irrelevant in a fully-connected
    anonymous population).

    Non-source opinions start at the *wrong* opinion; callers normally
    overwrite them with an initializer before running.
    """
    if correct_opinion not in (0, 1):
        raise ValueError(f"correct_opinion must be 0 or 1, got {correct_opinion}")
    if source_indices is None:
        if not 1 <= num_sources < n:
            raise ValueError(f"num_sources must be in [1, n), got {num_sources}")
        source_indices = np.arange(num_sources)
    source_mask = np.zeros(n, dtype=bool)
    source_mask[np.asarray(source_indices, dtype=int)] = True
    preferences = np.full(n, correct_opinion, dtype=np.uint8)
    opinions = np.full(n, 1 - correct_opinion, dtype=np.uint8)
    opinions[source_mask] = correct_opinion
    return PopulationState(
        opinions=opinions,
        source_mask=source_mask,
        source_preferences=preferences,
        correct_opinion=correct_opinion,
    )


def make_majority_population(
    n: int,
    k0: int,
    k1: int,
) -> PopulationState:
    """Build a population for the *majority* bit-dissemination variant.

    ``k0`` sources prefer 0 and ``k1`` sources prefer 1; the correct bit is
    the strict-majority preference. Used only by the impossibility experiment
    (paper Section 1.2) — the paper proves this variant is unsolvable in
    poly-log time under passive communication.
    """
    if k0 + k1 >= n:
        raise ValueError("too many sources for the population size")
    if k0 == k1:
        raise ValueError("majority variant requires a strict majority preference")
    if min(k0, k1) < 0 or max(k0, k1) == 0:
        raise ValueError("need non-negative counts with at least one source")
    correct = 1 if k1 > k0 else 0
    source_mask = np.zeros(n, dtype=bool)
    source_mask[: k0 + k1] = True
    preferences = np.zeros(n, dtype=np.uint8)
    preferences[:k0] = 0
    preferences[k0 : k0 + k1] = 1
    opinions = preferences.copy()
    return PopulationState(
        opinions=opinions,
        source_mask=source_mask,
        source_preferences=preferences,
        correct_opinion=correct,
        # In the majority variant every agent — sources included — must
        # eventually converge on the majority preference, so sources are not
        # pinned each round; they participate in the dynamics.
        pin_each_round=False,
    )
