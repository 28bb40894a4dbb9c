"""Population layouts for the self-stabilizing bit-dissemination problem.

The model (paper, Section 1.2): a fully-connected network of ``n`` agents,
each holding a public binary opinion. One designated *source* agent knows the
correct opinion, adopts it, and never deviates. Non-source agents must
converge on the correct opinion from an arbitrary initial configuration.

A single population is a one-row
:class:`~repro.core.batch.BatchedPopulation`: its ``(1, n)`` opinion matrix
plus the source structure. The factories here build that row for the
standard setting and for the generalized *majority bit-dissemination*
setting of Section 1.2 (``k ≥ 1`` sources, each with its own preference
bit), which the impossibility experiment uses.
"""

from __future__ import annotations

import numpy as np

from .batch import BatchedPopulation

__all__ = ["make_population", "make_majority_population"]


def make_population(
    n: int,
    correct_opinion: int = 1,
    *,
    num_sources: int = 1,
    source_indices: np.ndarray | list[int] | None = None,
) -> BatchedPopulation:
    """Build a single-preference population (the paper's standard setting),
    as a validated one-row batch.

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
    return BatchedPopulation(
        opinions=opinions[None, :],
        source_mask=source_mask,
        source_preferences=preferences,
        correct_opinion=correct_opinion,
    )


def make_majority_population(
    n: int,
    k0: int,
    k1: int,
) -> BatchedPopulation:
    """Build a one-row population for the *majority* bit-dissemination variant.

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
    return BatchedPopulation(
        opinions=opinions[None, :],
        source_mask=source_mask,
        source_preferences=preferences,
        correct_opinion=correct,
        # In the majority variant every agent — sources included — must
        # eventually converge on the majority preference, so sources are not
        # pinned each round; they participate in the dynamics.
        pin_each_round=False,
    )
