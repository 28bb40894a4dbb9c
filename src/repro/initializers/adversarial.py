"""Crafted adversarial configurations.

These target the structurally hard starting points identified by the paper's
analysis, plus the impossibility construction of Section 1.2. All of them
control both opinions and internal protocol state (the full power the
self-stabilizing adversary has).

The two-round targets (the zero-speed centre among them) and poisoned
counters are exchangeable over the non-source agents, so each is a
declaration like the standard classes: a non-source opinion count and a
counter law, which :class:`~repro.initializers.standard.Initializer`
installs in the per-agent and the count engines alike. Frozen unanimity is
the one per-agent construction: it sets sources off their preference on the
majority population, so it keeps its own ``apply_batch`` and has no
count-level form.
"""

from __future__ import annotations

import numpy as np

from ..core.sampling import _binomial_pmf_rows
from .standard import AllWrong, Initializer, fraction_ones

__all__ = [
    "TwoRoundTarget",
    "ZeroSpeedCenter",
    "FrozenUnanimity",
    "PoisonedCounters",
]

_MAJORITY_ONLY = (
    "FrozenUnanimity models the majority variant; build the population "
    "with make_majority_population (pin_each_round=False)"
)


class TwoRoundTarget(Initializer):
    """Start the chain near a chosen grid point ``(x_prev, x_now)``.

    The paper's Markov chain lives on pairs of consecutive fractions; this
    initializer installs opinions with fraction ``x_now`` and counter state
    distributed as if the previous round's fraction had been ``x_prev``
    (``prev_count ~ Binomial(ℓ, x_prev)`` for the trend protocols). It lets
    experiments drop the chain into any domain of Figure 1a directly.
    """

    def __init__(self, x_prev: float, x_now: float) -> None:
        for label, v in (("x_prev", x_prev), ("x_now", x_now)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {v}")
        self.x_prev = x_prev
        self.x_now = x_now
        self.name = f"two-round(x_prev={x_prev}, x_now={x_now})"

    def nonsource_ones(self, population, rng):
        return fraction_ones(population, self.x_now, rng)

    def counter_pmf(self, ell):
        return _binomial_pmf_rows(ell, np.array([self.x_prev]))[0]

    def spec(self) -> dict:
        return {"name": "two-round", "x_prev": self.x_prev, "x_now": self.x_now}


class ZeroSpeedCenter(TwoRoundTarget):
    """The hardest region of Figure 1a: the Yellow centre with zero speed.

    Opinions split exactly in half and counters consistent with the previous
    round also having been at 1/2 — the chain starts at ``(1/2, 1/2)`` where
    the drift vanishes and only the noise analysis of Section 3 (areas A/B/C)
    gets the process moving. Dominates the paper's O(log^{5/2} n) bound.
    ``TwoRoundTarget(0.5, 0.5)`` under its own name.
    """

    def __init__(self) -> None:
        super().__init__(0.5, 0.5)
        self.name = "zero-speed-center"

    def spec(self) -> dict:
        return {"name": "zero-speed-center"}


class PoisonedCounters(AllWrong):
    """Wrong consensus with counters asserting a saturated history.

    All non-source opinions are wrong, and every trend counter is forced to
    the maximum ℓ, so in the first round every comparison reads "the trend is
    collapsing" regardless of what is sampled. Exercises the bounce-back of
    the Cyan analysis (Lemma 4) from the most misleading counter state.
    """

    name = "poisoned-counters"

    def counter_pmf(self, ell):
        return np.eye(ell + 1)[ell]

    def spec(self) -> dict:
        return {"name": "poisoned-counters"}


class FrozenUnanimity(Initializer):
    """The impossibility construction of Section 1.2 (majority variant).

    Every agent — including sources whose *preference* is the minority bit —
    displays opinion ``opinion``, and every counter asserts a unanimous
    history (``prev_count = ℓ``). All observations are then unanimously
    ``opinion``; comparisons tie forever; no agent ever changes. This is the
    concrete witness of the indistinguishability argument: a passive protocol
    cannot escape, even though the majority of sources prefers the other bit.

    Must be used with ``pin_each_round=False`` populations (the majority
    variant); the initializer asserts this to prevent silent misuse.
    """

    def __init__(self, opinion: int = 1) -> None:
        if opinion not in (0, 1):
            raise ValueError(f"opinion must be 0 or 1, got {opinion}")
        self.opinion = opinion
        self.name = f"frozen-unanimity(opinion={opinion})"

    def nonsource_ones(self, population, rng):
        # Only the base apply_counts asks, and the count engine models only
        # source-pinned populations: never the majority variant.
        raise ValueError(_MAJORITY_ONLY)

    def apply_batch(self, batch, protocol, states, rng) -> None:
        if batch.pin_each_round:
            raise ValueError(_MAJORITY_ONLY)
        opinions = np.full((batch.replicas, batch.n), self.opinion, dtype=np.uint8)
        batch.adversarial_opinions(opinions, pin_sources=False, validate=False)
        if "prev_count" in states:
            ell = getattr(protocol, "ell", 1)
            value = ell if self.opinion == 1 else 0
            states["prev_count"] = np.full((batch.replicas, batch.n), value, dtype=np.int64)
        else:
            states.update(protocol.randomize_state_batch(batch.replicas, batch.n, rng))
