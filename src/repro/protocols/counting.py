"""Shared count-model building blocks for the sufficient-statistic engine.

The counts engine (:mod:`repro.core.counts`) steps ``(A, S)`` state-count
matrices through :meth:`~repro.core.protocol.Protocol.step_counts`, beside
an optional per-replica carried state. This module holds what the count
models share:

* **opinion-only state** (voter, k-majority, sample-majority, and the
  two-block trend rules FET and hysteresis-FET): the opinion bit is the
  whole count state, ``S = 2`` (:data:`OPINION_DISPLAY`);
* **the pair chain** (:func:`pair_chain_step_counts`): the two-block trend
  rule's carried counter is an independent second sample block, so given the
  opinions every non-source's counter is an iid draw from one law whatever
  its opinion — ``Binomial(ℓ, x̃ₜ₋₁)`` after any round, the initializer's
  ``counter_pmf`` at the start. A replica is therefore its opinion counts
  plus that one ``(ℓ+1,)`` counter law (:func:`counter_law_state`), and one
  round is two binomial draws: the paper's Observation 1, the step of
  :class:`~repro.analysis.markov.ExactPairChain`.

Simple-trend is the exception that keeps a per-state histogram: its carried
counter *is* the compared count, so its ``2(ℓ+1)`` ``(opinion, prev_count)``
states live in :mod:`repro.protocols.simple_trend`.

All transitions are *exact in distribution*: within a replica every agent's
observation count is an independent ``Binomial(ℓ, x̃)`` draw, so each kernel
draws only what its decision rule needs; the opinion-only rules need one
tail probability, read in closed form by :func:`binomial_upper_tail`. Every
step costs O(A·ℓ) or less, independent of ``n``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import bdtrc

from ..core.protocol import ProtocolState
from ..core.sampling import _binomial_pmf_rows

__all__ = [
    "OPINION_DISPLAY",
    "OPINION_STATE_PMF",
    "binomial_upper_tail",
    "counter_law_state",
    "pair_chain_step_counts",
]

#: Opinion-only protocols: state ``s`` *is* the opinion bit.
OPINION_DISPLAY = np.array([0, 1], dtype=np.uint8)
#: The state law of an opinion-only protocol given o: the point mass on o.
OPINION_STATE_PMF = np.eye(2, dtype=float)


def binomial_upper_tail(ell: int, k: int, x_eff: np.ndarray) -> np.ndarray:
    """``P(Binomial(ℓ, x̃) ≥ k)`` per replica, for ``1 ≤ k ≤ ℓ``.

    Read in closed form from the regularized incomplete beta function
    (``scipy.special.bdtrc``) — the same sum as ``pmf[:, k:]`` without
    building the ``(A, ℓ+1)`` pmf, and exactly 0 or 1 at ``x̃ ∈ {0, 1}``.
    """
    return bdtrc(k - 1, ell, x_eff)


def counter_law_state(
    replicas: int, ell: int, counter: np.ndarray | None = None
) -> ProtocolState:
    """The pair chain's carried state: every replica's counter law is
    ``counter`` (a pmf on ``{0..ℓ}``), uniform when ``None`` — the law of
    ``randomize_state_batch``'s counters."""
    if counter is None:
        counter = np.full(ell + 1, 1.0 / (ell + 1))
    return {"counter_law": np.tile(np.asarray(counter, dtype=float), (replicas, 1))}


def pair_chain_step_counts(
    counts: np.ndarray,
    states: ProtocolState,
    x_eff: np.ndarray,
    rng: np.random.Generator,
    ell: int,
    band: int,
) -> np.ndarray:
    """One count-level round of the two-block trend rule (FET; hysteresis
    for ``band > 0``) on opinion counts ``(A, 2)`` and the carried counter
    law ``states["counter_law"]`` ``(A, ℓ+1)``.

    Per agent with opinion o and counter c: draw ``count′ ~ Binomial(ℓ,
    x̃)``, adopt 1 when ``count′ > c + band``, adopt 0 when ``count′ < c −
    band``, keep o otherwise; the carried counter becomes an *independent*
    second block ``count″ ~ Binomial(ℓ, x̃)``.

    The counters are iid from the carried law whatever the opinion, so every
    agent at o adopts 1 independently with ``q_o = Σ_c law[c]·P(adopt 1 | o,
    c, x̃)``, and the new one-count is ``Binomial(m₀, q₀) + Binomial(m₁,
    q₁)``. The fresh counters are independent of those decisions, so the law
    becomes ``Binomial(ℓ, x̃)`` for both opinions again. One tail table is
    built per *distinct* x̃ of the batch; replicas stalled at the same count
    share it.
    """
    xs, which = np.unique(x_eff, return_inverse=True)
    pmf = _binomial_pmf_rows(ell, xs)
    # tail[:, k] = P(count′ ≥ k), summed from the top so small tails keep
    # their precision.
    tail = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    # adopt[:, o, c] = P(new opinion 1 | o, c, x̃). Opinion 0 moves up on
    # count′ > c + band (never once c + band ≥ ℓ); opinion 1 stays on
    # count′ ≥ c − band (always while c ≤ band).
    width = ell + 1
    adopt = np.zeros((xs.size, 2, width))
    adopt[:, 0, : max(width - band - 1, 0)] = tail[:, band + 1 :]
    adopt[:, 1, :band] = 1.0
    adopt[:, 1, band:] = tail[:, : max(width - band, 0)]
    p_one = np.einsum("ac,aoc->ao", states["counter_law"], adopt[which])
    np.clip(p_one, 0.0, 1.0, out=p_one)
    ones = rng.binomial(counts, p_one).sum(axis=1)
    states["counter_law"] = pmf[which]
    return np.stack([counts.sum(axis=1) - ones, ones], axis=1)
