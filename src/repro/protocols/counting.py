"""Shared count-model building blocks for the sufficient-statistic engine.

The counts engine (:mod:`repro.core.counts`) steps ``(A, S)`` state-count
matrices through :meth:`~repro.core.protocol.Protocol.step_counts`, beside
an optional per-replica carried state. This module holds what the count
models share:

* **two-class models** (:class:`TwoClassCountModel`: voter, k-majority,
  sample-majority, and the two-block trend rules FET and hysteresis-FET):
  the opinion bit is the whole count state, ``S = 2``
  (:data:`OPINION_DISPLAY`), and every agent at opinion o adopts 1
  independently with one probability ``q_o``, so a round is
  ``Binomial(m₀, q₀) + Binomial(m₁, q₁)`` new ones. Each model declares its
  ``(q₀, q₁)`` once (:meth:`TwoClassCountModel.adoption_law`); the plain
  step and the jump below both draw from that declaration;
* **the pair chain** (:class:`PairChainCountModel`, :func:`pair_chain_law`):
  the two-block trend rule's carried counter is an independent second
  sample block, so given the opinions every non-source's counter is an iid
  draw from one law whatever its opinion — ``Binomial(ℓ, x̃ₜ₋₁)`` after any
  round, the initializer's ``counter_pmf`` at the start. A replica is
  therefore its opinion counts plus that one ``(ℓ+1,)`` counter law
  (:func:`counter_law_state`), and one round is two binomial draws: the
  paper's Observation 1, the step of
  :class:`~repro.analysis.markov.ExactPairChain`.

**Holding times.** A two-class replica is *still* when its last round left
its counts unchanged. Its effective fraction x̃ is then unchanged too, and
for the pair chain the carried law already sits at its fixed point
``Binomial(ℓ, x̃)``, so ``(q₀, q₁)`` stay constant for as long as nobody
moves. Each round, such a replica keeps every agent put with the same
probability ``p_stay = (1−q₀)^{m₀}·q₁^{m₁}``, so the number of rounds until
some agent next moves is ``Geometric(1 − p_stay)``, and that round's outcome
is the step law conditioned on a move. Writing ``B_o`` for the new ones
among the ``m_o`` agents at o, the conditional law has two cases:

* with weight ``1 − (1−q₀)^{m₀}``, some 0 adopts 1: ``B₀`` is a
  zero-truncated ``Binomial(m₀, q₀)`` and ``B₁ ~ Binomial(m₁, q₁)``;
* otherwise (weight ``(1−q₀)^{m₀}·(1 − q₁^{m₁})``) ``B₀ = 0`` and some 1
  drops to 0: ``m₁ − B₁`` is a zero-truncated ``Binomial(m₁, 1−q₁)``.

A zero-truncated ``Binomial(m, p)`` is ``1 + Binomial(m − G, p)``, where G,
the position of the first success, is drawn from its geometric law
truncated to ``{1..m}`` by inverse CDF (:func:`_zero_truncated_binomial`).
:meth:`TwoClassCountModel.jump_counts` lets a still row with
``p_stay ≥ ½`` skip straight to that round, no further than the horizon
``run_lockstep`` gives the row (memorylessness makes the capped jump
exact); the rule reads only the current state, so both routes keep the law.

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

import math
from abc import abstractmethod
from typing import Callable

import numpy as np
from scipy.special import bdtrc, xlog1py, xlogy

from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import _binomial_pmf_rows

__all__ = [
    "OPINION_DISPLAY",
    "OPINION_STATE_PMF",
    "PairChainCountModel",
    "TwoClassCountModel",
    "binomial_upper_tail",
    "counter_law_state",
    "pair_chain_law",
]

#: Opinion-only protocols: state ``s`` *is* the opinion bit.
OPINION_DISPLAY = np.array([0, 1], dtype=np.uint8)
#: The state law of an opinion-only protocol given o: the point mass on o.
OPINION_STATE_PMF = np.eye(2, dtype=float)
#: A still row jumps when ``log p_stay`` is at least this (``p_stay ≥ ½``).
_JUMP_LOG_STAY = -math.log(2.0)


def binomial_upper_tail(ell: int, k: int, x_eff: np.ndarray) -> np.ndarray:
    """``P(Binomial(ℓ, x̃) ≥ k)`` per replica, for ``1 ≤ k ≤ ℓ``.

    Read in closed form from the regularized incomplete beta function
    (``scipy.special.bdtrc``) — the same sum as ``pmf[:, k:]`` without
    building the ``(A, ℓ+1)`` pmf, and exactly 0 or 1 at ``x̃ ∈ {0, 1}``.
    """
    return bdtrc(k - 1, ell, x_eff)


class TwoClassCountModel(Protocol):
    """A count model on the two opinion counts alone (module docstring).

    Subclasses declare their law once, in :meth:`adoption_law`; this class
    turns it into the plain step (:meth:`step_counts`) and the holding-time
    jump the counts engine takes for still replicas (:meth:`jump_counts`).
    """

    counts_supported = True
    count_jumps = True

    def count_display(self) -> np.ndarray:
        return OPINION_DISPLAY

    def count_state_pmf(self, counter: np.ndarray | None = None) -> np.ndarray:
        return OPINION_STATE_PMF

    @abstractmethod
    def adoption_law(
        self, states: ProtocolState, x_eff: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """This round's ``(q₀, q₁)``: per replica, the probability that an
        agent at opinion 0 (resp. 1) shows 1 next round. Advances the
        carried ``states`` to their next-round value in place. An
        opinion-blind law returns the same array twice (``q₁ is q₀``)."""

    def step_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        q0, q1 = self.adoption_law(states, x_eff)
        return _opinion_counts(counts, _binomial_ones(counts, q0, q1, rng))

    def jump_counts(
        self,
        counts: np.ndarray,
        states: ProtocolState,
        x_eff: np.ndarray,
        still: np.ndarray,
        horizon: Callable[[], np.ndarray],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray | int]:
        """Advance every row to its next move, still rows possibly by more
        than one round.

        ``still`` marks the rows whose last round left their counts
        unchanged; ``horizon()`` gives the ``(A,)`` round budget ``≥ 1``
        each row may advance (called only when some row jumps). A still
        row with ``p_stay ≥ ½`` draws its holding time H and advances
        ``Δ = min(H, cap)`` rounds, drawing the conditional move when
        ``H ≤ cap`` and staying put otherwise (``p_stay = 1`` draws
        nothing); every other row takes one plain step. Returns the new
        ``(A, 2)`` counts and the ``(A,)`` rounds each row advanced (``1``
        when no row jumped).
        """
        q0, q1 = self.adoption_law(states, x_eff)
        m0, m1 = counts[:, 0], counts[:, 1]
        log_stay = _log_stay(m0, m1, q0, q1)
        jumping = still & (log_stay >= _JUMP_LOG_STAY)
        if not jumping.any():
            return _opinion_counts(counts, _binomial_ones(counts, q0, q1, rng)), 1
        ones = m1.copy()
        plain = ~jumping
        if plain.any():
            ones[plain] = _binomial_ones(counts[plain], *_rows_of(q0, q1, plain), rng)
        jump = np.flatnonzero(jumping)
        delta = np.ones(len(counts), dtype=np.int64)
        ones[jump], delta[jump] = _hold(
            m0[jump], m1[jump], *_rows_of(q0, q1, jump), log_stay[jump], horizon()[jump], rng
        )
        return _opinion_counts(counts, ones), delta


def _log_stay(m0: np.ndarray, m1: np.ndarray, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """``log p_stay = m₀·log(1−q₀) + m₁·log q₁``: nobody moves this round."""
    return xlog1py(m0, -q0) + xlogy(m1, q1)


def _hold(
    m0: np.ndarray,
    m1: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    log_stay: np.ndarray,
    cap: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows that keep every agent put with ``p_stay = e^{log_stay}`` each
    round: advance each to its next move, no further than ``cap ≥ 1``
    rounds. Returns the new one-counts and the rounds advanced."""
    rate = -log_stay
    ones, delta = m1.copy(), cap.copy()
    # H = 1 + ⌊E/rate⌋ with E ~ Exp(1) has P(H > h) = p_stay^h; it lands
    # within the cap exactly when E < cap·rate (never for p_stay = 1).
    moving = rate > 0.0
    wait = np.full(rate.size, np.inf)
    wait[moving] = rng.standard_exponential(int(np.count_nonzero(moving)))
    hit = wait < cap * rate
    if hit.any():
        delta[hit] = np.minimum(1 + np.floor(wait[hit] / rate[hit]), cap[hit])
        ones[hit] = _moved_ones(m0[hit], m1[hit], *_rows_of(q0, q1, hit), rate[hit], rng)
    return ones, delta


def _rows_of(q0: np.ndarray, q1: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q₀, q₁)`` restricted to ``rows``, keeping an opinion-blind law's
    shared array shared."""
    sub = q0[rows]
    return sub, sub if q1 is q0 else q1[rows]


def _binomial_ones(
    counts: np.ndarray, q0: np.ndarray, q1: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """New one-counts ``Binomial(m₀, q₀) + Binomial(m₁, q₁)`` per row; an
    opinion-blind law moves all ``m₀ + m₁`` agents with one binomial."""
    if q1 is q0:
        return rng.binomial(counts.sum(axis=1), q0)
    law = np.empty(counts.shape)
    law[:, 0] = q0
    law[:, 1] = q1
    return rng.binomial(counts, law).sum(axis=1)


def _opinion_counts(counts: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """The ``(A, 2)`` counts after a round that left ``ones`` agents at 1."""
    new = np.empty_like(counts)
    new[:, 0] = counts[:, 0] + counts[:, 1] - ones
    new[:, 1] = ones
    return new


def _moved_ones(
    m0: np.ndarray,
    m1: np.ndarray,
    q0: np.ndarray,
    q1: np.ndarray,
    rate: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """New one-counts given that some agent moves (module docstring): the
    first case, some 0 adopting 1, has probability ``(1 − (1−q₀)^{m₀}) /
    (1 − p_stay)`` with ``p_stay = e^{−rate}``."""
    gain = -np.expm1(xlog1py(m0, -q0))
    first = rng.random(m0.size) * -np.expm1(-rate) < gain
    second = ~first
    ones = np.empty_like(m1)
    ones[first] = _zero_truncated_binomial(m0[first], q0[first], rng) + rng.binomial(
        m1[first], q1[first]
    )
    ones[second] = m1[second] - _zero_truncated_binomial(m1[second], 1.0 - q1[second], rng)
    return ones


def _zero_truncated_binomial(
    m: np.ndarray, p: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``Binomial(m, p)`` conditioned on at least one success, for ``m ≥ 1``
    and ``0 < p ≤ 1``: ``1 + Binomial(m − G, p)``, with G the first
    success's position, ``P(G ≤ g) = (1 − (1−p)^g) / (1 − (1−p)^m)``,
    inverted in log space so tiny ``p`` keeps its precision."""
    first = np.ones(m.shape, dtype=np.int64)
    inner = p < 1.0
    if inner.any():
        log_miss = np.log1p(-p[inner])
        u = rng.random(int(np.count_nonzero(inner)))
        g = np.ceil(np.log1p(u * np.expm1(m[inner] * log_miss)) / log_miss)
        first[inner] = np.clip(g, 1, m[inner])
    return 1 + rng.binomial(m - first, p)


# ---------------------------------------------------------------- pair chain


def counter_law_state(
    replicas: int, ell: int, counter: np.ndarray | None = None
) -> ProtocolState:
    """The pair chain's carried state: every replica's counter law is
    ``counter`` (a pmf on ``{0..ℓ}``), uniform when ``None`` — the law of
    ``randomize_state_batch``'s counters."""
    if counter is None:
        counter = np.full(ell + 1, 1.0 / (ell + 1))
    return {"counter_law": np.tile(np.asarray(counter, dtype=float), (replicas, 1))}


def pair_chain_law(
    states: ProtocolState, x_eff: np.ndarray, ell: int, band: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(q₀, q₁)`` of the two-block trend rule (FET; hysteresis for
    ``band > 0``) under the carried counter law ``states["counter_law"]``
    ``(A, ℓ+1)``, which it advances to ``Binomial(ℓ, x̃)``.

    Per agent with opinion o and counter c: draw ``count′ ~ Binomial(ℓ,
    x̃)``, adopt 1 when ``count′ > c + band``, adopt 0 when ``count′ < c −
    band``, keep o otherwise; the carried counter becomes an *independent*
    second block ``count″ ~ Binomial(ℓ, x̃)``.

    The counters are iid from the carried law whatever the opinion, so every
    agent at o adopts 1 independently with ``q_o = Σ_c law[c]·P(adopt 1 | o,
    c, x̃)``. The fresh counters are independent of those decisions, so the
    law becomes ``Binomial(ℓ, x̃)`` for both opinions again. One tail table
    is built per *distinct* x̃ of the batch; replicas stalled at the same
    count share it.
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
    states["counter_law"] = pmf[which]
    return p_one[:, 0], p_one[:, 1]


class PairChainCountModel(TwoClassCountModel):
    """The two-block trend rules' count model: the opinion counts plus one
    carried ``(ℓ+1,)`` counter law per replica — a point mass at 0 for the
    clean start, the initializer's ``counter_pmf`` otherwise. Subclasses set
    ``ell`` and ``band`` (FET is the band-0 case)."""

    ell: int
    band: int

    def init_count_state(self, replicas: int) -> ProtocolState:
        return counter_law_state(replicas, self.ell, np.eye(self.ell + 1)[0])

    def randomize_count_state(
        self, replicas: int, counter: np.ndarray | None = None
    ) -> ProtocolState:
        return counter_law_state(replicas, self.ell, counter)

    def adoption_law(
        self, states: ProtocolState, x_eff: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return pair_chain_law(states, x_eff, self.ell, self.band)
