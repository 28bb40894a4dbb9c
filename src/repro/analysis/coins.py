"""Exact binomial "coin competition" probabilities and the paper's bounds.

The entire analysis of FET reduces to comparing two binomial counts: an agent
adopts opinion 1 when ``B_ℓ(x_{t+1}) > B_ℓ(x_t)`` (Observation 1). Appendix A
of the paper develops four bounds on such competitions (Lemmas 12–15). This
module computes the *exact* probabilities by pmf convolution and implements
each bound, so tests and the E-coins benchmark can verify every lemma
numerically.

Notation: ``B_k(p)`` is a Binomial(k, p) variable; the two coins are tossed
``k`` times each, independently.

Imports: every ``repro`` process imports this module (the package root
re-exports the analysis), but only the analysis needs ``scipy.stats``, whose
import alone roughly doubles the package's cold start. So
:func:`binomial_pmf` imports ``scipy.stats.binom`` on its first call, and
Lemma 15's Φ is ``scipy.special.ndtr`` — the ufunc ``scipy.stats.norm.cdf``
evaluates, so the numbers are the same bits. :mod:`.markov` draws its pmfs
from :func:`binomial_pmf` too, so this is the one place ``scipy.stats`` is
imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "CoinComparison",
    "binomial_pmf",
    "compare_binomials",
    "compare_grid",
    "hoeffding_favorite_bound",
    "berry_esseen_underdog_bound",
    "lemma12_upper_bound",
    "lemma14_lower_bound",
    "expected_abs_difference_bound",
    "LEMMA12_ALPHA",
    "BERRY_ESSEEN_C",
]

#: Berry–Esseen constant used by the paper (Theorem 5).
BERRY_ESSEEN_C = 0.4748

#: The explicit constant from Claim 9's proof: any upper bound on
#: ``1/(q(1-p))`` over ``p, q ∈ [1/3, 2/3]``; the proof picks 9.
LEMMA12_ALPHA = 9.0


@dataclass(frozen=True)
class CoinComparison:
    """Exact outcome probabilities of one k-toss competition.

    ``p_first_wins`` is ``P(B_k(p) > B_k(q))``; ``p_tie`` is
    ``P(B_k(p) = B_k(q))``; ``p_second_wins`` the remainder.
    """

    p_first_wins: float
    p_tie: float
    p_second_wins: float

    @property
    def total(self) -> float:
        return self.p_first_wins + self.p_tie + self.p_second_wins


def binomial_pmf(k: int, p: float | np.ndarray) -> np.ndarray:
    """Probability mass function of Binomial(k, p) on ``{0, …, k}``.

    Scalar ``p`` gives shape ``(k+1,)``; an array of ``m`` values gives shape
    ``(m, k+1)``.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    support = np.arange(k + 1)
    p_arr = np.asarray(p, dtype=float)
    if (p_arr < 0).any() or (p_arr > 1).any():
        raise ValueError("p must lie in [0, 1]")
    # scipy's ibeta machinery overflows on p within a few hundred orders of
    # magnitude of the double-precision floor; such values are 0 for every
    # purpose here (pmf(0) = 1 - k·p + O(p²) ≈ 1 already at p = 1e-250).
    p_arr = np.where(np.abs(p_arr) < 1e-250, 0.0, p_arr)
    p_arr = np.where(np.abs(1.0 - p_arr) < 1e-250, 1.0, p_arr)
    from scipy.stats import binom  # deferred: see the module docstring

    if p_arr.ndim == 0:
        return binom.pmf(support, k, float(p_arr))
    return binom.pmf(support[None, :], k, p_arr[:, None])


def compare_binomials(k: int, p: float, q: float) -> CoinComparison:
    """Exact ``P(B_k(p) > / = / < B_k(q))`` via pmf convolution."""
    pmf_p = binomial_pmf(k, p)
    pmf_q = binomial_pmf(k, q)
    cdf_q = np.cumsum(pmf_q)
    # P(X > Y) = sum_i pmf_p[i] * P(Y < i) = sum_i pmf_p[i] * cdf_q[i-1].
    strict_below = np.concatenate(([0.0], cdf_q[:-1]))
    p_gt = float(pmf_p @ strict_below)
    p_eq = float(pmf_p @ pmf_q)
    p_lt = max(0.0, 1.0 - p_gt - p_eq)
    return CoinComparison(p_first_wins=p_gt, p_tie=p_eq, p_second_wins=p_lt)


def compare_grid(k: int, ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized competition over a grid.

    Returns ``(GT, EQ)`` where ``GT[i, j] = P(B_k(ps[i]) > B_k(qs[j]))`` and
    ``EQ[i, j] = P(B_k(ps[i]) = B_k(qs[j]))``. Used to evaluate the drift
    function over the whole grid ``G`` in one shot.
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    pmf_p = binomial_pmf(k, ps)  # (len(ps), k+1)
    pmf_q = binomial_pmf(k, qs)  # (len(qs), k+1)
    cdf_q = np.cumsum(pmf_q, axis=1)
    strict_below = np.concatenate(
        [np.zeros((len(qs), 1)), cdf_q[:, :-1]], axis=1
    )
    gt = pmf_p @ strict_below.T
    eq = pmf_p @ pmf_q.T
    return gt, eq


# --------------------------------------------------------------------------
# The paper's bounds (Appendix A.2), each implemented exactly as stated.
# --------------------------------------------------------------------------


def hoeffding_favorite_bound(k: int, p: float, q: float) -> float:
    """Lemma 13: lower bound on ``P(B_k(p) < B_k(q))`` for ``p < q``.

    ``P(B_k(p) < B_k(q)) ≥ 1 − exp(−k(q−p)²/2)``.
    """
    if not p < q:
        raise ValueError(f"Lemma 13 requires p < q, got p={p}, q={q}")
    return 1.0 - math.exp(-0.5 * k * (q - p) ** 2)


def berry_esseen_underdog_bound(k: int, p: float, q: float) -> float:
    """Lemma 15: lower bound on ``P(B_k(p) > B_k(q))`` (underdog wins).

    ``P ≥ 1 − Φ(√k(q−p)/σ) − C/(σ√k)`` with ``σ² = p(1−p) + q(1−q)``.
    The bound can be vacuous (negative) when σ is tiny; callers clamp.
    """
    if not p < q:
        raise ValueError(f"Lemma 15 requires p < q, got p={p}, q={q}")
    sigma = math.sqrt(p * (1 - p) + q * (1 - q))
    if sigma == 0.0:
        return 0.0
    z = math.sqrt(k) * (q - p) / sigma
    return 1.0 - float(ndtr(z)) - BERRY_ESSEEN_C / (sigma * math.sqrt(k))


def lemma12_upper_bound(k: int, p: float, q: float, alpha: float = LEMMA12_ALPHA) -> float:
    """Lemma 12: upper bound on ``P(B_k(p) < B_k(q))`` for close coins.

    ``P < 1/2 + α(q−p)√k − P(B_k(p)=B_k(q))/2`` for ``p, q ∈ [1/3, 2/3]``,
    ``p < q``, ``q − p ≤ 1/√k``. Returns the bound's value; the caller
    compares against the exact probability.
    """
    if not (1 / 3 <= p < q <= 2 / 3):
        raise ValueError(f"Lemma 12 requires 1/3 <= p < q <= 2/3, got p={p}, q={q}")
    if q - p > 1 / math.sqrt(k) + 1e-12:  # tolerance: gaps built as p + 1/sqrt(k)
        raise ValueError(f"Lemma 12 requires q - p <= 1/sqrt(k), got gap {q - p}")
    tie = compare_binomials(k, p, q).p_tie
    return 0.5 + alpha * (q - p) * math.sqrt(k) - 0.5 * tie


def lemma14_lower_bound(k: int, p: float, q: float, lam: float) -> float:
    """Lemma 14's asserted lower bound value on ``P(B_k(p) < B_k(q))``.

    ``1/2 + λ(q−p) − P(B_k(p)=B_k(q))/2``. The lemma guarantees the exact
    probability exceeds this for ``p, q`` close enough to 1/2 and ``k`` large
    enough (as a function of λ); the E-coins benchmark maps where it holds.
    """
    if not p < q:
        raise ValueError(f"Lemma 14 requires p < q, got p={p}, q={q}")
    tie = compare_binomials(k, p, q).p_tie
    return 0.5 + lam * (q - p) - 0.5 * tie


def expected_abs_difference_bound(k: int, p: float, q: float) -> float:
    """Claim 10: ``E|B_k(p) − B_k(q)| ≤ √(2k·q(1−q)) + k(q−p)`` for p < q."""
    if not p < q:
        raise ValueError(f"Claim 10 requires p < q, got p={p}, q={q}")
    return math.sqrt(2 * k * q * (1 - q)) + k * (q - p)


def exact_expected_abs_difference(k: int, p: float, q: float) -> float:
    """Exact ``E|B_k(p) − B_k(q)|`` by convolving the two pmfs."""
    pmf_p = binomial_pmf(k, p)
    pmf_q = binomial_pmf(k, q)
    diff = np.arange(k + 1)[:, None] - np.arange(k + 1)[None, :]
    joint = pmf_p[:, None] * pmf_q[None, :]
    return float((np.abs(diff) * joint).sum())
