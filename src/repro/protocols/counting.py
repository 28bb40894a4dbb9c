"""Shared count-model building blocks for the sufficient-statistic engine.

The counts engine (:mod:`repro.core.counts`) steps ``(A, S)`` state-count
matrices through :meth:`~repro.core.protocol.Protocol.step_counts`. The
protocols in this package fall into two families, and this module holds the
machinery both reuse:

* **prev-count protocols** (FET, hysteresis-FET, simple-trend): per-agent
  state is ``(opinion, prev_count)`` with ``prev_count ∈ {0..ℓ}``, so
  ``S = 2(ℓ+1)`` and state ``s = opinion·(ℓ+1) + prev_count``;
* **opinion-only protocols** (voter, k-majority, sample-majority): the
  opinion bit is the whole state, ``S = 2``.

All transitions are *exact in distribution*: within a replica every agent's
observation count is an independent ``Binomial(ℓ, x̃)`` draw, so each kernel
draws only the splits its decision rule needs. The two-block trend rule
(:func:`two_block_trend_step_counts`) splits each state binomially into the
new opinion classes and draws each class's fresh counters as one multinomial
over the row-wise pmf (:func:`~repro.core.sampling._binomial_pmf_rows`);
simple-trend splits by count below, equal to or above the carried counter
and lands the movers with one hazard sweep; the opinion-only rules need one
tail probability, read in closed form by :func:`binomial_upper_tail`. Every
step costs O(A·ℓ) or less, independent of ``n``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import bdtrc

from ..core.sampling import _binomial_pmf_rows

__all__ = [
    "OPINION_DISPLAY",
    "OPINION_STATE_PMF",
    "binomial_upper_tail",
    "prev_count_display",
    "prev_count_state_pmf",
    "two_block_trend_step_counts",
]

#: Opinion-only protocols: state ``s`` *is* the opinion bit.
OPINION_DISPLAY = np.array([0, 1], dtype=np.uint8)
#: The state law of an opinion-only protocol given o: the point mass on o.
OPINION_STATE_PMF = np.eye(2, dtype=float)


def prev_count_display(ell: int) -> np.ndarray:
    """``(2(ℓ+1),)`` displayed opinions for ``s = o·(ℓ+1) + prev``."""
    return np.repeat(np.array([0, 1], dtype=np.uint8), ell + 1)


def prev_count_state_pmf(ell: int, counter: np.ndarray | None = None) -> np.ndarray:
    """State law of a prev-count protocol given o: ``prev_count ~ counter``,
    uniform on ``{0..ℓ}`` when ``None`` (``randomize_state_batch``'s
    counters)."""
    if counter is None:
        counter = np.full(ell + 1, 1.0 / (ell + 1))
    pmf = np.zeros((2, 2 * (ell + 1)))
    pmf[0, : ell + 1] = counter
    pmf[1, ell + 1 :] = counter
    return pmf


def binomial_upper_tail(ell: int, k: int, x_eff: np.ndarray) -> np.ndarray:
    """``P(Binomial(ℓ, x̃) ≥ k)`` per replica, for ``1 ≤ k ≤ ℓ``.

    Read in closed form from the regularized incomplete beta function
    (``scipy.special.bdtrc``) — the same sum as ``pmf[:, k:]`` without
    building the ``(A, ℓ+1)`` pmf, and exactly 0 or 1 at ``x̃ ∈ {0, 1}``.
    """
    return bdtrc(k - 1, ell, x_eff)


def two_block_trend_step_counts(
    counts: np.ndarray,
    x_eff: np.ndarray,
    rng: np.random.Generator,
    ell: int,
    band: int,
) -> np.ndarray:
    """One count-level round of the two-block trend rule (FET; hysteresis
    for ``band > 0``).

    Per agent in state ``(o, prev)``: draw ``count′ ~ Binomial(ℓ, x̃)``,
    adopt 1 when ``count′ > prev + band``, adopt 0 when
    ``count′ < prev − band``, keep ``o`` otherwise; the carried counter
    becomes an *independent* second block ``count″ ~ Binomial(ℓ, x̃)``.

    Because the new counter is independent of the adoption decision, the
    transition factorizes into two stages — a per-state binomial split into
    the new opinion classes, then one multinomial draw of counter values per
    opinion class — costing O(A·ℓ) instead of the O(A·S²) of a dense kernel.
    """
    width = ell + 1
    pmf = _binomial_pmf_rows(ell, x_eff)
    cdf = np.cumsum(pmf, axis=1)
    prev = np.arange(width)
    # P(count′ > prev + band): 1 - cdf at the threshold, exact at the clamp
    # (cdf[:, ℓ] == 1 makes out-of-range thresholds contribute 0).
    p_up = 1.0 - cdf[:, np.minimum(prev + band, ell)]
    # P(count′ < prev - band): cdf at prev - band - 1, zero when the
    # threshold sits at or below 0.
    lo = prev - band
    p_down = np.where(lo >= 1, cdf[:, np.clip(lo - 1, 0, ell)], 0.0)
    # P(new opinion = 1 | state): adopt-1 mass, plus the keep mass iff o = 1.
    p_one = np.concatenate([p_up, 1.0 - p_down], axis=1)
    np.clip(p_one, 0.0, 1.0, out=p_one)

    to_one = rng.binomial(counts, p_one)
    m_one = to_one.sum(axis=1)
    m_zero = counts.sum(axis=1) - m_one
    # Fresh counters are iid Binomial(ℓ, x̃) regardless of the new opinion,
    # so each opinion class's counter histogram is one multinomial split.
    new_zero = rng.multinomial(m_zero, pmf)
    new_one = rng.multinomial(m_one, pmf)
    return np.concatenate([new_zero, new_one], axis=1).astype(np.int64)
