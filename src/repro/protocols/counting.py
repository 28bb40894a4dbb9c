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
observation count is an independent ``Binomial(ℓ, x̃)`` draw
(:func:`~repro.core.sampling._binomial_pmf_rows` supplies the row-wise
pmfs), so per-state transition counts are binomial/multinomial splits of
the state counts — O(S) work per replica, independent of ``n``.
"""

from __future__ import annotations

import numpy as np

from ..core.sampling import _binomial_pmf_rows

__all__ = [
    "OPINION_DISPLAY",
    "OPINION_STATE_PMF",
    "prev_count_display",
    "prev_count_state_pmf",
    "two_block_trend_step_counts",
    "scatter_counts",
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


def scatter_counts(dist: np.ndarray, targets: np.ndarray, num_states: int) -> np.ndarray:
    """Re-aggregate a ``(A, S, K)`` transition-count tensor onto target states.

    ``targets[s, k]`` names the destination state of the ``k``-th outcome
    from source state ``s`` (shared across replicas). One offset-bincount
    replaces a Python loop over replicas; the float64 weights are exact for
    integer counts up to 2^53, far beyond any population size here.
    """
    replicas = dist.shape[0]
    flat = (
        np.arange(replicas, dtype=np.int64)[:, None] * num_states + targets.ravel()[None, :]
    ).ravel()
    out = np.bincount(
        flat, weights=dist.reshape(replicas, -1).ravel(), minlength=replicas * num_states
    )
    return out.reshape(replicas, num_states).astype(np.int64)
