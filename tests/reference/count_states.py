"""Per-agent view of the count states, written independently of the library.

A count model names each per-agent state by one index ``s``: ``opinion·(ℓ+1) +
prev_count`` for simple-trend (its carried counter is the compared count, so
the counts must resolve it), ``2·opinion + undecided`` for undecided-state,
the opinion bit for every other rule. FET and hysteresis-FET are opinion-bit
count models too: their carried ``prev_count`` is an independent sample
block, which the counts engine carries as one counter law per replica beside
the opinion counts, not as a count state. These two maps move between that
index and the per-agent arrays, so tests can hold the count engine to the
per-agent rule; :func:`pooled_chisquare` holds observed counts to a law.
"""

from __future__ import annotations

import numpy as np
from scipy import stats


def counter_in_state(protocol) -> bool:
    """Whether the count states hold the per-agent ``prev_count``."""
    return protocol.name.startswith("simple-trend")


def agent_states(protocol, opinions: np.ndarray, states: dict) -> np.ndarray:
    """Per-agent count-state index, mapped from the per-agent arrays."""
    if "prev_count" in states and counter_in_state(protocol):
        return opinions.astype(np.int64) * (protocol.ell + 1) + states["prev_count"]
    if "undecided" in states:
        return 2 * opinions.astype(np.int64) + states["undecided"]
    return opinions.astype(np.int64)


def install_states(protocol, opinions: np.ndarray, states: dict, index: np.ndarray) -> None:
    """Set agents' opinions and internal states to the count states ``index``
    (the inverse of :func:`agent_states`), in place. A ``prev_count`` the
    count states leave out is left to the caller."""
    if "prev_count" in states and counter_in_state(protocol):
        opinions[...] = index // (protocol.ell + 1)
        states["prev_count"][...] = index % (protocol.ell + 1)
    elif "undecided" in states:
        opinions[...] = index // 2
        states["undecided"][...] = index % 2
    else:
        opinions[...] = index


def pooled_chisquare(observed: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """χ² goodness of fit of ``observed`` counts to ``expected`` counts
    (same total), adjacent bins pooled until each holds ``min_expected``.

    Returns ``None`` when everything pools into one bin (nothing to test);
    an observation where nothing is expected fails outright.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert not observed[expected == 0].any(), "observed where the law has no mass"
    bins_obs, bins_exp = [], []
    pending_obs = pending_exp = 0.0
    for obs, exp in zip(observed, expected):
        pending_obs += obs
        pending_exp += exp
        if pending_exp >= min_expected:
            bins_obs.append(pending_obs)
            bins_exp.append(pending_exp)
            pending_obs = pending_exp = 0.0
    if not bins_exp:
        return None
    bins_obs[-1] += pending_obs
    bins_exp[-1] += pending_exp
    if len(bins_exp) < 2:
        return None
    bins_exp = np.array(bins_exp)
    bins_exp *= sum(bins_obs) / bins_exp.sum()
    return stats.chisquare(bins_obs, bins_exp).pvalue
