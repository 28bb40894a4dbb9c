"""Per-agent view of the count states, written independently of the library.

A count model names each per-agent state by one index ``s``: ``opinion·(ℓ+1) +
prev_count`` for the prev-count protocols, ``2·opinion + undecided`` for
undecided-state, the opinion bit for the opinion-only rules. These two maps
move between that index and the per-agent arrays, so tests can hold the
count engine to the per-agent rule.
"""

from __future__ import annotations

import numpy as np


def agent_states(protocol, opinions: np.ndarray, states: dict) -> np.ndarray:
    """Per-agent count-state index, mapped from the per-agent arrays."""
    if "prev_count" in states:
        return opinions.astype(np.int64) * (protocol.ell + 1) + states["prev_count"]
    if "undecided" in states:
        return 2 * opinions.astype(np.int64) + states["undecided"]
    return opinions.astype(np.int64)


def install_states(protocol, opinions: np.ndarray, states: dict, index: np.ndarray) -> None:
    """Set agents' opinions and internal states to the count states ``index``
    (the inverse of :func:`agent_states`), in place."""
    if "prev_count" in states:
        opinions[...] = index // (protocol.ell + 1)
        states["prev_count"][...] = index % (protocol.ell + 1)
    elif "undecided" in states:
        opinions[...] = index // 2
        states["undecided"][...] = index % 2
    else:
        opinions[...] = index
