"""Single-population reference for ``ClockSyncProtocol.step_batch``.

The literal per-agent rule, one population at a time: each agent draws
``ell`` uniform identities, resets its clock to the plurality of the
sampled clocks plus one (ties to the smallest value), and applies the
two-subphase opinion rule driven by its new clock. Per-bit observation
noise ``epsilon`` flips the sampled opinion bits (never the clocks).

It consumes a generator exactly as one chunk of ``step_batch`` holding a
single replica does, so the two must agree bitwise on identical streams.
"""

from __future__ import annotations

import numpy as np


def clock_sync_step(protocol, opinions, state, epsilon, rng):
    """Advance ``state["clock"]`` in place; return the new ``(n,)`` opinions."""
    n = opinions.shape[0]
    clocks = state["clock"]
    idx = rng.integers(0, n, size=(n, protocol.ell), dtype=np.int32)
    flat = (np.arange(n)[:, None] * protocol.period + clocks[idx]).ravel()
    tallies = np.bincount(flat, minlength=n * protocol.period).reshape(n, protocol.period)
    new_clocks = (tallies.argmax(axis=1) + 1) % protocol.period

    sampled = opinions[idx]
    if epsilon:
        sampled = sampled ^ (rng.random(idx.shape) < epsilon).astype(np.uint8)
    saw_zero = (sampled == 0).any(axis=1)
    saw_one = (sampled == 1).any(axis=1)
    in_zero_subphase = new_clocks < protocol.subphase_len
    new = np.where(
        in_zero_subphase & saw_zero,
        np.uint8(0),
        np.where(~in_zero_subphase & saw_one, np.uint8(1), opinions),
    ).astype(np.uint8)
    state["clock"] = new_clocks
    return new
