"""Decoupled-message baseline: clock synchronization + two-subphase spread.

Stand-in for the protocols of Boczkowski, Korman & Natale 2019 (3-bit
messages) and Bastide, Giakkoupis & Saribekyan 2021 (1-bit messages), which
solve self-stabilizing bit-dissemination by synchronizing clocks and then
running the two-subphase rule of Section 1.4. Their defining property — the
one the paper contrasts FET against — is that the *message* an agent reveals
is decoupled from its opinion: here each agent exposes its clock value in
addition to its opinion bit, so the protocol is **not** passive
(``passive = False``) and is disqualified in the paper's model.

Construction (simplified; see DESIGN.md §4 for the substitution rationale):

1. Every agent keeps a clock in ``{0, …, T-1}`` with ``T = 4·⌈log2 n⌉``.
2. Each round it samples ℓ agents, reads their clocks (the decoupled
   message), and resets its own clock to the plurality of the sampled clocks
   (ties to the smallest value), plus one. Plurality-with-increment
   empirically drives arbitrary initial clocks to agreement in O(log n)
   rounds when ℓ = Θ(log n).
3. The opinion is updated with the two-subphase rule driven by the agent's
   own clock: during the first half-period adopt 0 if any sampled opinion is
   0; during the second half adopt 1 if any sampled opinion is 1.

Unlike the cited works, the clock-agreement step here is empirical rather
than proven; the baseline benchmark (E-base) reports its measured success
rate alongside FET's.

Once a replica's clocks all agree, step 2 is deterministic (every clock
advances by one) and step 3 depends on the samples only through how many
ones they hold, so ``step_batch`` steps such a replica in closed form —
one uniform per agent against ``1 - x̃^ℓ`` (zero subphase) or
``1 - (1-x̃)^ℓ`` (one subphase) — instead of drawing identities. The law
is unchanged; only replicas whose clocks disagree draw identities, as the
per-agent reference in ``tests/reference/clock_sync.py`` does, and they
tally clocks alone (a sampled opinion enters only through the ones seen),
so the bitwise comparison with it holds only up to synchronization.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.batch import BatchedPopulation

__all__ = ["ClockSyncProtocol"]

#: Ceiling on elements per chunk of ``step_batch``'s plurality tier, which
#: holds ``max(1, budget // (n·max(ell, 2·period)))`` replicas: its identity
#: samples are ``(A, n, ell)`` and its clock tallies ``(A, n, period)``. The
#: rule's ``2·period`` (room for a (clock, opinion) tally) stays because the
#: chunk sizes fix the identity draws' shapes, and so the stream. Besides
#: bounding peak memory, the cap keeps each chunk cache-resident — measured
#: fastest around 0.25–0.5M elements; a 4× larger budget was ~1.9× slower.
_CHUNK_ELEMENT_BUDGET = 500_000


def _observation_epsilon(sampler: object) -> float:
    """Per-bit observation-noise level of the engine's sampler, if any.

    Clock-sync reads sampled agents' state directly instead of consuming
    count observations, so the noisy count samplers cannot inject noise for
    it; the protocol applies their ``epsilon`` to the opinion bits it reads.
    """
    return float(getattr(sampler, "epsilon", 0.0) or 0.0)


class ClockSyncProtocol(Protocol):
    """Plurality clock sync feeding the two-subphase dissemination rule."""

    passive = False

    def __init__(self, n_hint: int, ell: int) -> None:
        if n_hint < 2:
            raise ValueError(f"n_hint must be >= 2, got {n_hint}")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.subphase_len = max(1, 2 * math.ceil(math.log2(n_hint)))
        self.period = 2 * self.subphase_len
        self.name = f"clock-sync(T={self.period},ell={ell})"

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": np.zeros((replicas, n), dtype=np.int64)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": rng.integers(0, self.period, size=(replicas, n), dtype=np.int64)}

    def step_batch(
        self,
        batch: "BatchedPopulation",
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All replicas at once: a closed form for synchronized replicas,
        identity samples, plurality and two subphases for the rest.

        *Synchronized tier.* A replica whose clocks all equal ``c`` needs no
        identity draw: every sampled clock is ``c``, so every new clock is
        ``(c+1) % period``, and each agent's ``ell`` sampled opinion bits are
        iid with ``P(1) = x̃ = x(1-ε) + (1-x)ε`` (``x`` the row's fraction of
        ones over all ``n`` agents — sampling is with replacement and
        includes self and the sources). An agent therefore adopts 0 in the
        zero subphase with probability ``1 - x̃^ell`` and 1 in the one
        subphase with probability ``1 - (1-x̃)^ell``: one uniform per agent,
        the same law as the literal rule.

        *Plurality tier.* Every other replica draws ``ell`` uniform identities
        per agent, one ``(c, n, ell)`` draw per chunk of ``c`` replicas
        (:data:`_CHUNK_ELEMENT_BUDGET`), and gathers the sampled agents' packed
        (clock, opinion-bit) keys. The ones seen are the keys' low bits summed;
        the plurality over sampled clocks is one bincount over flat ``(replica,
        agent, clock)`` keys, ``argmax`` resolving ties to the smallest clock.
        These replicas draw before the synchronized ones, so they consume the
        stream exactly as a batch of those rows alone. Until its clocks agree,
        a chunk matches the per-agent reference in
        ``tests/reference/clock_sync.py`` run on its replicas in turn, bitwise
        when ε = 0 and one ``(c, n, ell)`` draw is ``c`` draws of ``(1, n,
        ell)`` (one replica per chunk, or ``n`` a power of two).
        """
        n = batch.n
        clocks = states["clock"]
        opinions = batch.opinions
        new_opinions = np.empty_like(opinions)
        new_clocks = np.empty_like(clocks)
        epsilon = _observation_epsilon(sampler)
        synced = clocks.min(axis=1) == clocks.max(axis=1)
        lagging = np.flatnonzero(~synced)
        # Reading a sampled agent's state is one gather: its clock and its
        # opinion are packed into a single key (clock, opinion-bit).
        packed = (clocks[lagging] * 2 + opinions[lagging]).astype(np.int32)
        per_replica = n * max(self.ell, 2 * self.period)
        chunk = max(1, _CHUNK_ELEMENT_BUDGET // per_replica)
        for start in range(0, lagging.size, chunk):
            stop = min(start + chunk, lagging.size)
            c = stop - start
            idx = rng.integers(0, n, size=(c, n, self.ell), dtype=np.int32)
            sampled = np.empty_like(idx)
            # One 1-D take per replica; mode="clip" (a no-op on in-range
            # indices) spares numpy the out-buffer copy of mode="raise".
            for row in range(c):
                packed[start + row].take(idx[row], out=sampled[row], mode="clip")
            sampled = sampled.reshape(c * n, self.ell)
            if epsilon:
                # Per-bit observation noise on the opinion channel: flipping
                # an observed bit is an XOR on the packed key's low bit (the
                # clock message stays clean).
                sampled ^= rng.random(sampled.shape) < epsilon
            ones_seen = (sampled & 1).sum(axis=1).reshape(c, n)
            # The plurality ignores the opinion bit: one bincount over flat
            # (replica, agent, clock) keys; argmax takes the smallest clock.
            sampled >>= 1
            sampled += np.arange(0, c * n * self.period, self.period, dtype=np.int32)[:, None]
            tallies = np.bincount(sampled.ravel(), minlength=c * n * self.period)
            chunk_clocks = (tallies.reshape(c, n, self.period).argmax(axis=2) + 1) % self.period
            in_zero_subphase = chunk_clocks < self.subphase_len
            targets = lagging[start:stop]
            new_opinions[targets] = np.where(
                in_zero_subphase & (ones_seen < self.ell),
                np.uint8(0),
                np.where(~in_zero_subphase & (ones_seen > 0), np.uint8(1), opinions[targets]),
            )
            new_clocks[targets] = chunk_clocks

        aligned = np.flatnonzero(synced)
        if aligned.size:
            next_clock = (clocks[aligned, 0] + 1) % self.period
            x = batch.count_ones()[aligned] / n
            x_tilde = x * (1.0 - epsilon) + (1.0 - x) * epsilon
            # The zero subphase adopts 0 unless all ell bits read 1; the one
            # subphase adopts 1 unless all read 0.
            adopt = (next_clock >= self.subphase_len).astype(np.uint8)
            p_other = np.where(adopt == 0, x_tilde, 1.0 - x_tilde)
            p_adopt = 1.0 - p_other**self.ell
            u = rng.random((aligned.size, n))
            new_opinions[aligned] = np.where(
                u < p_adopt[:, None], adopt[:, None], opinions[aligned]
            )
            new_clocks[aligned] = next_clock[:, None]
        states["clock"] = new_clocks
        return new_opinions

    def samples_per_round(self) -> int:
        return self.ell

    def memory_bits(self) -> float:
        return math.log2(self.period)

    def clock_agreement(self, state: ProtocolState) -> float:
        """Fraction of agents holding the plurality clock value (diagnostic).

        Accepts single-population ``(n,)`` and batched ``(R, n)`` state;
        the batched form reports the mean per-replica plurality fraction.
        """
        clocks = np.atleast_2d(state["clock"])
        replicas, n = clocks.shape
        flat = (np.arange(replicas)[:, None] * self.period + clocks).ravel()
        counts = np.bincount(flat, minlength=replicas * self.period).reshape(
            replicas, self.period
        )
        return float((counts.max(axis=1) / n).mean())
