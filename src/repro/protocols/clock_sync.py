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
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..core.population import PopulationState
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler, Sampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.batch import BatchedPopulation

__all__ = ["ClockSyncProtocol"]

#: Ceiling on elements per intermediate array in ``step_batch``. The identity
#: samples and the per-(agent, clock, opinion) tallies are ``(A, n, ell)`` /
#: ``(A, n, 2·period)`` shaped; replicas are processed in chunks so neither
#: exceeds this. Besides bounding peak memory, the cap keeps each chunk's
#: tensors cache-resident — measured fastest around 0.25–0.5M elements; a
#: 4× larger budget was ~1.9× slower end to end.
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

    def init_state(self, n: int, rng: np.random.Generator) -> ProtocolState:
        return {"clock": np.zeros(n, dtype=np.int64)}

    def randomize_state(self, n: int, rng: np.random.Generator) -> ProtocolState:
        """Fully adversarial: every agent's clock is arbitrary."""
        return {"clock": rng.integers(0, self.period, size=n, dtype=np.int64)}

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": np.zeros((replicas, n), dtype=np.int64)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": rng.integers(0, self.period, size=(replicas, n), dtype=np.int64)}

    def step(
        self,
        population: PopulationState,
        state: ProtocolState,
        sampler: Sampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        n = population.n
        clocks = state["clock"]
        # Decoupled messages require reading sampled agents' state, so this
        # protocol materializes indices itself (uniform with replacement),
        # independent of the engine's count sampler. int32 indices: half the
        # memory traffic of the gathers, and n always fits.
        idx = rng.integers(0, n, size=(n, self.ell), dtype=np.int32)

        sampled_clocks = clocks[idx]  # (n, ell)
        # Per-agent plurality over period values; ties resolve to the
        # smallest clock value (argmax returns the first maximum).
        flat = (np.arange(n)[:, None] * self.period + sampled_clocks).ravel()
        tallies = np.bincount(flat, minlength=n * self.period).reshape(n, self.period)
        new_clocks = (tallies.argmax(axis=1) + 1) % self.period

        sampled_opinions = population.opinions[idx]
        epsilon = _observation_epsilon(sampler)
        if epsilon:
            # Honor the engine's per-bit observation-noise model on the
            # opinion channel: each observed bit independently flipped with
            # probability epsilon (the clock message stays clean — the noise
            # model of repro.core.noise is defined on opinion observations).
            flips = rng.random(idx.shape) < epsilon
            sampled_opinions = sampled_opinions ^ flips.astype(np.uint8)
        saw_zero = (sampled_opinions == 0).any(axis=1)
        saw_one = (sampled_opinions == 1).any(axis=1)
        in_zero_subphase = new_clocks < self.subphase_len

        opinions = population.opinions
        new = np.where(
            in_zero_subphase & saw_zero,
            np.uint8(0),
            np.where(~in_zero_subphase & saw_one, np.uint8(1), opinions),
        ).astype(np.uint8)

        state["clock"] = new_clocks
        return new

    def step_batch(
        self,
        batch: "BatchedPopulation",
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """All replicas at once: identity samples, plurality, two subphases.

        The scalar body broadcasts almost verbatim: ``(A, n, ell)`` identity
        draws replace the ``(n, ell)`` ones, and the per-agent plurality
        becomes a single bincount over flattened ``(replica, agent, clock)``
        keys. ``argmax`` along the clock axis keeps the scalar tie rule
        (ties resolve to the smallest clock value). Replicas are processed
        in chunks so the ``(A, n, ell)`` sample tensor and the
        ``(A, n, period)`` tally tensor stay within a fixed element budget;
        with one replica per chunk the draws consume the stream exactly as
        the scalar ``step`` does (the identical-stream equivalence tests
        rely on this).
        """
        n = batch.n
        replicas = batch.replicas
        clocks = states["clock"]
        opinions = batch.opinions
        new_opinions = np.empty_like(opinions)
        new_clocks = np.empty_like(clocks)
        width = 2 * self.period
        epsilon = _observation_epsilon(sampler)
        # Reading a sampled agent's state is one gather: its clock and its
        # opinion are packed into a single key (clock, opinion-bit), so the
        # bincount below tallies both at once.
        packed = (clocks * 2 + opinions).astype(np.int32)
        per_replica = n * max(self.ell, width)
        chunk = max(1, _CHUNK_ELEMENT_BUDGET // per_replica)
        for start in range(0, replicas, chunk):
            stop = min(start + chunk, replicas)
            c = stop - start
            idx = rng.integers(0, n, size=(c, n, self.ell), dtype=np.int32)
            rows = np.arange(start, stop)[:, None, None]
            sampled = packed[rows, idx].reshape(c * n, self.ell)  # (c·n, ell)
            if epsilon:
                # Per-bit observation noise on the opinion channel: flipping
                # an observed bit is an XOR on the packed key's low bit (the
                # clock message stays clean, as in the scalar step).
                sampled = sampled ^ (rng.random(sampled.shape) < epsilon)
            # One flat bincount over (replica, agent, clock, opinion) keys:
            # entry (r, i, v, b) counts how often agent i of replica r sampled
            # clock value v from an agent with opinion b.
            flat = (np.arange(c * n)[:, None] * width + sampled).ravel()
            tallies = np.bincount(flat, minlength=c * n * width).reshape(
                c, n, self.period, 2
            )
            # Plurality over clock values ignores the opinion bit; argmax
            # keeps the scalar tie rule (ties resolve to the smallest clock).
            # Slice-add instead of sum(axis=3): numpy's reduction over a
            # length-2 axis pays per-element loop overhead (~7× slower here).
            clock_tallies = tallies[:, :, :, 0] + tallies[:, :, :, 1]
            chunk_clocks = (clock_tallies.argmax(axis=2) + 1) % self.period

            ones_seen = tallies[:, :, :, 1].sum(axis=2)
            saw_one = ones_seen > 0
            saw_zero = ones_seen < self.ell
            in_zero_subphase = chunk_clocks < self.subphase_len

            chunk_opinions = opinions[start:stop]
            new_opinions[start:stop] = np.where(
                in_zero_subphase & saw_zero,
                np.uint8(0),
                np.where(~in_zero_subphase & saw_one, np.uint8(1), chunk_opinions),
            ).astype(np.uint8)
            new_clocks[start:stop] = chunk_clocks
        states["clock"] = new_clocks
        return new_opinions

    def samples_per_round(self) -> int:
        return self.ell

    def memory_bits(self) -> float:
        return math.log2(self.period)

    def clock_agreement(self, state: ProtocolState) -> float:
        """Fraction of agents holding the plurality clock value (diagnostic).

        Accepts scalar ``(n,)`` and batched ``(R, n)`` state; the batched
        form reports the mean per-replica plurality fraction.
        """
        clocks = state["clock"]
        if clocks.ndim == 1:
            counts = np.bincount(clocks, minlength=self.period)
            return float(counts.max() / clocks.size)
        replicas, n = clocks.shape
        flat = (np.arange(replicas)[:, None] * self.period + clocks).ravel()
        counts = np.bincount(flat, minlength=replicas * self.period).reshape(
            replicas, self.period
        )
        return float((counts.max(axis=1) / n).mean())
