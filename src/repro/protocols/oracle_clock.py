"""Oracle-clock two-subphase protocol — the O(log n) scheme of Section 1.4.

The paper notes that *if all agents share the same notion of global time*,
bit-dissemination is solvable in ``O(log n)`` rounds even under passive
communication: divide time into phases of length ``T = 4·⌈log2 n⌉``, each
split into two subphases of ``2·⌈log2 n⌉`` rounds. During the first subphase a
non-source agent copies an observed 0 (ignoring 1s); during the second it
copies an observed 1 (ignoring 0s). Whichever opinion the source holds, by the
end of the corresponding subphase the whole population holds it w.h.p. and
never leaves it (the other subphase can no longer show the now-extinct
opinion).

The shared clock is an *oracle* here: it is exempt from adversarial
corruption. That is precisely what makes this protocol unfit for the paper's
setting — it shows why the self-stabilizing clock-synchronization machinery of
Boczkowski et al. 2019 / Bastide et al. 2021 (see
:mod:`repro.protocols.clock_sync`) was needed, and it provides the fast
reference point the benchmarks compare FET against. Adversarial
``randomize_state_batch`` shifts the shared clock by a random offset (the
phase structure is cyclic, so the protocol must and does tolerate that); it
does not desynchronize agents, which the oracle forbids.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.batch import BatchedPopulation
from ..core.protocol import Protocol, ProtocolState
from ..core.sampling import BatchedSampler

__all__ = ["OracleClockProtocol"]


class OracleClockProtocol(Protocol):
    """Two-subphase dissemination driven by a shared (oracle) clock.

    Parameters
    ----------
    n_hint:
        Population size used to size the subphase length ``2·⌈log2 n⌉``.
    ell:
        Samples per round (the classic scheme uses 1).
    """

    passive = True

    def __init__(self, n_hint: int, ell: int = 1) -> None:
        if n_hint < 2:
            raise ValueError(f"n_hint must be >= 2, got {n_hint}")
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.ell = ell
        self.subphase_len = max(1, 2 * math.ceil(math.log2(n_hint)))
        self.period = 2 * self.subphase_len
        self.name = f"oracle-clock(T={self.period},ell={ell})"

    def init_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": np.zeros((replicas, 1), dtype=np.int64)}

    def randomize_state_batch(
        self, replicas: int, n: int, rng: np.random.Generator
    ) -> ProtocolState:
        return {"clock": rng.integers(0, self.period, size=(replicas, 1), dtype=np.int64)}

    def step_batch(
        self,
        batch: BatchedPopulation,
        states: ProtocolState,
        sampler: BatchedSampler,
        rng: np.random.Generator,
    ) -> np.ndarray:
        clocks = states["clock"][:, 0]  # (A,) per-replica oracle clocks
        in_zero_subphase = (clocks % self.period) < self.subphase_len
        counts = sampler.counts(batch, self.ell, rng)
        opinions = batch.opinions
        zero_rule = np.where(counts < self.ell, np.uint8(0), opinions)
        one_rule = np.where(counts > 0, np.uint8(1), opinions)
        new = np.where(in_zero_subphase[:, None], zero_rule, one_rule).astype(np.uint8)
        states["clock"][:, 0] = clocks + 1
        return new

    def samples_per_round(self) -> int:
        return self.ell

    def memory_bits(self) -> float:
        # The clock is an oracle, but an honest accounting charges its width.
        return math.log2(self.period)
