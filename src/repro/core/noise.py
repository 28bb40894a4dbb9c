"""Observation-noise extension: faulty passive observations.

The paper's biological motivation (animals scanning each other at a
distance) makes perception errors natural, and its bibliography studies
rumor spreading under message corruption (Feinerman et al. 2017, Boczkowski
et al. 2018a). This extension models the simplest such fault: every observed
opinion bit is independently flipped with probability ``epsilon``.

Under uniform-with-replacement sampling, a flipped observation of a
population with one-fraction ``x`` reads 1 with probability
``x(1−ε) + (1−x)ε``, so the noisy count is exactly
``Binomial(ℓ, x + ε(1−2x))`` — implemented by perturbing the effective
fraction, which keeps the O(n)-per-round fast path.

The robustness benchmark (E-noise) maps how much noise FET tolerates. The
noise is unbiased (it shrinks the drift by (1−2ε) without biasing it), so
FET still *reaches* near-consensus quickly — but it cannot *retain* it:
exact unanimity is the only configuration where every comparison ties, so
it is a knife-edge. A single noisy observation reads as a downward trend,
the trend rule amplifies it, and the population falls into sustained
oscillations for any ε > 0 (measured down to ε = 1e-5). See
:mod:`repro.experiments.robustness` for the reach-vs-retain split.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .sampling import BatchedBinomialSampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchedPopulation

__all__ = ["BatchedNoisyCountSampler", "noisy_fraction"]


def noisy_fraction(x, epsilon: float):
    """Effective one-fraction(s) ``x`` (a float or an array) seen through
    per-bit flip noise ε."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 1/2], got {epsilon}")
    return x + epsilon * (1.0 - 2.0 * x)


class BatchedNoisyCountSampler(BatchedBinomialSampler):
    """Batched fast sampler with per-bit flip noise ε (see module docstring).

    Lets the robustness sweeps (E-noise) run on the batched engine: the noise
    model only perturbs each replica's effective one-fraction, so the batched
    fast path is preserved.
    """

    def __init__(self, epsilon: float, method: str = "auto") -> None:
        super().__init__(method)
        if not 0.0 <= epsilon <= 0.5:
            raise ValueError(f"epsilon must be in [0, 1/2], got {epsilon}")
        self.epsilon = epsilon

    def _fractions(self, batch: "BatchedPopulation") -> np.ndarray:
        return noisy_fraction(batch.fraction_ones(), self.epsilon)
