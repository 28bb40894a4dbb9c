"""Noise-robustness experiment (extension E-noise).

Under per-bit observation noise ε (see :mod:`repro.core.noise`), exact
consensus stops being absorbing: from all-correct, an agent's two counters
are i.i.d. ``Binomial(ℓ, 1−ε)`` draws, ties stop being guaranteed, and
defections appear. Worse, FET is a *trend follower*: it amplifies the
spurious trend a defection creates, so for ANY ε > 0 (measured down to
1e-5) the population eventually falls off the consensus knife-edge into
sustained oscillations — it keeps *reaching* near-consensus quickly but
cannot *retain* it. (Measured in the E-noise benchmark; an honest negative
robustness result for the plain protocol, suggesting hysteresis or averaging
would be needed in noisy environments.)

The meaningful criteria are therefore split: *θ-convergence* (first time the
fraction of correct non-sources reaches ``θ``) and the *settle level* (mean
correct fraction over a window after θ was reached).

The driver runs on the sweep orchestrator (:mod:`repro.sweep`): each noise
level becomes one cell of a grid with the ``theta`` measure, so the levels
run in parallel across ``jobs`` worker processes and can persist/resume
through a results ``store``. Since the trace subsystem landed, the ``theta``
measure runs each cell's trials on the *batched* engine (trace-recorded, with
per-replica settle windows served by linger-retirement); pass
``engine="sequential"`` to force the original per-trial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..initializers.standard import AllWrong, Initializer
from ..sweep.dispatch import FaultPolicy
from ..sweep.orchestrator import run_sweep
from ..sweep.spec import SweepSpec
from ..sweep.store import ResultsStore

__all__ = ["NoiseRow", "sweep_noise"]


@dataclass(frozen=True)
class NoiseRow:
    """Outcome of one (protocol, noise level) cell: θ-convergence stats and
    settle level. ``protocol`` distinguishes baseline rows when the sweep
    compares more than one protocol."""

    epsilon: float
    trials: int
    reached_theta: int
    median_rounds: float
    mean_settle_level: float
    protocol: str = ""


def sweep_noise(
    n: int,
    ell: int,
    epsilons: list[float],
    *,
    trials: int,
    max_rounds: int,
    seed: int,
    theta: float = 0.95,
    settle_window: int = 20,
    initializer: Initializer | None = None,
    jobs: int = 1,
    store: ResultsStore | str | Path | None = None,
    policy: FaultPolicy | None = None,
    engine: str = "auto",
    protocols: list[dict | str] | None = None,
) -> list[NoiseRow]:
    """Measure θ-convergence time and settle level per (protocol, noise) cell.

    By default the sweep measures FET alone (the paper's E-noise extension).
    ``protocols`` adds comparison rows — e.g. ``[{"name": "fet", "ell": 40},
    "clock-sync"]`` puts the decoupled-message baseline next to FET at every
    noise level: count-sampling protocols consume ε through the noisy count
    samplers, and clock-sync applies the same per-bit flip model to the
    opinion bits it reads directly (its clock message stays clean — the
    noise model covers opinion observations). Since the clock-sync
    vectorization, every registered protocol rides a lock-step engine under
    ``engine="auto"`` (counts where the cell is count-capable and past the
    protocol's crossover, batched otherwise), so baseline rows cost the same
    per trial as FET rows instead of falling back to the per-replica path.
    """
    initializer = initializer if initializer is not None else AllWrong()
    protocol_axis: list[dict | str] = (
        list(protocols) if protocols is not None else [{"name": "fet", "ell": int(ell)}]
    )
    spec = SweepSpec(
        name="noise-robustness",
        seed=seed,
        trials=trials,
        axes={
            "protocol": protocol_axis,
            "n": [n],
            "noise": [float(eps) for eps in epsilons],
            "initializer": [initializer.spec()],
        },
        max_rounds=max_rounds,
        stability_rounds=1,
        engine=engine,
        measure={"kind": "theta", "theta": theta, "settle_window": settle_window},
    )
    outcome = run_sweep(spec, jobs=jobs, store=store, policy=policy)
    rows: list[NoiseRow] = []
    for cell, result in zip(outcome.cells, outcome.results):
        payload = result.payload
        times = payload["times"]
        levels = payload["settle_levels"]
        rows.append(
            NoiseRow(
                epsilon=cell.noise,
                trials=cell.trials,
                reached_theta=payload["reached"],
                median_rounds=float(np.median(times)) if times else float("nan"),
                mean_settle_level=float(np.mean(levels)) if levels else float("nan"),
                protocol=payload["protocol"],
            )
        )
    return rows
