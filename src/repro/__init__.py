"""repro — reproduction of Korman & Vacus (PODC 2022).

"Early Adapting to Trends: Self-Stabilizing Information Spread using Passive
Communication" (arXiv:2203.11522). The package provides:

* the **FET** protocol (Protocol 1) and the full PULL-model simulation
  substrate it runs on (:mod:`repro.core`, :mod:`repro.protocols`);
* baselines: the simple-trend variant, classic opinion dynamics (voter,
  3-majority, undecided-state, sample-majority), the oracle-clock two-subphase
  scheme and a decoupled-message clock-sync protocol;
* the paper's analytical machinery: exact binomial coin competitions
  (Lemmas 12–15), the drift function ``g`` of Eq. (7) and its fixed points,
  the Figure 1a / Figure 2 domain partitions, the exact pair Markov chain of
  Observation 1, and the per-lemma dwell-time bounds
  (:mod:`repro.analysis`);
* experiment harnesses and statistics used by the benchmark suite
  (:mod:`repro.experiments`, :mod:`repro.stats`, :mod:`repro.viz`);
* the parallel sweep orchestrator (:mod:`repro.sweep`): declarative
  experiment grids fanned out over worker processes with a persistent,
  resumable results store — the front door is ``python -m repro sweep``;
* the trace subsystem (:mod:`repro.trace`): batched per-replica trajectory
  recording (full, strided, or ring-buffered) with vectorized trace-derived
  measures — the layer that runs the trajectory-shaped workloads
  (``keep_results``, Figure 1b transitions, θ/settle sweeps) on the batched
  engine; ``python -m repro trace`` charts and exports recorded runs;
* the telemetry subsystem (:mod:`repro.telemetry`): a dependency-free
  metrics registry (counters/gauges/histograms, off by default) wired
  through the engines, dispatchers, orchestrator, and store, with
  Prometheus text exposition, deterministic cross-process aggregation,
  and a live sweep progress line — ``python -m repro metrics`` and the
  ``--progress`` / ``--metrics-out`` sweep flags surface it.

Quickstart::

    from repro import FETProtocol, RunSpec, SynchronousEngine, ell_for, make_population
    from repro.initializers import AllWrong

    # One live population — a one-row batch, shape (1, n) — run through
    # the lock-step driver; runs chain, each continuing where the last ended:
    n = 1000
    population = make_population(n, correct_opinion=1)
    engine = SynchronousEngine(
        FETProtocol(ell_for(n)), population, rng=0, initializer=AllWrong()
    )
    result = engine.run(2000)
    print(result.converged, result.rounds, population.fraction_ones()[0])

    # A batch of independent trials of one declared condition:
    stats = RunSpec(protocol={"name": "fet"}, n=n, trials=100, seed=0).execute()
    print(stats.success_rate, stats.time_summary().median)
"""

from .config import RunSpec
from .analysis import (
    Domain,
    DomainPartition,
    ExactPairChain,
    YellowArea,
    compare_binomials,
    drift_g,
    fixed_point_f,
    theorem1_bound,
)
from .core import (
    BatchedBinomialSampler,
    BatchedPopulation,
    IndexSampler,
    Protocol,
    RunResult,
    SynchronousEngine,
    make_majority_population,
    make_population,
    make_rng,
)
from .protocols import (
    ClockSyncProtocol,
    FETProtocol,
    MajorityProtocol,
    MajoritySamplingProtocol,
    OracleClockProtocol,
    SimpleTrendProtocol,
    UndecidedStateProtocol,
    VoterProtocol,
    ell_for,
)
from .sweep import ResultsStore, SweepResult, SweepSpec, run_sweep
from .trace import BatchTrace, FullTrace, RingBufferTrace, TraceRecorder

__version__ = "1.6.0"

__all__ = [
    "BatchTrace",
    "BatchedBinomialSampler",
    "BatchedPopulation",
    "ClockSyncProtocol",
    "Domain",
    "DomainPartition",
    "ExactPairChain",
    "FETProtocol",
    "FullTrace",
    "IndexSampler",
    "MajorityProtocol",
    "MajoritySamplingProtocol",
    "OracleClockProtocol",
    "Protocol",
    "ResultsStore",
    "RunSpec",
    "RingBufferTrace",
    "RunResult",
    "SimpleTrendProtocol",
    "SweepResult",
    "SweepSpec",
    "SynchronousEngine",
    "TraceRecorder",
    "UndecidedStateProtocol",
    "VoterProtocol",
    "YellowArea",
    "compare_binomials",
    "drift_g",
    "ell_for",
    "fixed_point_f",
    "make_majority_population",
    "make_population",
    "make_rng",
    "run_sweep",
    "theorem1_bound",
    "__version__",
]
