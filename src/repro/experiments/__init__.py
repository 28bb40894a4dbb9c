"""Experiment harnesses: trial batches, scaling sweeps, domain transitions."""

from .adaptivity import AdaptivityResult, run_changing_environment
from .convergence import (
    ScalingRow,
    default_round_budget,
    fit_scaling,
    sweep_population_sizes,
    sweep_sample_sizes,
)
from .harness import (
    TrialStats,
    execute_run,
    make_batched_engine,
    prepare_batch,
)
from .multisource import SourceRow, sweep_sources
from .robustness import NoiseRow, sweep_noise
from .trajectories import AnnotatedRun, run_annotated, run_annotated_batch
from .transitions import TransitionSummary, collect_transitions
from .worst_case import WorstCaseResult, search_worst_start

__all__ = [
    "AdaptivityResult",
    "AnnotatedRun",
    "NoiseRow",
    "ScalingRow",
    "SourceRow",
    "TransitionSummary",
    "TrialStats",
    "WorstCaseResult",
    "collect_transitions",
    "default_round_budget",
    "execute_run",
    "fit_scaling",
    "make_batched_engine",
    "prepare_batch",
    "run_annotated",
    "run_annotated_batch",
    "run_changing_environment",
    "search_worst_start",
    "sweep_noise",
    "sweep_population_sizes",
    "sweep_sample_sizes",
    "sweep_sources",
]
