"""Tests for the experiment harnesses (trials, sweeps, transitions)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunSpec
from repro.core.population import make_population
from repro.experiments.convergence import (
    fit_scaling,
    sweep_population_sizes,
    sweep_sample_sizes,
)
from repro.experiments.trajectories import run_annotated
from repro.experiments.transitions import collect_transitions
from repro.initializers.standard import AllWrong, BernoulliRandom
from repro.protocols.fet import FETProtocol, ell_for


class TestRunTrials:
    def test_aggregates(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 30}, n=400, trials=10, max_rounds=800, seed=0
        ).execute()
        assert stats.trials == 10
        assert stats.successes == 10
        assert stats.times.size == 10
        assert stats.success_rate == 1.0

    def test_reproducible(self):
        spec = RunSpec(
            protocol={"name": "fet", "ell": 30}, n=300, trials=5, max_rounds=500, seed=42
        )
        a, b = spec.execute(), spec.execute()
        assert np.array_equal(a.times, b.times)

    def test_failure_counted(self):
        stats = RunSpec(
            protocol={"name": "voter"}, n=1000, trials=5, max_rounds=50, seed=1
        ).execute()
        assert stats.successes == 0
        assert stats.times.size == 0
        assert np.isnan(stats.time_summary().mean)

    def test_row_fields(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 30}, n=300, trials=3, max_rounds=500, seed=2
        ).execute()
        row = stats.row()
        assert row["n"] == 300
        assert row["success"] == "3/3"

    def test_keep_results(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 30}, n=300, trials=3, max_rounds=500, seed=3
        ).execute(keep_results=True)
        assert len(stats.results) == 3

    def test_custom_population_factory(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 30}, n=300, trials=2, max_rounds=500, seed=4
        ).execute(population_factory=lambda: make_population(300, 0))
        assert stats.successes == 2

    def test_zero_trials_degrade_gracefully(self):
        with np.errstate(all="raise"):  # any division warning would raise
            stats = RunSpec(
                protocol={"name": "fet", "ell": 10}, n=100, trials=0, max_rounds=10, seed=0
            ).execute()
            assert stats.trials == 0
            assert stats.successes == 0
            assert stats.times.size == 0
            assert np.isnan(stats.success_rate)
            assert all(np.isnan(v) for v in stats.success_interval)
            assert stats.time_summary().count == 0
            assert stats.protocol_name == "fet(ell=10)"
            row = stats.row()
            assert row["success"] == "0/0"

    def test_rejects_negative_trials(self):
        with pytest.raises(ValueError, match="trials"):
            RunSpec(
                protocol={"name": "fet", "ell": 10}, n=100, trials=-1, max_rounds=10, seed=0
            ).execute()

    def test_rejects_nonpositive_max_rounds(self):
        for max_rounds in (0, -5):
            with pytest.raises(ValueError, match="max_rounds"):
                RunSpec(
                    protocol={"name": "fet", "ell": 10},
                    n=100,
                    trials=2,
                    max_rounds=max_rounds,
                    seed=0,
                ).execute()


class TestSweeps:
    def test_population_sweep_rows(self):
        rows = sweep_population_sizes([128, 256, 512], trials=4, seed=0)
        assert [row.n for row in rows] == [128, 256, 512]
        for row in rows:
            assert row.ell == ell_for(row.n)
            assert row.stats.successes == row.stats.trials

    def test_fit_scaling_runs(self):
        rows = sweep_population_sizes([128, 512, 2048], trials=4, seed=1)
        fit = fit_scaling(rows)
        assert np.isfinite(fit.b)

    def test_sample_size_sweep(self):
        rows = sweep_sample_sizes(400, [4, 16, 48], trials=4, seed=2, max_rounds=4000)
        assert [row.ell for row in rows] == [4, 16, 48]
        # The largest ell should succeed in every trial.
        assert rows[-1].stats.successes == rows[-1].stats.trials


class TestAnnotatedRun:
    def test_domains_align_with_pairs(self):
        annotated = run_annotated(
            FETProtocol(40),
            800,
            AllWrong(),
            max_rounds=1000,
            seed=0,
        )
        assert len(annotated.domains) == annotated.result.pairs().shape[0]

    def test_dwell_segments_sum(self):
        annotated = run_annotated(
            FETProtocol(40),
            800,
            BernoulliRandom(0.5),
            max_rounds=1000,
            seed=1,
        )
        total = sum(dwell for _, dwell in annotated.dwell_segments())
        assert total == len(annotated.domains)

    def test_starts_in_cyan_from_all_wrong(self):
        annotated = run_annotated(
            FETProtocol(40),
            800,
            AllWrong(),
            max_rounds=1000,
            seed=2,
        )
        assert annotated.domains[0].family == "Cyan"


class TestCollectTransitions:
    def test_summary_populated(self):
        summary = collect_transitions(
            500,
            ell_for(500),
            [AllWrong(), BernoulliRandom(0.5)],
            trials_per_init=4,
            max_rounds=2000,
            seed=0,
        )
        assert summary.runs == 8
        assert summary.converged_runs == 8
        assert summary.dwell_times  # non-empty

    def test_transition_probabilities_normalized(self):
        summary = collect_transitions(
            500,
            ell_for(500),
            [AllWrong()],
            trials_per_init=6,
            max_rounds=2000,
            seed=1,
        )
        for family in summary.families():
            total = sum(
                summary.transition_probability(family, dst)
                for dst in summary.families()
                if not np.isnan(summary.transition_probability(family, dst))
            )
            if total:  # families with at least one outgoing transition
                assert total == pytest.approx(1.0)

    def test_dwell_helpers(self):
        summary = collect_transitions(
            500,
            ell_for(500),
            [AllWrong()],
            trials_per_init=4,
            max_rounds=2000,
            seed=2,
        )
        family = next(iter(summary.dwell_times))
        assert summary.max_dwell(family) >= 1
        assert summary.mean_dwell(family) >= 1.0
        assert summary.max_dwell("nonexistent") == 0
