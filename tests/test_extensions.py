"""Tests for the multi-source sweep and the worst-case search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.multisource import sweep_sources
from repro.experiments.worst_case import search_worst_start
from repro.protocols.fet import ell_for


class TestSweepSources:
    def test_all_source_counts_converge(self):
        n = 800
        rows = sweep_sources(
            n,
            ell_for(n),
            [1, 2, 8, n // 8],
            trials=4,
            max_rounds=3000,
            seed=0,
        )
        assert [row.num_sources for row in rows] == [1, 2, 8, 100]
        for row in rows:
            assert row.stats.successes == row.stats.trials

    def test_many_sources_at_least_as_fast(self):
        """A constant fraction of sources cannot be slower than one source."""
        n = 800
        rows = sweep_sources(
            n,
            ell_for(n),
            [1, n // 8],
            trials=6,
            max_rounds=3000,
            seed=1,
        )
        single = rows[0].stats.time_summary().median
        many = rows[1].stats.time_summary().median
        assert many <= single + 2  # allow tie plus noise

    def test_rejects_bad_source_count(self):
        with pytest.raises(ValueError):
            sweep_sources(100, 10, [0], trials=1, max_rounds=10, seed=0)
        with pytest.raises(ValueError):
            sweep_sources(100, 10, [100], trials=1, max_rounds=10, seed=0)


class TestWorstCaseSearch:
    def test_search_runs_and_converges(self):
        n = 400
        result = search_worst_start(
            n,
            ell_for(n),
            coarse=4,
            refine_steps=1,
            runs_per_candidate=2,
            budget=5000,
            seed=0,
        )
        assert result.all_converged
        assert result.evaluations == 4 * 4 * 2
        assert 0.0 <= result.x_prev <= 1.0
        assert 0.0 <= result.x_now <= 1.0
        assert result.mean_rounds >= 1.0
        assert result.max_rounds_seen >= result.mean_rounds - 1e-9

    def test_deterministic_given_seed(self):
        kwargs = dict(coarse=3, refine_steps=0, runs_per_candidate=2, budget=3000, seed=7)
        a = search_worst_start(300, 40, **kwargs)
        b = search_worst_start(300, 40, **kwargs)
        assert a == b

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            search_worst_start(100, 10, coarse=1)

    def test_rejects_zero_runs_per_candidate(self):
        with pytest.raises(ValueError):
            search_worst_start(100, 10, runs_per_candidate=0)

    def test_worst_found_is_slower_than_benign(self):
        """The search must find something at least as bad as an easy start."""
        n = 400
        result = search_worst_start(
            n,
            ell_for(n),
            coarse=4,
            refine_steps=0,
            runs_per_candidate=2,
            budget=5000,
            seed=3,
        )
        # The (0.1 -> 0.9) start converges in ~1-2 rounds; the worst found
        # must be no better than that.
        assert result.mean_rounds >= 2.0
