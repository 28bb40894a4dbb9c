"""Tests for the changing-environment (adaptivity) experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.adaptivity import run_changing_environment
from repro.protocols.fet import ell_for


class TestValidation:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            run_changing_environment(100, 10, period=0, flips=1, seed=0)

    def test_rejects_bad_flips(self):
        with pytest.raises(ValueError):
            run_changing_environment(100, 10, period=10, flips=0, seed=0)


class TestAdaptation:
    def test_tracks_every_flip(self):
        n = 1500
        result = run_changing_environment(
            n, ell_for(n), period=80, flips=8, seed=1
        )
        assert result.missed == 0
        assert len(result.lags) == 8

    def test_lag_is_cyan_bounce_scale(self):
        """Each flip is an all-wrong-consensus episode: lags stay tiny."""
        n = 1500
        result = run_changing_environment(
            n, ell_for(n), period=80, flips=8, seed=2
        )
        assert result.max_lag <= 15
        assert result.mean_lag <= 10

    def test_no_degradation_over_flips(self):
        """Repeated changes do not accumulate damage (self-stabilization)."""
        n = 1500
        result = run_changing_environment(
            n, ell_for(n), period=80, flips=10, seed=3
        )
        first_half = np.mean(result.lags[:5])
        second_half = np.mean(result.lags[5:])
        assert second_half <= first_half + 3

    def test_mostly_correct_with_long_period(self):
        n = 1500
        result = run_changing_environment(
            n, ell_for(n), period=120, flips=5, seed=4
        )
        assert result.correct_time_fraction > 0.9

    def test_short_period_degrades_correct_fraction(self):
        """If the world flips faster than the bounce, correctness drops."""
        n = 1500
        fast = run_changing_environment(n, ell_for(n), period=4, flips=20, seed=5)
        slow = run_changing_environment(n, ell_for(n), period=120, flips=5, seed=5)
        assert fast.correct_time_fraction < slow.correct_time_fraction

    def test_deterministic(self):
        a = run_changing_environment(800, 40, period=50, flips=4, seed=9)
        b = run_changing_environment(800, 40, period=50, flips=4, seed=9)
        assert a.lags == b.lags
        assert a.correct_time_fraction == b.correct_time_fraction


class TestBookkeeping:
    def test_correct_rounds_follow_from_the_lags(self):
        """For FET at ε = 0 the first all-correct round is absorbing, so a
        cycle that re-converges at round ``lag`` is correct for exactly
        ``period − lag + 1`` of its rounds."""
        n, period, flips = 800, 30, 6
        result = run_changing_environment(n, ell_for(n), period=period, flips=flips, seed=11)
        assert result.missed == 0
        correct_rounds = sum(period - lag + 1 for lag in result.lags)
        assert result.correct_time_fraction * period * flips == pytest.approx(
            correct_rounds, rel=1e-12
        )
