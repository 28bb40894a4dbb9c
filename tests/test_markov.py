"""Tests for the exact pair Markov chain (Observation 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.drift import drift_g
from repro.analysis.markov import ExactPairChain, next_count_distribution
from repro.config import RunSpec


class TestNextCountDistribution:
    def test_sums_to_one(self):
        dist = next_count_distribution(10, 3, 5, 4)
        assert dist.sum() == pytest.approx(1.0)

    def test_source_floor(self):
        dist = next_count_distribution(10, 3, 5, 4)
        assert dist[0] == 0.0  # the pinned source guarantees k >= 1

    def test_all_ones_absorbing(self):
        n = 8
        dist = next_count_distribution(n, n, n, 4)
        assert dist[n] == pytest.approx(1.0)

    def test_mean_matches_drift_g(self):
        """The chain's conditional mean must equal n·g(x, y) (Observation 1)."""
        n, ell = 20, 5
        for i, j in [(1, 1), (5, 8), (12, 10), (19, 20)]:
            dist = next_count_distribution(n, i, j, ell)
            mean = float((np.arange(n + 1) * dist).sum())
            assert mean / n == pytest.approx(drift_g(i / n, j / n, ell, n), abs=1e-10)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            next_count_distribution(10, 0, 5, 4)


class TestExactPairChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExactPairChain(n=1, ell=2)
        with pytest.raises(ValueError):
            ExactPairChain(n=10, ell=0)
        with pytest.raises(ValueError):
            ExactPairChain(n=100, ell=2)  # too large for the dense solver

    def test_state_indexing_roundtrip(self):
        chain = ExactPairChain(n=7, ell=3)
        for i in range(1, 8):
            for j in range(1, 8):
                s = chain.state_index(i, j)
                assert chain.state_of(s) == (i, j)

    def test_transition_matrix_stochastic(self):
        chain = ExactPairChain(n=8, ell=3)
        matrix = chain.transition_matrix()
        assert matrix.shape == (64, 64)
        assert matrix.sum(axis=1) == pytest.approx(np.ones(64))

    def test_absorbing_state(self):
        chain = ExactPairChain(n=8, ell=3)
        assert chain.is_absorbing()
        matrix = chain.transition_matrix()
        row = matrix[chain.absorbing_index]
        assert row[chain.absorbing_index] == pytest.approx(1.0)

    def test_pair_structure(self):
        """From (i, j) the chain only reaches states of the form (j, k)."""
        chain = ExactPairChain(n=6, ell=3)
        matrix = chain.transition_matrix()
        for i in range(1, 7):
            for j in range(1, 7):
                row = matrix[chain.state_index(i, j)]
                for s in np.nonzero(row)[0]:
                    assert chain.state_of(int(s))[0] == j

    def test_absorption_times_positive(self):
        chain = ExactPairChain(n=8, ell=3)
        times = chain.expected_absorption_times()
        assert times[chain.absorbing_index] == 0.0
        transient = np.delete(times, chain.absorbing_index)
        assert (transient > 0).all()

    def test_near_absorbing_states_are_fast(self):
        chain = ExactPairChain(n=10, ell=4)
        near = chain.expected_time_from(9, 10)  # strong upward trend
        far = chain.expected_time_from(1, 1)
        assert near < far


class TestChainMatchesSimulation:
    @pytest.mark.parametrize("engine", ["batched", "counts"])
    @pytest.mark.parametrize("n,ell", [(8, 3), (10, 4), (12, 4)])
    def test_expected_time_matches_simulated_mean(self, n, ell, engine):
        """Ground truth: the engines reproduce the exact chain's E[T].

        The two-round start ``(x_prev, x_now) = (1/n, 0)`` is the pair state
        (1, 1): all wrong, counters as if only the source held 1 last round.
        The pair chain reaches (n, n) one round after ``t_con``, so the
        absorption step count ``t_con + 1`` has mean ``h(1, 1)`` itself.
        """
        h = ExactPairChain(n=n, ell=ell).expected_time_from_all_wrong()
        trials = 4000
        stats = RunSpec(
            protocol={"name": "fet", "ell": ell},
            n=n,
            initializer={"name": "two-round", "x_prev": 1 / n, "x_now": 0.0},
            trials=trials,
            max_rounds=5000,
            seed=2024,
            engine=engine,
        ).execute()
        assert stats.engine == engine
        assert stats.successes == trials
        steps = stats.times + 1
        standard_error = steps.std(ddof=1) / np.sqrt(trials)
        assert abs(steps.mean() - h) <= 4 * standard_error
