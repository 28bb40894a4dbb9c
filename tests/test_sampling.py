"""Tests for the PULL sampling substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchedPopulation
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import BatchedBinomialSampler, IndexSampler


def population_with_fraction(n: int, x: float, replicas: int = 1) -> BatchedPopulation:
    """``replicas`` rows of a population with one-fraction ``x`` (one row:
    the single-population case)."""
    pop = make_population(n, 1)
    opinions = np.zeros(n, dtype=np.uint8)
    opinions[: int(round(x * n))] = 1
    pop.adversarial_opinions(opinions)
    return BatchedPopulation.from_population(pop, replicas)


class TestBinomialCountSampler:
    """``BatchedBinomialSampler`` on one- and few-row batches."""

    def test_counts_shape(self):
        pop = population_with_fraction(100, 0.3, replicas=3)
        counts = BatchedBinomialSampler().counts(pop, 10, make_rng(0))
        assert counts.shape == (3, 100)

    def test_counts_range(self):
        pop = population_with_fraction(100, 0.3)
        counts = BatchedBinomialSampler().counts(pop, 10, make_rng(0))
        assert counts.min() >= 0 and counts.max() <= 10

    def test_zero_ell(self):
        pop = population_with_fraction(100, 0.3)
        counts = BatchedBinomialSampler().counts(pop, 0, make_rng(0))
        assert (counts == 0).all()

    def test_negative_ell_rejected(self):
        pop = population_with_fraction(10, 0.3)
        with pytest.raises(ValueError):
            BatchedBinomialSampler().counts(pop, -1, make_rng(0))

    def test_all_ones_population(self):
        pop = population_with_fraction(50, 1.0)
        counts = BatchedBinomialSampler().counts(pop, 7, make_rng(0))
        assert (counts == 7).all()

    def test_mean_matches_fraction(self):
        pop = population_with_fraction(4000, 0.4)
        counts = BatchedBinomialSampler().counts(pop, 20, make_rng(1))
        assert counts.mean() / 20 == pytest.approx(0.4, abs=0.02)

    def test_blocks_shape(self):
        pop = population_with_fraction(100, 0.3)
        blocks = BatchedBinomialSampler().count_blocks(pop, 10, 2, make_rng(0))
        assert blocks.shape == (2, 1, 100)

    def test_blocks_are_not_identical(self):
        pop = population_with_fraction(500, 0.5)
        blocks = BatchedBinomialSampler().count_blocks(pop, 10, 2, make_rng(0))
        assert not np.array_equal(blocks[0], blocks[1])

    def test_no_indices(self):
        # passive protocols never need identities; the fast path has none
        assert not hasattr(BatchedBinomialSampler(), "indices")


class TestIndexSampler:
    def test_indices_shape_and_range(self):
        pop = population_with_fraction(30, 0.5, replicas=2)
        idx = IndexSampler().indices(pop, 5, make_rng(0))
        assert idx.shape == (2, 30, 5)
        assert idx.min() >= 0 and idx.max() < 30

    def test_exclude_self(self):
        pop = population_with_fraction(20, 0.5, replicas=3)
        sampler = IndexSampler(exclude_self=True)
        for seed in range(5):
            idx = sampler.indices(pop, 8, make_rng(seed))
            own = np.arange(20)[None, :, None]
            assert (idx != own).all()

    def test_exclude_self_covers_all_others(self):
        pop = population_with_fraction(5, 0.5)
        idx = IndexSampler(exclude_self=True).indices(pop, 2000, make_rng(3))
        for agent in range(5):
            others = set(range(5)) - {agent}
            assert set(np.unique(idx[0, agent])) == others

    def test_counts_match_indices(self):
        pop = population_with_fraction(40, 0.25, replicas=2)
        pop.opinions[1] = 1 - pop.opinions[1]
        pop.pin_sources()
        idx = IndexSampler().indices(pop, 6, make_rng(2))
        counts = IndexSampler().counts(pop, 6, make_rng(2))
        assert counts.shape == (2, 40)
        # each row counts ones within its own replica
        for r in range(2):
            assert np.array_equal(counts[r], pop.opinions[r][idx[r]].sum(axis=1))

    def test_zero_ell_counts(self):
        pop = population_with_fraction(40, 0.25)
        counts = IndexSampler().counts(pop, 0, make_rng(2))
        assert counts.shape == (1, 40)
        assert (counts == 0).all()

    def test_negative_ell_rejected(self):
        pop = population_with_fraction(10, 0.3)
        with pytest.raises(ValueError):
            IndexSampler().indices(pop, -2, make_rng(0))


class TestDistributionalAgreement:
    """The fast sampler must match the literal sampler in distribution."""

    def test_count_means_agree(self):
        pop = population_with_fraction(2000, 0.3)
        ell = 15
        fast = BatchedBinomialSampler().counts(pop, ell, make_rng(10))
        literal = IndexSampler().counts(pop, ell, make_rng(11))
        # Means of 2000 Binomial(15, 0.3) draws: sd of mean ~ 0.04.
        assert fast.mean() == pytest.approx(literal.mean(), abs=0.25)

    def test_count_variances_agree(self):
        pop = population_with_fraction(2000, 0.3)
        ell = 15
        fast = BatchedBinomialSampler().counts(pop, ell, make_rng(12))
        literal = IndexSampler().counts(pop, ell, make_rng(13))
        assert fast.var() == pytest.approx(literal.var(), rel=0.2)

    def test_histograms_agree(self):
        pop = population_with_fraction(5000, 0.5)
        ell = 8
        fast = BatchedBinomialSampler().counts(pop, ell, make_rng(14)).ravel()
        literal = IndexSampler().counts(pop, ell, make_rng(15)).ravel()
        hist_fast = np.bincount(fast, minlength=ell + 1) / fast.size
        hist_lit = np.bincount(literal, minlength=ell + 1) / literal.size
        assert np.abs(hist_fast - hist_lit).max() < 0.03


class TestSparseDrawTier:
    """The geometric-gap generator must agree with the histogram tier (and
    the reference generator) in distribution across the extreme-x band."""

    def _draws(self, method, x_rows, ell=56, blocks=2, n=30000, seed=0):
        from repro.core.sampling import batched_binomial_counts

        return batched_binomial_counts(
            make_rng(seed), ell, np.asarray(x_rows, dtype=float), blocks, n, method
        )

    @pytest.mark.parametrize("x", [1 / 1000, 0.002, 0.0045, 1 - 1 / 1000, 1 - 0.0045])
    def test_matches_histogram_tier(self, x):
        from scipy import stats as scipy_stats

        ell = 56
        sparse = self._draws("sparse", [x], seed=1)[:, 0, :].ravel()
        hist = self._draws("histogram", [x], seed=2)[:, 0, :].ravel()
        assert sparse.min() >= 0 and sparse.max() <= ell
        assert scipy_stats.ks_2samp(sparse, hist).pvalue > 1e-4

    def test_moments_match_theory_deep_band(self):
        ell, n = 74, 200000
        for x in (1e-4, 5e-4, 1 - 1e-4):
            counts = self._draws("sparse", [x], ell=ell, blocks=1, n=n, seed=3)[0, 0]
            assert counts.mean() == pytest.approx(ell * x, rel=0.1, abs=5e-3)
            assert counts.var() == pytest.approx(ell * x * (1 - x), rel=0.15, abs=5e-3)

    def test_single_q_and_heterogeneous_paths_agree(self):
        from scipy import stats as scipy_stats

        # identical rows ride the concatenated-line path, distinct rows the
        # per-lane path; both must produce the same law for the same x
        x = 0.003
        single = self._draws("sparse", [x, x, x], seed=4)
        hetero = self._draws("sparse", [x, 0.001, 0.004], seed=5)
        assert (
            scipy_stats.ks_2samp(single[:, 0, :].ravel(), hetero[:, 0, :].ravel()).pvalue
            > 1e-4
        )

    def test_mirrored_rows_share_single_q_path(self):
        # x and 1-x have equal q; the mixed batch must mirror counts per row
        ell = 40
        out = self._draws("sparse", [0.002, 0.998], ell=ell, seed=6)
        low, high = out[:, 0, :], out[:, 1, :]
        assert low.mean() == pytest.approx(ell - high.mean(), abs=0.05)

    def test_consensus_rows_are_deterministic_fills(self):
        ell = 10
        out = self._draws("sparse", [0.0, 1.0], ell=ell, n=500, seed=7)
        assert (out[:, 0, :] == 0).all()
        assert (out[:, 1, :] == ell).all()

    def test_mid_range_forced_sparse_still_exact(self):
        from scipy import stats as scipy_stats

        # far outside the auto band the generator degrades to dense but must
        # stay exact — forcing guards against silent tier-boundary bugs
        sparse = self._draws("sparse", [0.5], ell=20, blocks=1, seed=8)[0, 0]
        ref = self._draws("binomial", [0.5], ell=20, blocks=1, seed=9)[0, 0]
        assert scipy_stats.ks_2samp(sparse, ref).pvalue > 1e-4

    def test_ell_one_and_tiny_n(self):
        out = self._draws("sparse", [0.01, 0.99], ell=1, n=7, seed=10)
        assert set(np.unique(out)) <= {0, 1}

    def test_auto_routes_sparse_band(self):
        from scipy import stats as scipy_stats

        # an auto call keyed on a deep-band fraction must match the reference
        auto = self._draws("auto", [0.001], seed=11)[:, 0, :].ravel()
        ref = self._draws("binomial", [0.001], seed=12)[:, 0, :].ravel()
        assert scipy_stats.ks_2samp(auto, ref).pvalue > 1e-4

    def test_sampler_accepts_sparse_method(self):
        from repro.core.sampling import BatchedBinomialSampler

        assert BatchedBinomialSampler("sparse").method == "sparse"
        with pytest.raises(ValueError):
            BatchedBinomialSampler("gaps")

    def test_denormal_x_terminates_and_returns_modal_fill(self):
        # Regression: x tiny enough that ln(U)/ln(1-q) overflows float64 used
        # to saturate the int64 cast negative and spin the placement loop
        # forever; the gap clamp keeps it finite. P(nonzero) ~ 1e-309 per
        # element, so the draw is the modal fill for any practical size.
        for xs in ([1e-310], [1e-310, 2e-310], [1 - 1e-16]):
            out = self._draws("sparse", xs, ell=10, blocks=1, n=200, seed=13)
            assert out.shape == (1, len(xs), 200)
