"""Tests for the observation-noise extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SynchronousEngine
from repro.core.batch import BatchedPopulation
from repro.core.noise import BatchedNoisyCountSampler, noisy_fraction
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.experiments.robustness import sweep_noise
from repro.initializers.standard import AllWrong
from repro.protocols.clock_sync import ClockSyncProtocol
from repro.protocols.fet import FETProtocol, ell_for


class TestNoisyFraction:
    def test_zero_noise_identity(self):
        assert noisy_fraction(0.3, 0.0) == 0.3

    def test_max_noise_flattens(self):
        assert noisy_fraction(0.0, 0.5) == pytest.approx(0.5)
        assert noisy_fraction(1.0, 0.5) == pytest.approx(0.5)

    def test_symmetric(self):
        eps = 0.1
        assert noisy_fraction(0.3, eps) + noisy_fraction(0.7, eps) == pytest.approx(1.0)

    def test_pulls_toward_half(self):
        assert 0.2 < noisy_fraction(0.2, 0.1) < 0.5
        assert 0.5 < noisy_fraction(0.8, 0.1) < 0.8

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            noisy_fraction(0.5, 0.6)


class TestNoisyCountSampler:
    """``BatchedNoisyCountSampler`` on one-row batches."""

    def test_zero_eps_matches_clean_distribution(self):
        pop = make_population(4000, 1)
        opinions = np.zeros(4000, dtype=np.uint8)
        opinions[:1200] = 1
        pop.adversarial_opinions(opinions)
        batch = BatchedPopulation.from_population(pop, 1)
        counts = BatchedNoisyCountSampler(0.0).counts(batch, 20, make_rng(0))
        assert counts.mean() / 20 == pytest.approx(pop.fraction_ones(), abs=0.02)

    def test_noise_biases_toward_half(self):
        # x ~ 1/4000: nearly all zeros
        batch = BatchedPopulation.from_population(make_population(4000, 1), 1)
        counts = BatchedNoisyCountSampler(0.2).counts(batch, 20, make_rng(1))
        assert counts.mean() / 20 == pytest.approx(0.2, abs=0.02)

    def test_blocks_shape(self):
        batch = BatchedPopulation.from_population(make_population(100, 1), 1)
        blocks = BatchedNoisyCountSampler(0.1).count_blocks(batch, 8, 2, make_rng(2))
        assert blocks.shape == (2, 1, 100)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            BatchedNoisyCountSampler(0.7)
        batch = BatchedPopulation.from_population(make_population(10, 1), 1)
        with pytest.raises(ValueError):
            BatchedNoisyCountSampler(0.1).counts(batch, -1, make_rng(0))


class TestNoisyFET:
    def test_consensus_not_absorbing_under_noise(self):
        """With ℓ·ε ≳ 1, consensus breaks into sustained oscillation.

        FET amplifies the spurious trends that noisy counters create at
        consensus — the reach-vs-retain split documented in E-noise.
        """
        n = 1000
        proto = FETProtocol(30)
        pop = make_population(n, 1)
        pop.set_opinions(np.ones(n, dtype=np.uint8))
        state = {"prev_count": np.full(n, 30, dtype=np.int64)}
        engine = SynchronousEngine(
            proto, pop, sampler=BatchedNoisyCountSampler(0.2), rng=make_rng(3), state=state
        )
        fractions = []
        for _ in range(50):
            engine.step()
            fractions.append(pop.fraction_ones())
        assert min(fractions) < 0.5  # consensus collapsed at least once
        assert max(fractions) > 0.9  # ... and was re-approached: oscillation

    def test_consensus_is_a_knife_edge(self):
        """Even ε = 1e-5 eventually topples consensus: a single noisy
        observation reads as a downward trend, and the trend rule amplifies
        it into a cascade. FET's absorbing state has no restoring margin —
        only *exact* unanimity ties every comparison."""
        n = 1000
        ell = 30
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        pop.set_opinions(np.ones(n, dtype=np.uint8))
        state = {"prev_count": np.full(n, ell, dtype=np.int64)}
        engine = SynchronousEngine(
            proto, pop, sampler=BatchedNoisyCountSampler(1e-5), rng=make_rng(4), state=state
        )
        fractions = []
        for _ in range(50):
            engine.step()
            fractions.append(pop.nonsource_correct_fraction())
        assert min(fractions) < 0.9  # collapsed at least once
        assert max(fractions) > 0.95  # and recovered: oscillation, not death

    def test_theta_reached_despite_noise(self):
        """Noise does not stop FET from *reaching* near-consensus quickly."""
        n = 1500
        rows = sweep_noise(
            n,
            ell_for(n),
            [0.0, 0.05],
            trials=4,
            max_rounds=5000,
            seed=0,
        )
        for row in rows:
            assert row.reached_theta == row.trials
        # Noiseless settles at exactly 1; real noise cannot hold the level.
        assert rows[0].mean_settle_level == pytest.approx(1.0, abs=1e-6)
        assert rows[1].mean_settle_level < 1.0


class TestNoisyClockSync:
    def test_synchronous_engine_passes_noise_to_clock_sync(self):
        """Regression: the noise level must reach clock-sync through the
        sampler ``SynchronousEngine`` hands to its step. At ε = 1/2 every
        bit it reads is a fair coin, so an all-correct start cannot hold;
        at ε = 0 it is absorbing."""
        n = 256
        levels = {}
        for eps in (0.0, 0.5):
            proto = ClockSyncProtocol(n, 16)
            pop = make_population(n, 1)
            pop.set_opinions(np.ones(n, dtype=np.uint8))
            engine = SynchronousEngine(
                proto, pop, sampler=BatchedNoisyCountSampler(eps), rng=make_rng(5)
            )
            fractions = []
            for _ in range(2 * proto.period):
                engine.step()
                fractions.append(pop.fraction_ones())
            levels[eps] = min(fractions)
        assert levels[0.0] == 1.0
        assert levels[0.5] < 0.5


class TestNoiseBaselineRows:
    def test_sweep_noise_protocol_axis(self):
        """Baseline rows share the noise grid and run batched by default."""
        n = 128
        rows = sweep_noise(
            n,
            8,
            [0.0],
            trials=3,
            max_rounds=800,
            seed=5,
            theta=0.9,
            settle_window=4,
            protocols=[{"name": "fet", "ell": 8}, {"name": "clock-sync", "ell": 8}],
        )
        assert len(rows) == 2
        names = [row.protocol for row in rows]
        assert names[0].startswith("fet")
        assert names[1].startswith("clock-sync")
        for row in rows:
            assert row.reached_theta == row.trials

    @pytest.mark.parametrize("engine", ["auto", "sequential"])
    def test_clock_sync_rows_are_not_noise_inert(self, engine):
        """Regression: clock-sync ignores the count samplers, so its noise
        rows used to simulate eps=0 silently; it now applies the per-bit
        flip model to the opinion bits it reads. The settle window must span
        a zero-subphase (> subphase_len) for the damage to be visible, on
        every engine."""
        rows = sweep_noise(
            256, 8, [0.0, 0.05],
            trials=3, max_rounds=1500, seed=2, theta=0.9, settle_window=40,
            protocols=[{"name": "clock-sync", "ell": 16}], engine=engine,
        )
        clean, noisy = rows
        assert clean.epsilon == 0.0 and noisy.epsilon == 0.05
        assert clean.mean_settle_level > 0.99
        assert noisy.mean_settle_level < 0.9
