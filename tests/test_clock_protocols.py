"""Tests for the oracle-clock and clock-sync protocols."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import step_row
from reference.clock_sync import clock_sync_step
from repro.core.batch import BatchedPopulation
from repro.core.engine import run_protocol
from repro.core.noise import BatchedNoisyCountSampler
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import BatchedBinomialSampler
from repro.initializers.standard import AllWrong, BernoulliRandom
from repro.protocols.clock_sync import ClockSyncProtocol
from repro.protocols.fet import ell_for
from repro.protocols.oracle_clock import OracleClockProtocol


class TestOracleClockConstruction:
    def test_period_is_four_log(self):
        proto = OracleClockProtocol(1024)
        assert proto.subphase_len == 2 * 10
        assert proto.period == 4 * 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            OracleClockProtocol(1)
        with pytest.raises(ValueError):
            OracleClockProtocol(100, ell=0)

    def test_is_passive(self):
        assert OracleClockProtocol(100).passive is True

    def test_memory_is_clock_width(self):
        proto = OracleClockProtocol(1024)
        assert proto.memory_bits() == pytest.approx(math.log2(proto.period))


class TestOracleClockBehaviour:
    @pytest.mark.parametrize("correct", [0, 1])
    def test_converges_fast(self, correct):
        n = 2000
        proto = OracleClockProtocol(n, ell=1)
        pop = make_population(n, correct)
        rng = make_rng(correct)
        result = run_protocol(proto, pop, 10 * proto.period, rng=rng, initializer=AllWrong())
        assert result.converged
        # Two phases always suffice from a clean clock.
        assert result.rounds <= 2 * proto.period

    def test_random_clock_offset_tolerated(self):
        n = 1000
        proto = OracleClockProtocol(n, ell=1)
        pop = make_population(n, 1)
        rng = make_rng(9)
        state = {"clock": np.array([proto.period // 2 + 3])}
        result = run_protocol(proto, pop, 10 * proto.period, rng=rng, state=state)
        assert result.converged

    def test_clock_advances(self):
        proto = OracleClockProtocol(64, ell=1)
        pop = make_population(16, 1)
        rng = make_rng(0)
        state = proto.init_state(16, rng)
        step_row(proto, pop, state, BatchedBinomialSampler(), rng)
        step_row(proto, pop, state, BatchedBinomialSampler(), rng)
        assert int(state["clock"][0]) == 2


class TestClockSync:
    def test_not_passive(self):
        assert ClockSyncProtocol(100, 8).passive is False

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ClockSyncProtocol(1, 8)
        with pytest.raises(ValueError):
            ClockSyncProtocol(100, 0)

    def test_randomize_state_spreads_clocks(self):
        proto = ClockSyncProtocol(256, 8)
        state = proto.randomize_state_batch(1, 2000, make_rng(0))
        assert len(np.unique(state["clock"])) > proto.period // 2

    def test_clock_agreement_diagnostic(self):
        proto = ClockSyncProtocol(256, 8)
        state = {"clock": np.zeros(100, dtype=np.int64)}
        assert proto.clock_agreement(state) == 1.0
        state["clock"][:50] = 1
        assert proto.clock_agreement(state) == 0.5

    def test_clocks_synchronize_from_adversarial_start(self):
        n = 1000
        proto = ClockSyncProtocol(n, ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(3)
        state = {"clock": proto.randomize_state_batch(1, n, rng)["clock"][0]}
        sampler = BatchedBinomialSampler()
        for _ in range(5 * proto.period):
            new = step_row(proto, pop, state, sampler, rng)
            pop.set_opinions(new)
        assert proto.clock_agreement(state) > 0.99

    def test_converges_from_adversarial_start(self):
        n = 1000
        proto = ClockSyncProtocol(n, ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(4)
        # BernoulliRandom randomizes the clocks along with the opinions.
        result = run_protocol(
            proto, pop, 40 * proto.period, rng=rng, initializer=BernoulliRandom(0.5)
        )
        assert result.converged


class TestClockSyncBatched:
    """Vectorized step_batch: identical streams at R=1, statistical
    equivalence at R>1, and chunking invariance."""

    def test_identical_stream_matches_scalar_step(self):
        # With one replica the batched draws consume the stream exactly as
        # the per-agent reference does, so both must agree bitwise, round by
        # round — clocks and opinions alike.
        n = 96
        proto = ClockSyncProtocol(n, 5)
        pop = make_population(n, 1)
        rng_scalar, rng_batch = make_rng(7), make_rng(7)
        batch_state = proto.randomize_state_batch(1, n, make_rng(3))
        state = {"clock": batch_state["clock"][0].copy()}
        batch = BatchedPopulation.from_population(pop, 1)
        for round_index in range(3 * proto.period):
            new_scalar = clock_sync_step(proto, pop.opinions, state, 0.0, rng_scalar)
            new_batched = proto.step_batch(batch, batch_state, None, rng_batch)
            assert np.array_equal(new_scalar, new_batched[0]), round_index
            assert np.array_equal(state["clock"], batch_state["clock"][0]), round_index
            pop.set_opinions(new_scalar)
            batch.set_opinions(new_batched)

    def test_batched_state_shapes(self):
        proto = ClockSyncProtocol(128, 6)
        rng = make_rng(0)
        clean = proto.init_state_batch(5, 40, rng)
        assert clean["clock"].shape == (5, 40)
        assert (clean["clock"] == 0).all()
        adversarial = proto.randomize_state_batch(8, 500, rng)
        assert adversarial["clock"].shape == (8, 500)
        assert adversarial["clock"].min() >= 0
        assert adversarial["clock"].max() < proto.period
        assert len(np.unique(adversarial["clock"])) > proto.period // 2

    def test_clock_agreement_accepts_batched_state(self):
        proto = ClockSyncProtocol(256, 8)
        aligned = {"clock": np.zeros((3, 50), dtype=np.int64)}
        assert proto.clock_agreement(aligned) == 1.0
        mixed = {"clock": np.zeros((2, 50), dtype=np.int64)}
        mixed["clock"][0, :25] = 1
        assert proto.clock_agreement(mixed) == pytest.approx(0.75)

    def test_batched_clocks_synchronize_from_adversarial_start(self):
        n, replicas = 400, 6
        proto = ClockSyncProtocol(n, ell_for(n))
        batch = BatchedPopulation.from_population(make_population(n, 1), replicas)
        rng = make_rng(11)
        states = proto.randomize_state_batch(replicas, n, rng)
        sampler = BatchedBinomialSampler()
        for _ in range(5 * proto.period):
            batch.set_opinions(proto.step_batch(batch, states, sampler, rng))
        assert proto.clock_agreement(states) > 0.99

    def test_chunked_run_still_converges(self, monkeypatch):
        import repro.protocols.clock_sync as clock_sync_module
        from repro.experiments.harness import run_trials
        from repro.initializers.standard import AllWrong

        monkeypatch.setattr(clock_sync_module, "_CHUNK_ELEMENT_BUDGET", 1500)
        stats = run_trials(
            lambda: ClockSyncProtocol(128, 8), 128, AllWrong(),
            trials=6, max_rounds=600, seed=2, engine="batched",
        )
        assert stats.engine == "batched"
        assert stats.successes == 6

    def test_success_rates_agree_across_seeds(self):
        # The tentpole acceptance: batched and sequential success rates agree
        # within sampling error, checked over several independent seeds.
        from repro.experiments.harness import run_trials
        from repro.initializers.standard import BernoulliRandom
        from repro.stats.summary import wilson_interval

        n = 200
        kwargs = dict(trials=40, max_rounds=30 * ClockSyncProtocol(n, 8).period)
        for seed in (0, 1, 2):
            seq = run_trials(
                lambda: ClockSyncProtocol(n, ell_for(n)), n, BernoulliRandom(0.5),
                seed=seed, engine="sequential", **kwargs,
            )
            bat = run_trials(
                lambda: ClockSyncProtocol(n, ell_for(n)), n, BernoulliRandom(0.5),
                seed=seed, engine="batched", **kwargs,
            )
            assert bat.engine == "batched"
            lo_s, hi_s = wilson_interval(seq.successes, seq.trials)
            lo_b, hi_b = wilson_interval(bat.successes, bat.trials)
            assert max(lo_s, lo_b) <= min(hi_s, hi_b), (seed, seq.successes, bat.successes)


class TestClockSyncObservationNoise:
    """Clock-sync reads opinions directly, so it must apply the noisy
    sampler's per-bit flip model itself — on both engines."""

    def test_single_population_step_consumes_sampler_epsilon(self):
        n = 400
        proto = ClockSyncProtocol(n, 8)
        pop = make_population(n, 1)
        pop.adversarial_opinions(np.ones(n, dtype=np.uint8))
        state = proto.init_state(n, make_rng(0))  # clock 0: zero-subphase
        new = step_row(proto, pop, state, BatchedNoisyCountSampler(0.5), make_rng(1))
        # At the all-ones consensus with eps=1/2 every agent sees a flipped
        # bit w.p. 1 - 2^-8 and the zero-subphase rule adopts 0; noiseless,
        # nobody would move.
        assert (new == 0).mean() > 0.9
        clean = step_row(proto, pop, state, BatchedNoisyCountSampler(0.0), make_rng(2))
        assert (clean == 1).all()

    def test_batched_step_consumes_sampler_epsilon(self):
        n, replicas = 400, 3
        proto = ClockSyncProtocol(n, 8)
        pop = make_population(n, 1)
        pop.adversarial_opinions(np.ones(n, dtype=np.uint8))
        batch = BatchedPopulation.from_population(pop, replicas)
        states = proto.init_state_batch(replicas, n, make_rng(0))
        new = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.5), make_rng(1))
        assert (new == 0).mean() > 0.9
        states = proto.init_state_batch(replicas, n, make_rng(0))
        clean = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.0), make_rng(2))
        assert (clean == 1).all()

    def test_noisy_identical_stream_scalar_vs_batched(self):
        # The R=1 bitwise equivalence must survive the extra noise draws.
        n = 96
        proto = ClockSyncProtocol(n, 5)
        pop = make_population(n, 1)
        rng_scalar, rng_batch = make_rng(7), make_rng(7)
        batch_state = proto.randomize_state_batch(1, n, make_rng(3))
        state = {"clock": batch_state["clock"][0].copy()}
        batch = BatchedPopulation.from_population(pop, 1)
        for _ in range(20):
            new_scalar = clock_sync_step(proto, pop.opinions, state, 0.1, rng_scalar)
            new_batched = proto.step_batch(
                batch, batch_state, BatchedNoisyCountSampler(0.1), rng_batch
            )
            assert np.array_equal(new_scalar, new_batched[0])
            pop.set_opinions(new_scalar)
            batch.set_opinions(new_batched)
