"""Tests for the oracle-clock and clock-sync protocols."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import step_row, tiled
from reference.clock_sync import clock_sync_step
from repro.config import RunSpec
from repro.core.engine import SynchronousEngine
from repro.core.noise import BatchedNoisyCountSampler
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import BatchedBinomialSampler
from repro.initializers.standard import AllWrong, BernoulliRandom
from repro.protocols.clock_sync import ClockSyncProtocol
from repro.protocols.fet import ell_for
from repro.protocols.oracle_clock import OracleClockProtocol

DATA = Path(__file__).parent / "data"


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
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=AllWrong()
        ).run(10 * proto.period)
        assert result.converged
        # Two phases always suffice from a clean clock.
        assert result.rounds <= 2 * proto.period

    def test_random_clock_offset_tolerated(self):
        n = 1000
        proto = OracleClockProtocol(n, ell=1)
        pop = make_population(n, 1)
        rng = make_rng(9)
        state = {"clock": np.array([[proto.period // 2 + 3]])}
        result = SynchronousEngine(proto, pop, rng=rng, state=state).run(10 * proto.period)
        assert result.converged

    def test_clock_advances(self):
        proto = OracleClockProtocol(64, ell=1)
        pop = make_population(16, 1)
        rng = make_rng(0)
        states = proto.init_state_batch(1, 16, rng)
        proto.step_batch(pop, states, BatchedBinomialSampler(), rng)
        proto.step_batch(pop, states, BatchedBinomialSampler(), rng)
        assert int(states["clock"][0, 0]) == 2


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
            pop.set_opinions(new[None])
        assert proto.clock_agreement(state) > 0.99

    def test_converges_from_adversarial_start(self):
        n = 1000
        proto = ClockSyncProtocol(n, ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(4)
        # BernoulliRandom randomizes the clocks along with the opinions.
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=BernoulliRandom(0.5)
        ).run(40 * proto.period)
        assert result.converged


class TestClockSyncBatched:
    """Vectorized step_batch: identical streams at R=1 until the clocks
    synchronize, the synchronized tier's exact one-step law, chunking
    invariance, and the run-level law against the literal rule."""

    def test_identical_stream_matches_scalar_step(self):
        # With one replica the plurality tier consumes the stream exactly as
        # the per-agent reference does, so both agree bitwise, round by
        # round, until the clocks synchronize and the closed-form tier takes
        # over with a different draw.
        rounds = _compare_with_reference_until_synced(epsilon=0.0)
        assert rounds >= 5

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("clock", ["zero-subphase", "one-subphase", "wrap"])
    def test_synchronized_tier_matches_reference_law(self, clock, epsilon):
        # From synchronized clocks every clock moves forward by one and every
        # agent holding the other opinion adopts the subphase's bit
        # independently with probability 1 - x̃^ell (zero subphase) or
        # 1 - (1-x̃)^ell (one subphase): the per-row adopter counts are
        # Binomial(m, ·) on both the tier and the literal per-agent rule.
        n, replicas, x = 200, 400, 0.7
        proto = ClockSyncProtocol(n, 3)
        c = {"zero-subphase": 0, "one-subphase": proto.subphase_len - 1,
             "wrap": proto.period - 1}[clock]
        next_clock = (c + 1) % proto.period
        adopt = 0 if next_clock < proto.subphase_len else 1
        # Identical rows with round(x·n) ones (sources included), clocks at c.
        opinions = np.zeros(n, dtype=np.uint8)
        opinions[: round(x * n)] = 1
        batch = tiled(make_population(n, 1), replicas)
        batch.adversarial_opinions(np.tile(opinions, (replicas, 1)))
        states = {"clock": np.full((replicas, n), c, dtype=np.int64)}
        others = opinions != adopt
        m = int(others.sum())
        sampler = BatchedNoisyCountSampler(epsilon)
        tier = proto.step_batch(batch, states, sampler, make_rng(5))
        assert (states["clock"] == next_clock).all()
        tier_adopters = (tier[:, others] == adopt).sum(axis=1)

        rng = make_rng(6)
        reference_adopters = np.empty(replicas, dtype=np.int64)
        for r in range(replicas):
            state = {"clock": np.full(n, c, dtype=np.int64)}
            new = clock_sync_step(proto, opinions, state, epsilon, rng)
            assert (state["clock"] == next_clock).all()
            reference_adopters[r] = int((new[others] == adopt).sum())
        assert scipy_stats.ks_2samp(
            tier_adopters, reference_adopters, method="asymp"
        ).pvalue > 1e-3

        x_tilde = x * (1 - epsilon) + (1 - x) * epsilon
        p_adopt = 1 - (x_tilde if adopt == 0 else 1 - x_tilde) ** proto.ell
        for adopters in (tier_adopters, reference_adopters):
            total = int(adopters.sum())
            assert scipy_stats.binomtest(total, m * replicas, p_adopt).pvalue > 1e-3

    def test_mixed_batch_unsynced_rows_match_a_batch_of_them_alone(self, monkeypatch):
        # Synced and unsynced rows interleaved, one replica per chunk: the
        # plurality tier draws before the closed-form tier, so the unsynced
        # rows consume the stream exactly as a batch of those rows alone.
        import repro.protocols.clock_sync as clock_sync_module

        monkeypatch.setattr(clock_sync_module, "_CHUNK_ELEMENT_BUDGET", 1500)
        n, replicas = 60, 6
        proto = ClockSyncProtocol(n, 5)
        opinions = (make_rng(1).random((replicas, n)) < 0.5).astype(np.uint8)
        clocks = proto.randomize_state_batch(replicas, n, make_rng(2))["clock"]
        clocks[1::2] = np.arange(replicas // 2)[:, None] * 3
        lagging = np.arange(0, replicas, 2)

        mixed = tiled(make_population(n, 1), replicas)
        mixed.adversarial_opinions(opinions, pin_sources=False)
        mixed_states = {"clock": clocks.copy()}
        mixed_new = proto.step_batch(
            mixed, mixed_states, BatchedNoisyCountSampler(0.1), make_rng(9)
        )

        alone = tiled(make_population(n, 1), lagging.size)
        alone.adversarial_opinions(opinions[lagging], pin_sources=False)
        alone_states = {"clock": clocks[lagging].copy()}
        alone_new = proto.step_batch(
            alone, alone_states, BatchedNoisyCountSampler(0.1), make_rng(9)
        )
        assert np.array_equal(mixed_new[lagging], alone_new)
        assert np.array_equal(mixed_states["clock"][lagging], alone_states["clock"])
        assert (mixed_states["clock"][1::2] == clocks[1::2] + 1).all()

    def test_default_chunking_matches_reference_replica_by_replica(self):
        # The paper-auto baseline's shape (n = 2048, ell = 61) packs two
        # replicas per chunk at the default element budget; five
        # unsynchronized rows among synced ones make chunks of 2, 2 and 1.
        import repro.protocols.clock_sync as clock_sync_module

        proto, batch, states, lagging = _default_chunking_batch()
        n, ell = batch.n, proto.ell
        per_replica = n * max(ell, 2 * proto.period)
        assert clock_sync_module._CHUNK_ELEMENT_BUDGET // per_replica == 2
        # On a power-of-two n one (2, n, ell) identity draw is two (1, n, ell)
        # draws, so a chunk consumes the stream as its replicas one by one.
        joint, split = make_rng(4), make_rng(4)
        assert np.array_equal(
            joint.integers(0, n, size=(2, n, ell), dtype=np.int32),
            np.concatenate(
                [split.integers(0, n, size=(1, n, ell), dtype=np.int32) for _ in range(2)]
            ),
        )
        opinions, clocks = batch.opinions.copy(), states["clock"].copy()
        new = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.0), make_rng(8))
        rng = make_rng(8)
        for r in lagging:
            state = {"clock": clocks[r].copy()}
            expected = clock_sync_step(proto, opinions[r], state, 0.0, rng)
            assert np.array_equal(new[r], expected), r
            assert np.array_equal(states["clock"][r], state["clock"]), r
        synced = np.setdiff1d(np.arange(batch.replicas), lagging)
        assert (states["clock"][synced] == (clocks[synced] + 1) % proto.period).all()

    def test_default_chunking_noisy_step_matches_recording(self):
        # With noise a chunk draws its identities for all its replicas before
        # their noise bits, so the reference's per-replica order no longer
        # applies; the whole mixed batch is held to its recorded output.
        proto, batch, states, _ = _default_chunking_batch()
        new = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.1), make_rng(8))
        with np.load(DATA / "clock_sync_default_chunking_eps0.1.npz") as recorded:
            assert np.array_equal(new, recorded["opinions"])
            assert np.array_equal(states["clock"], recorded["clocks"])

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
        batch = tiled(make_population(n, 1), replicas)
        rng = make_rng(11)
        states = proto.randomize_state_batch(replicas, n, rng)
        sampler = BatchedBinomialSampler()
        for _ in range(5 * proto.period):
            batch.set_opinions(proto.step_batch(batch, states, sampler, rng))
        assert proto.clock_agreement(states) > 0.99

    def test_chunked_run_still_converges(self, monkeypatch):
        import repro.protocols.clock_sync as clock_sync_module

        monkeypatch.setattr(clock_sync_module, "_CHUNK_ELEMENT_BUDGET", 1500)
        stats = RunSpec(
            protocol={"name": "clock-sync", "ell": 8},
            n=128,
            trials=6,
            max_rounds=600,
            seed=2,
            engine="batched",
        ).execute()
        assert stats.engine == "batched"
        assert stats.successes == 6

    def test_success_rates_agree_across_seeds(self):
        # Ground truth: the batched engine against independent trials of the
        # literal per-agent rule, over several seeds — success counts by
        # Fisher's test, t_con by KS.
        n = 200
        max_rounds = 30 * ClockSyncProtocol(n, 8).period
        for seed in (0, 1, 2):
            bat = RunSpec(
                protocol={"name": "clock-sync", "ell": ell_for(n)},
                n=n,
                initializer={"name": "bernoulli", "p": 0.5},
                trials=40,
                max_rounds=max_rounds,
                seed=seed,
                engine="batched",
            ).execute()
            assert bat.engine == "batched"
            outcomes = [
                _reference_trial(n, np.random.default_rng([seed, trial]), max_rounds)
                for trial in range(40)
            ]
            ref_times = [t_con for converged, t_con in outcomes if converged]
            table = [
                [len(ref_times), 40 - len(ref_times)],
                [bat.successes, bat.trials - bat.successes],
            ]
            assert scipy_stats.fisher_exact(table).pvalue > 1e-3, (seed, table)
            assert min(len(ref_times), bat.successes) >= 30, (seed, table)
            assert scipy_stats.ks_2samp(ref_times, bat.times, method="asymp").pvalue > 1e-3


class TestClockSyncObservationNoise:
    """Clock-sync reads opinions directly, so it must apply the noisy
    sampler's per-bit flip model itself — on both engines."""

    def test_single_population_step_consumes_sampler_epsilon(self):
        n = 400
        proto = ClockSyncProtocol(n, 8)
        pop = make_population(n, 1)
        pop.adversarial_opinions(np.ones((1, n), dtype=np.uint8))
        state = {"clock": np.zeros(n, dtype=np.int64)}  # clock 0: zero-subphase
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
        pop.adversarial_opinions(np.ones((1, n), dtype=np.uint8))
        batch = tiled(pop, replicas)
        states = proto.init_state_batch(replicas, n, make_rng(0))
        new = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.5), make_rng(1))
        assert (new == 0).mean() > 0.9
        states = proto.init_state_batch(replicas, n, make_rng(0))
        clean = proto.step_batch(batch, states, BatchedNoisyCountSampler(0.0), make_rng(2))
        assert (clean == 1).all()

    def test_noisy_identical_stream_scalar_vs_batched(self):
        # The R=1 bitwise equivalence up to synchronization must survive the
        # extra noise draws.
        rounds = _compare_with_reference_until_synced(epsilon=0.1)
        assert rounds >= 5


def _default_chunking_batch():
    """Seven n = 2048 replicas, ell = 61: synced clocks in rows 1 and 4,
    adversarial clocks elsewhere, random opinions. Returns ``(protocol,
    batch, states, lagging rows)``."""
    n, replicas = 2048, 7
    proto = ClockSyncProtocol(n, ell_for(n))
    opinions = (make_rng(1).random((replicas, n)) < 0.5).astype(np.uint8)
    clocks = proto.randomize_state_batch(replicas, n, make_rng(2))["clock"]
    clocks[1], clocks[4] = 3, proto.period - 1
    batch = tiled(make_population(n, 1), replicas)
    batch.adversarial_opinions(opinions, pin_sources=False)
    return proto, batch, {"clock": clocks}, np.array([0, 2, 3, 5, 6])


def _compare_with_reference_until_synced(epsilon: float) -> int:
    """Step one replica through ``step_batch`` and the per-agent reference
    on identical streams from adversarial clocks, asserting bitwise equal
    clocks and opinions every round until the clocks all agree; return the
    number of rounds compared. Fails if the clocks never synchronize."""
    n = 96
    proto = ClockSyncProtocol(n, 5)
    pop = make_population(n, 1)
    rng_scalar, rng_batch = make_rng(7), make_rng(7)
    batch_state = proto.randomize_state_batch(1, n, make_rng(3))
    state = {"clock": batch_state["clock"][0].copy()}
    batch = tiled(pop, 1)
    sampler = BatchedNoisyCountSampler(epsilon)
    for round_index in range(3 * proto.period):
        if (state["clock"] == state["clock"][0]).all():
            return round_index
        new_scalar = clock_sync_step(proto, pop.opinions[0], state, epsilon, rng_scalar)
        new_batched = proto.step_batch(batch, batch_state, sampler, rng_batch)
        assert np.array_equal(new_scalar, new_batched[0]), round_index
        assert np.array_equal(state["clock"], batch_state["clock"][0]), round_index
        pop.set_opinions(new_scalar[None])
        batch.set_opinions(new_batched)
    raise AssertionError(f"clocks did not synchronize in {3 * proto.period} rounds")


def _reference_trial(n, rng, max_rounds, stability_rounds=2):
    """One ``BernoulliRandom(0.5)`` trial of the literal per-agent rule
    under the lock-step run contract: ``(converged, t_con)``, where
    ``t_con`` is the first round of the final correct-consensus streak of
    ``stability_rounds`` rounds."""
    proto = ClockSyncProtocol(n, ell_for(n))
    pop = make_population(n, 1)
    pop.adversarial_opinions((rng.random(n) < 0.5).astype(np.uint8)[None])
    state = {"clock": rng.integers(0, proto.period, size=n, dtype=np.int64)}
    streak = int(pop.at_correct_consensus()[0])
    for rounds_done in range(1, max_rounds + 1):
        pop.set_opinions(clock_sync_step(proto, pop.opinions[0], state, 0.0, rng)[None])
        streak = streak + 1 if pop.at_correct_consensus()[0] else 0
        if streak >= stability_rounds:
            return True, rounds_done + 1 - streak
    return False, max_rounds
