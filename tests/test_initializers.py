"""Tests for standard and adversarial initializers."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import tiled
from repro.config import RunSpec
from repro.core.engine import SynchronousEngine
from repro.core.population import make_majority_population, make_population
from repro.core.rng import make_rng
from repro.initializers.adversarial import (
    FrozenUnanimity,
    PoisonedCounters,
    TwoRoundTarget,
    ZeroSpeedCenter,
)
from repro.initializers.standard import (
    AllCorrect,
    AllWrong,
    BernoulliRandom,
    ExactFraction,
    RandomizeProtocolState,
)
from repro.protocols.fet import FETProtocol


def install(initializer, pop, proto, state, rng):
    """The single-population case: ``apply_batch`` on the one-row ``pop``
    and its stacked ``state``, in place."""
    SynchronousEngine(proto, pop, rng=rng, state=state, initializer=initializer)


def fresh(n=100, ell=10, correct=1):
    proto = FETProtocol(ell)
    pop = make_population(n, correct)
    rng = make_rng(0)
    state = proto.init_state_batch(1, n, rng)
    return proto, pop, state, rng


class TestAllWrong:
    def test_nonsources_wrong(self):
        proto, pop, state, rng = fresh()
        install(AllWrong(), pop, proto, state, rng)
        assert (pop.opinions[:, ~pop.source_mask] == 0).all()
        assert pop.opinions[:, pop.source_mask].tolist() == [[1]]

    def test_respects_correct_zero(self):
        proto, pop, state, rng = fresh(correct=0)
        install(AllWrong(), pop, proto, state, rng)
        assert (pop.opinions[:, ~pop.source_mask] == 1).all()

    def test_randomizes_internal_state(self):
        proto, pop, state, rng = fresh(ell=20)
        install(AllWrong(), pop, proto, state, rng)
        assert len(np.unique(state["prev_count"])) > 1


class TestAllCorrect:
    def test_everyone_correct(self):
        proto, pop, state, rng = fresh()
        install(AllCorrect(), pop, proto, state, rng)
        assert pop.at_correct_consensus()


class TestBernoulliRandom:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BernoulliRandom(1.5)

    def test_fraction_near_p(self):
        proto, pop, state, rng = fresh(n=4000)
        install(BernoulliRandom(0.3), pop, proto, state, rng)
        assert pop.fraction_ones() == pytest.approx(0.3, abs=0.05)

    def test_name_contains_p(self):
        assert "0.3" in BernoulliRandom(0.3).name


class TestExactFraction:
    def test_exact_count(self):
        proto, pop, state, rng = fresh(n=200)
        install(ExactFraction(0.35), pop, proto, state, rng)
        # Source pinning can add at most one extra 1.
        assert abs(pop.count_ones() - 70) <= 1

    def test_rejects_bad_x(self):
        with pytest.raises(ValueError):
            ExactFraction(-0.1)

    def test_zero_fraction(self):
        proto, pop, state, rng = fresh(n=100)
        install(ExactFraction(0.0), pop, proto, state, rng)
        assert pop.count_ones() == 1  # only the pinned source


class TestRandomizeProtocolState:
    def test_leaves_opinions(self):
        proto, pop, state, rng = fresh()
        before = pop.opinions.copy()
        install(RandomizeProtocolState(), pop, proto, state, rng)
        assert np.array_equal(before, pop.opinions)

    def test_randomizes_state(self):
        proto, pop, state, rng = fresh(ell=20)
        install(RandomizeProtocolState(), pop, proto, state, rng)
        assert len(np.unique(state["prev_count"])) > 1


class TestTwoRoundTarget:
    def test_sets_fraction(self):
        proto, pop, state, rng = fresh(n=1000)
        install(TwoRoundTarget(0.2, 0.6), pop, proto, state, rng)
        assert pop.fraction_ones() == pytest.approx(0.6, abs=0.01)

    def test_counters_reflect_x_prev(self):
        proto, pop, state, rng = fresh(n=5000, ell=40)
        install(TwoRoundTarget(0.2, 0.6), pop, proto, state, rng)
        assert state["prev_count"].mean() / 40 == pytest.approx(0.2, abs=0.03)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TwoRoundTarget(1.2, 0.5)
        with pytest.raises(ValueError):
            TwoRoundTarget(0.5, -0.5)


class TestZeroSpeedCenter:
    def test_center_configuration(self):
        proto, pop, state, rng = fresh(n=1000, ell=40)
        install(ZeroSpeedCenter(), pop, proto, state, rng)
        assert pop.fraction_ones() == pytest.approx(0.5, abs=0.01)
        assert state["prev_count"].mean() / 40 == pytest.approx(0.5, abs=0.05)

    def test_fet_still_converges(self):
        n = 1000
        proto = FETProtocol(56)
        pop = make_population(n, 1)
        rng = make_rng(17)
        result = SynchronousEngine(proto, pop, rng=rng, initializer=ZeroSpeedCenter()).run(5000)
        assert result.converged


class TestPoisonedCounters:
    def test_counters_saturated(self):
        proto, pop, state, rng = fresh(ell=10)
        install(PoisonedCounters(), pop, proto, state, rng)
        assert (state["prev_count"] == 10).all()
        assert (pop.opinions[:, ~pop.source_mask] == 0).all()

    def test_fet_recovers(self):
        n = 1000
        proto = FETProtocol(56)
        pop = make_population(n, 1)
        rng = make_rng(21)
        result = SynchronousEngine(proto, pop, rng=rng, initializer=PoisonedCounters()).run(3000)
        assert result.converged


class TestFrozenUnanimity:
    def test_rejects_pinned_population(self):
        proto, pop, state, rng = fresh()
        with pytest.raises(ValueError):
            install(FrozenUnanimity(), pop, proto, state, rng)

    def test_rejects_bad_opinion(self):
        with pytest.raises(ValueError):
            FrozenUnanimity(opinion=2)

    def test_installs_unanimity(self):
        pop = make_majority_population(40, k0=10, k1=5)
        proto = FETProtocol(8)
        rng = make_rng(0)
        state = proto.init_state_batch(1, 40, rng)
        install(FrozenUnanimity(opinion=1), pop, proto, state, rng)
        assert (pop.opinions == 1).all()
        assert (state["prev_count"] == 8).all()

    def test_freeze_is_permanent(self):
        """The impossibility witness: the configuration never moves."""
        pop = make_majority_population(60, k0=15, k1=5)  # majority prefers 0
        proto = FETProtocol(8)
        rng = make_rng(1)
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=FrozenUnanimity(opinion=1)
        ).run(500)
        assert not result.converged  # correct bit is 0, population frozen at 1
        assert (result.trajectory == 1.0).all()

    def test_zero_variant_freezes_too(self):
        pop = make_majority_population(60, k0=5, k1=15)  # majority prefers 1
        proto = FETProtocol(8)
        rng = make_rng(2)
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=FrozenUnanimity(opinion=0)
        ).run(300)
        assert not result.converged
        assert (result.trajectory == 0.0).all()


class TestAdversarialBatched:
    """Batched application of the crafted adversarial constructions."""

    def batch(self, n=60, replicas=8, ell=10):
        proto = FETProtocol(ell)
        rng = make_rng(0)
        batch = tiled(make_population(n, 1), replicas)
        states = proto.init_state_batch(replicas, n, rng)
        return proto, batch, states, rng

    def test_all_support_batch(self):
        # One implementation serves every batch size, the one-row
        # (single-population) case included.
        pop = make_majority_population(30, k0=2, k1=1)
        for init in (TwoRoundTarget(0.3, 0.7), ZeroSpeedCenter(), PoisonedCounters(), FrozenUnanimity()):
            for replicas in (1, 3):
                proto = FETProtocol(6)
                batch = tiled(pop, replicas)
                states = proto.init_state_batch(replicas, 30, make_rng(0))
                init.apply_batch(batch, proto, states, make_rng(1))
                assert batch.opinions.shape == states["prev_count"].shape == (replicas, 30)

    def test_two_round_target_rows(self):
        proto, batch, states, rng = self.batch()
        TwoRoundTarget(0.25, 0.5).apply_batch(batch, proto, states, rng)
        # Every replica holds fraction x_now up to source re-pinning (1 source).
        counts = batch.count_ones()
        assert ((counts >= 30) & (counts <= 31)).all()
        # Counters are Binomial(ell, x_prev) per agent: in range, and not all
        # rows identical (independent draws per replica).
        prev = states["prev_count"]
        assert prev.shape == (8, 60)
        assert prev.min() >= 0 and prev.max() <= 10
        assert len(np.unique(prev.sum(axis=1))) > 1

    def test_two_round_needs_ell(self):
        class NoEll:
            name = "no-ell"

            def randomize_state_batch(self, replicas, n, rng):
                return {"prev_count": np.zeros((replicas, n), dtype=np.int64)}

        proto, batch, states, rng = self.batch()
        with pytest.raises(ValueError, match="ell"):
            TwoRoundTarget(0.5, 0.5).apply_batch(batch, NoEll(), states, rng)

    def test_zero_speed_center_is_the_centre_target(self):
        assert isinstance(ZeroSpeedCenter(), TwoRoundTarget)
        assert (ZeroSpeedCenter().x_prev, ZeroSpeedCenter().x_now) == (0.5, 0.5)
        assert ZeroSpeedCenter().name == "zero-speed-center"
        assert ZeroSpeedCenter().spec() == {"name": "zero-speed-center"}

    def test_zero_speed_center_delegates(self):
        proto, batch, states, rng = self.batch(n=80)
        ZeroSpeedCenter().apply_batch(batch, proto, states, rng)
        counts = batch.count_ones()
        assert ((counts >= 40) & (counts <= 41)).all()

    def test_poisoned_counters_batch(self):
        proto, batch, states, rng = self.batch()
        PoisonedCounters().apply_batch(batch, proto, states, rng)
        nonsource = batch.opinions[:, ~batch.source_mask]
        assert (nonsource == 0).all()  # every non-source wrong
        assert (batch.opinions[:, batch.source_mask] == 1).all()  # sources pinned
        assert (states["prev_count"] == 10).all()

    def test_frozen_unanimity_batch(self):
        proto = FETProtocol(8)
        rng = make_rng(0)
        pop = make_majority_population(40, k0=10, k1=5)
        batch = tiled(pop, 4)
        states = proto.init_state_batch(4, 40, rng)
        FrozenUnanimity(opinion=1).apply_batch(batch, proto, states, rng)
        assert (batch.opinions == 1).all()
        assert (states["prev_count"] == 8).all()

    def test_frozen_unanimity_batch_rejects_pinned(self):
        proto, batch, states, rng = self.batch()
        with pytest.raises(ValueError, match="majority variant"):
            FrozenUnanimity().apply_batch(batch, proto, states, rng)

    def test_batched_harness_uses_fast_path(self):
        """Adversarial cells take the vectorized init branch end to end."""
        stats = RunSpec(
            protocol={"name": "fet", "ell": 30},
            n=300,
            trials=6,
            max_rounds=1500,
            seed=0,
            engine="batched",
        ).execute(initializer=PoisonedCounters())
        assert stats.engine == "batched"
        assert stats.successes == 6

    def test_batched_matches_sequential_profile(self):
        """Same construction, both engines: equal success profile (the
        batched path is exact in distribution, not bitwise)."""
        kwargs = dict(protocol={"name": "fet", "ell": 30}, n=300, trials=5, max_rounds=1500, seed=7)
        for init in (ZeroSpeedCenter(), TwoRoundTarget(0.5, 0.5)):
            seq = RunSpec(engine="sequential", **kwargs).execute(initializer=init)
            bat = RunSpec(engine="batched", **kwargs).execute(initializer=init)
            assert seq.successes == bat.successes == 5
