"""Tests for the FET protocol (Protocol 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import scripted_sampler, step_row
from repro.core.engine import SynchronousEngine, run_protocol
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import IndexSampler
from repro.initializers.standard import AllCorrect, AllWrong, BernoulliRandom
from repro.protocols.fet import DEFAULT_SAMPLE_CONSTANT, FETProtocol, ell_for


class TestEllFor:
    def test_formula(self):
        assert ell_for(100, 2.0) == math.ceil(2.0 * math.log(100))

    def test_minimum_one(self):
        assert ell_for(2, 0.001) == 1

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            ell_for(1)

    def test_default_constant(self):
        assert ell_for(1000) == math.ceil(DEFAULT_SAMPLE_CONSTANT * math.log(1000))


class TestConstruction:
    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            FETProtocol(0)

    def test_name_mentions_ell(self):
        assert "7" in FETProtocol(7).name

    def test_accounting(self):
        proto = FETProtocol(15)
        assert proto.samples_per_round() == 30
        assert proto.memory_bits() == pytest.approx(math.log2(16))
        assert proto.passive is True

    def test_describe(self):
        desc = FETProtocol(15).describe()
        assert desc["passive"] is True
        assert desc["samples_per_round"] == 30


class TestState:
    def test_init_state_zeroed(self):
        state = FETProtocol(5).init_state(10, make_rng(0))
        assert (state["prev_count"] == 0).all()

    def test_randomize_state_in_range(self):
        proto = FETProtocol(5)
        state = proto.randomize_state_batch(4, 250, make_rng(0))
        assert state["prev_count"].min() >= 0
        assert state["prev_count"].max() <= 5
        # All values of {0..5} should occur in 1000 draws.
        assert set(np.unique(state["prev_count"])) == set(range(6))


class TestStepSemantics:
    """Drive FET with scripted counts to pin down the update rule exactly."""

    def make(self, n=6, ell=4):
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        return proto, pop

    def test_greater_adopts_one(self):
        proto, pop = self.make()
        state = {"prev_count": np.full(6, 1, dtype=np.int64)}
        sampler = scripted_sampler(np.full(6, 3), np.zeros(6))  # count' = 3 > 1
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert (new == 1).all()

    def test_smaller_adopts_zero(self):
        proto, pop = self.make()
        state = {"prev_count": np.full(6, 3, dtype=np.int64)}
        sampler = scripted_sampler(np.full(6, 1), np.zeros(6))  # count' = 1 < 3
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert (new == 0).all()

    def test_tie_keeps_opinion(self):
        proto, pop = self.make()
        opinions = np.array([1, 0, 1, 0, 1, 0], dtype=np.uint8)
        pop.adversarial_opinions(opinions)
        state = {"prev_count": np.full(6, 2, dtype=np.int64)}
        sampler = scripted_sampler(np.full(6, 2), np.zeros(6))  # tie
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert np.array_equal(new, pop.opinions)

    def test_mixed_rules_per_agent(self):
        proto, pop = self.make()
        pop.adversarial_opinions(np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8))
        state = {"prev_count": np.array([2, 2, 2, 2, 2, 2], dtype=np.int64)}
        counts = np.array([3, 1, 2, 3, 2, 1], dtype=np.int64)
        sampler = scripted_sampler(counts, np.zeros(6))
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert new.tolist() == [1, 0, 0, 1, 1, 0]

    def test_state_updated_to_second_block(self):
        proto, pop = self.make()
        state = {"prev_count": np.zeros(6, dtype=np.int64)}
        second_block = np.array([4, 3, 2, 1, 0, 4], dtype=np.int64)
        sampler = scripted_sampler(np.zeros(6), second_block)
        step_row(proto, pop, state, sampler, make_rng(0))
        assert np.array_equal(state["prev_count"], second_block)


class TestConvergence:
    @pytest.mark.parametrize("correct", [0, 1])
    def test_converges_from_all_wrong(self, correct):
        n = 1500
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, correct)
        rng = make_rng(42 + correct)
        result = run_protocol(proto, pop, 2000, rng=rng, initializer=AllWrong())
        assert result.converged
        assert result.rounds < 200

    def test_converges_from_random(self):
        n = 1500
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(7)
        result = run_protocol(proto, pop, 3000, rng=rng, initializer=BernoulliRandom(0.5))
        assert result.converged

    def test_stays_at_correct_consensus(self):
        n = 1000
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(3)
        result = run_protocol(proto, pop, 300, rng=rng, initializer=AllCorrect())
        assert result.converged
        # After at most a couple of settling rounds, x stays at 1: the
        # adversarial counters can cause an initial dip but never a collapse.
        assert result.rounds <= 25

    def test_converges_with_index_sampler(self):
        """The literal sampler gives the same qualitative behaviour."""
        n = 600
        proto = FETProtocol(ell_for(n, 4.0))
        pop = make_population(n, 1)
        rng = make_rng(11)
        result = run_protocol(
            proto,
            pop,
            1500,
            sampler=IndexSampler(exclude_self=True),
            rng=rng,
            initializer=AllWrong(),
        )
        assert result.converged

    def test_absorbing_once_converged(self):
        """After convergence is detected, extending the run changes nothing."""
        n = 800
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, 1)
        engine = SynchronousEngine(proto, pop, rng=make_rng(5), initializer=AllWrong())
        result = engine.run(2000)
        assert result.converged
        # Continue for 100 extra rounds manually: opinion vector must not move.
        for _ in range(100):
            record = engine.step()
            assert record.x_after == 1.0


class TestFusedBatchStep:
    """The single-comparison batched update (2·count′ + opinion > 2·prev)
    must resolve the three-way rule exactly: greater → 1, smaller → 0,
    tie → keep."""

    def test_fused_step_batch_matches_three_way_rule(self):
        from repro.core.batch import BatchedPopulation
        from repro.core.sampling import BatchedSampler

        ell, replicas, n = 9, 7, 40
        rng = make_rng(77)
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        batch = BatchedPopulation.from_population(pop, replicas)
        opinions = (make_rng(1).random((replicas, n)) < 0.5).astype("uint8")
        batch.adversarial_opinions(opinions)
        prev = make_rng(2).integers(0, ell + 1, size=(replicas, n))
        states = {"prev_count": prev.copy()}
        blocks = make_rng(3).integers(0, ell + 1, size=(2, replicas, n))

        class Scripted(BatchedSampler):
            def counts(self, batch, ell, rng):  # pragma: no cover - unused
                raise AssertionError

            def count_blocks(self, batch, ell, blocks_count, rng):
                assert blocks_count == 2
                return blocks.copy()

        expected = np.where(
            blocks[0] == prev, batch.opinions, blocks[0] > prev
        ).astype(np.uint8)
        new = proto.step_batch(batch, states, Scripted(), rng)
        assert new.dtype == np.uint8
        assert np.array_equal(new, expected)
        # the carried state is the second block, untouched by the fusion
        assert np.array_equal(states["prev_count"], blocks[1])

    def test_fused_step_batch_matches_three_way_rule_at_r1(self):
        """A one-row batch (the single-population case) resolves the
        three-way rule exactly, agent by agent."""
        ell, n = 6, 30
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        pop.adversarial_opinions((make_rng(4).random(n) < 0.5).astype("uint8"))
        counts = make_rng(5).integers(0, ell + 1, size=(2, n))
        prev = make_rng(6).integers(0, ell + 1, size=n)
        state = {"prev_count": prev.copy()}
        new = step_row(proto, pop, state, scripted_sampler(counts[0], counts[1]), make_rng(0))
        expected = [
            1 if c > p else 0 if c < p else o for c, p, o in zip(counts[0], prev, pop.opinions)
        ]
        assert new.tolist() == expected
        assert np.array_equal(state["prev_count"], counts[1])

    def test_fused_step_batch_leaves_aliasing_sampler_buffers_intact(self):
        """A buffer-reusing sampler (returns the same tensor every call)
        aliases this round's blocks with the carried previous count; the
        fused update must detect the overlap and not corrupt the buffer."""
        from repro.core.batch import BatchedPopulation
        from repro.core.sampling import BatchedSampler

        ell, replicas, n = 5, 3, 20
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        batch = BatchedPopulation.from_population(pop, replicas)
        cached = make_rng(8).integers(0, ell + 1, size=(2, replicas, n))
        snapshot = cached.copy()

        class Caching(BatchedSampler):
            def counts(self, batch, ell, rng):  # pragma: no cover - unused
                raise AssertionError

            def count_blocks(self, batch, ell, blocks_count, rng):
                return cached  # same buffer every round, never rewritten

        states = {"prev_count": cached[1]}  # aliases the sampler's buffer
        expected = np.where(
            snapshot[0] == snapshot[1], batch.opinions, snapshot[0] > snapshot[1]
        ).astype(np.uint8)
        new = proto.step_batch(batch, states, Caching(), make_rng(0))
        assert np.array_equal(new, expected)
        assert np.array_equal(cached, snapshot)  # buffer not mutated
