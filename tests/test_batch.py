"""Batched engine: unit semantics plus batched-vs-sequential equivalence.

The batched path must be *exact in distribution*: same success rates, same
convergence-time distribution, same retirement semantics as running one
:class:`SynchronousEngine` per trial. The equivalence tests here compare the
two engines on shared seeds at KS/CI level (the dynamics consume different
streams, so outcomes are statistically — not bitwise — identical).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import tiled
from repro.config import RunSpec
from repro.core.batch import BatchedEngine, BatchedPopulation
from repro.core.population import make_population
from repro.core.protocol import Protocol
from repro.core.rng import make_rng
from repro.core.sampling import BatchedBinomialSampler, IndexSampler, batched_binomial_counts


class GrowOneProtocol(Protocol):
    """Deterministic test protocol: one more agent adopts 1 each round.

    Replicas starting with more ones reach the all-ones consensus earlier, so
    a batch retires in a staggered, exactly predictable order.
    """

    name = "grow-one"

    def step_batch(self, batch, states, sampler, rng):
        new = batch.opinions.copy()
        for row in new:  # deterministic, test-only; clarity over speed
            zeros = np.nonzero(row == 0)[0]
            if zeros.size:
                row[zeros[0]] = 1
        return new


class FlipAllProtocol(Protocol):
    """Inverts every opinion every round — never converges, never idles."""

    name = "flip-all"

    def step_batch(self, batch, states, sampler, rng):
        return (1 - batch.opinions).astype(np.uint8)


class TestBatchedPopulation:
    def test_select_tiles_a_one_row_population(self):
        pop = make_population(10, 1)
        batch = pop.select(np.zeros(4, dtype=int))
        assert batch.replicas == 4 and batch.n == 10
        assert np.array_equal(batch.opinions, np.tile(pop.opinions, (4, 1)))
        assert not np.shares_memory(batch.opinions, pop.opinions)

    def test_per_replica_predicates(self):
        pop = make_population(4, 1)
        batch = tiled(pop, 3)
        batch.opinions[0] = [1, 1, 1, 1]
        batch.opinions[1] = [1, 0, 0, 0]
        batch.opinions[2] = [1, 1, 0, 0]
        batch.invalidate_cache()
        assert np.array_equal(batch.at_correct_consensus(), [True, False, False])
        assert np.array_equal(batch.fraction_ones(), [1.0, 0.25, 0.5])
        assert np.array_equal(batch.at_consensus(), [True, False, False])

    def test_pin_sources_every_row(self):
        pop = make_population(6, 1)
        batch = tiled(pop, 3)
        batch.set_opinions(np.zeros((3, 6), dtype=np.uint8))
        assert (batch.opinions[:, 0] == 1).all()

    def test_select_rows_and_cache(self):
        pop = make_population(5, 1)
        batch = tiled(pop, 4)
        batch.opinions[2] = 1
        batch.invalidate_cache()
        counts = batch.count_ones()
        sub = batch.select(np.array([2, 3]))
        assert sub.replicas == 2
        assert np.array_equal(sub.count_ones(), counts[[2, 3]])

    def test_rejects_non_binary(self):
        pop = make_population(5, 1)
        with pytest.raises(ValueError):
            BatchedPopulation(
                opinions=np.full((2, 5), 3, dtype=np.uint8),
                source_mask=pop.source_mask,
                source_preferences=pop.source_preferences,
                correct_opinion=1,
            )


class TestBatchedEngineSemantics:
    def test_validates_stability_rounds(self):
        pop = make_population(10, 1)
        engine = BatchedEngine(FlipAllProtocol(), tiled(pop, 2), rng=0)
        with pytest.raises(ValueError):
            engine.run(10, stability_rounds=0)

    def test_validates_max_rounds(self):
        pop = make_population(10, 1)
        engine = BatchedEngine(FlipAllProtocol(), tiled(pop, 2), rng=0)
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_rejects_zero_max_rounds_like_run_spec(self):
        # Regression: the engine used to accept max_rounds=0 while the trial
        # harness rejected it; both layers must refuse with the same message.
        pop = make_population(10, 1)
        engine = BatchedEngine(FlipAllProtocol(), tiled(pop, 2), rng=0)
        with pytest.raises(ValueError, match="max_rounds must be >= 1, got 0"):
            engine.run(0)
        with pytest.raises(ValueError, match="max_rounds must be >= 1, got 0"):
            RunSpec(
                protocol={"name": "fet", "ell": 8}, n=10, trials=2, max_rounds=0, seed=0
            ).execute()

    def test_run_is_single_shot(self):
        # Retirement compacts the state arrays, so a second run has nothing
        # coherent to resume from — the engine must refuse, not crash.
        pop = make_population(10, 1)
        engine = BatchedEngine(GrowOneProtocol(), tiled(pop, 2), rng=0)
        engine.run(100)
        with pytest.raises(RuntimeError):
            engine.run(100)

    def test_staggered_retirement_rounds(self):
        # Replica r starts with r+1 ones (sources included); grow-one reaches
        # all-ones after n - (r+1) rounds, which is t_con with stability 1.
        n, replicas = 8, 5
        pop = make_population(n, 1)
        batch = tiled(pop, replicas)
        for r in range(replicas):
            batch.opinions[r, : r + 1] = 1
        batch.invalidate_cache()
        engine = BatchedEngine(GrowOneProtocol(), batch, rng=0)
        result = engine.run(100, stability_rounds=1)
        assert result.converged.all()
        expected = [n - (r + 1) for r in range(replicas)]
        assert result.rounds.tolist() == expected
        assert result.rounds_executed.tolist() == expected

    def test_retired_replica_state_frozen(self):
        # Replica 0 starts at correct consensus and retires at round 0 with
        # stability 1 — before any step. flip-all would destroy its consensus
        # on the very first step, so an unchanged final state proves the
        # active-mask actually removed it from the dynamics.
        pop = make_population(6, 1)
        batch = tiled(pop, 2)
        batch.opinions[0] = 1
        # a mixed row stays mixed under flip-all (+ re-pin), so it never
        # reaches any consensus
        batch.opinions[1] = [1, 1, 0, 0, 0, 0]
        batch.invalidate_cache()
        engine = BatchedEngine(FlipAllProtocol(), batch, rng=0)
        result = engine.run(7, stability_rounds=1)
        assert result.converged.tolist() == [True, False]
        assert result.rounds.tolist() == [0, 7]
        assert (engine.batch.opinions[0] == 1).all()
        # the live replica kept flipping (odd number of rounds, source re-pinned)
        assert not (engine.batch.opinions[1] == engine.batch.opinions[0]).all()

    def test_stability_window_matches_sequential_accounting(self):
        # grow-one with stability 2: t_con is still the first all-correct
        # round; the extra confirmation round only delays retirement.
        n = 6
        engine = BatchedEngine(GrowOneProtocol(), make_population(n, 1), rng=0)
        result = engine.run(100, stability_rounds=2)
        assert result.converged.all()
        assert result.rounds[0] == n - 1
        assert result.rounds_executed[0] == n  # one confirmation round more

    def test_non_converged_reports_max_rounds(self):
        pop = make_population(6, 1)
        engine = BatchedEngine(FlipAllProtocol(), tiled(pop, 3), rng=0)
        result = engine.run(9)
        assert not result.converged.any()
        assert (result.rounds == 9).all()
        assert (result.rounds_executed == 9).all()


def _times(stats):
    return np.asarray(stats.times, dtype=float)


class TestEngineEquivalence:
    """Batched vs sequential: success rates and time distributions agree."""

    def check(self, protocol, n, initializer, *, trials, max_rounds, seed, expect_success=None):
        seq, bat = (
            RunSpec(
                protocol=protocol,
                n=n,
                initializer=initializer,
                trials=trials,
                max_rounds=max_rounds,
                seed=seed,
                engine=engine,
            ).execute()
            for engine in ("sequential", "batched")
        )
        assert bat.engine == "batched" and seq.engine == "sequential"
        # success-rate agreement at CI level (overlapping Wilson intervals)
        lo_s, hi_s = seq.success_interval
        lo_b, hi_b = bat.success_interval
        assert max(lo_s, lo_b) <= min(hi_s, hi_b), (
            f"success CIs disjoint: seq [{lo_s:.3f},{hi_s:.3f}] vs bat [{lo_b:.3f},{hi_b:.3f}]"
        )
        if expect_success is not None:
            assert seq.success_rate == expect_success
            assert bat.success_rate == expect_success
        ts, tb = _times(seq), _times(bat)
        if ts.size > 30 and tb.size > 30:
            # asymptotic p-value: the exact one fails on tied integer
            # rounds at these sizes, and scipy falls back to it anyway
            assert scipy_stats.ks_2samp(ts, tb, method="asymp").pvalue > 1e-3
        return seq, bat

    def test_fet_equivalent(self):
        self.check(
            {"name": "fet", "ell": 24}, 300, "all-wrong",
            trials=300, max_rounds=1500, seed=11, expect_success=1.0,
        )

    def test_fet_random_start_equivalent(self):
        self.check(
            {"name": "fet", "ell": 24}, 300, {"name": "bernoulli", "p": 0.5},
            trials=300, max_rounds=1500, seed=12, expect_success=1.0,
        )

    def test_simple_trend_equivalent(self):
        self.check(
            {"name": "simple-trend", "ell": 24}, 300, "all-wrong",
            trials=200, max_rounds=1500, seed=13, expect_success=1.0,
        )

    def test_voter_equivalent(self):
        # Small n so the voter's polynomial escape is reachable; compare the
        # full outcome distribution, successes and failures alike.
        self.check(
            "voter", 24, {"name": "bernoulli", "p": 0.5},
            trials=300, max_rounds=400, seed=14,
        )

    def test_majority_sampling_equivalent(self):
        # Correct-majority random start: sample-majority amplifies to the
        # correct consensus quickly.
        self.check(
            {"name": "sample-majority", "ell": 24}, 300, {"name": "bernoulli", "p": 0.75},
            trials=300, max_rounds=400, seed=15, expect_success=1.0,
        )

    def test_majority_sampling_lockin_equivalent(self):
        # All-wrong start: both engines must agree the protocol fails.
        seq, bat = self.check(
            {"name": "sample-majority", "ell": 24}, 300, "all-wrong",
            trials=60, max_rounds=120, seed=16,
        )
        assert seq.successes == 0 and bat.successes == 0

    def test_exact_fraction_equivalent(self):
        self.check(
            {"name": "fet", "ell": 24}, 300, {"name": "fraction", "x": 0.7},
            trials=200, max_rounds=1500, seed=17, expect_success=1.0,
        )

    def test_clock_sync_equivalent(self):
        # The decoupled-message baseline on its vectorized step_batch: same
        # success law and convergence-time law as the per-trial engine.
        from repro.protocols.clock_sync import ClockSyncProtocol
        from repro.protocols.fet import ell_for

        n = 200
        budget = 40 * ClockSyncProtocol(n, 8).period
        self.check(
            {"name": "clock-sync", "ell": ell_for(n)}, n, "all-wrong",
            trials=120, max_rounds=budget, seed=18, expect_success=1.0,
        )


class TestRunTrialsDispatch:
    @pytest.mark.parametrize("n,engine", [(99, "batched"), (100, "counts")])
    def test_auto_keeps_results_on_either_lockstep_engine(self, n, engine):
        # keep_results rides the lock-step engines: a FullTrace recorder
        # captures per-replica trajectories and converts them back into
        # per-trial RunResults, on batched and counts alike. auto runs the
        # count-capable cell on counts; batched is the explicit override.
        stats = RunSpec(
            protocol={"name": "fet", "ell": 16},
            n=n,
            trials=4,
            max_rounds=400,
            seed=0,
            engine="batched" if engine == "batched" else "auto",
        ).execute(keep_results=True)
        assert stats.engine == engine
        assert len(stats.results) == 4
        for result in stats.results:
            assert result.converged
            # trajectory covers round 0 through the rounds the replica executed
            assert result.trajectory.shape[0] >= result.rounds + 1

    def test_sequential_escape_hatch_for_keep_results(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 16},
            n=100,
            trials=4,
            max_rounds=400,
            seed=0,
            engine="sequential",
        ).execute(keep_results=True)
        assert stats.engine == "sequential"
        assert len(stats.results) == 4

    def test_auto_runs_custom_sampler_batched(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 16}, n=100, trials=4, max_rounds=400, seed=0
        ).execute(batched_sampler=IndexSampler())
        assert stats.engine == "batched"
        assert stats.successes == 4

    def test_batched_keep_results_matches_sequential_shape(self):
        seq = RunSpec(
            protocol={"name": "fet", "ell": 16},
            n=100,
            trials=4,
            max_rounds=400,
            seed=0,
            engine="sequential",
        ).execute(keep_results=True)
        bat = RunSpec(
            protocol={"name": "fet", "ell": 16},
            n=100,
            trials=4,
            max_rounds=400,
            seed=0,
            engine="batched",
        ).execute(keep_results=True)
        assert len(bat.results) == len(seq.results) == 4
        for result in bat.results + seq.results:
            # same contract: trajectory[0] is the initial all-wrong fraction
            # (one source pinned correct) and the final entry is consensus
            assert result.trajectory[0] == pytest.approx(0.01)
            assert result.final_fraction == 1.0

    def test_index_sampler_runs_batched_but_not_on_counts(self):
        kwargs = dict(protocol={"name": "fet", "ell": 16}, n=100, trials=4, max_rounds=400, seed=0)
        stats = RunSpec(engine="batched", **kwargs).execute(batched_sampler=IndexSampler())
        assert stats.engine == "batched" and stats.successes == 4
        with pytest.raises(ValueError, match="fraction-keyed"):
            RunSpec(engine="counts", **kwargs).execute(batched_sampler=IndexSampler())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(
                protocol={"name": "fet", "ell": 16},
                n=100,
                trials=4,
                max_rounds=400,
                seed=0,
                engine="turbo",
            ).execute()

    def test_batched_reproducible(self):
        spec = RunSpec(
            protocol={"name": "fet", "ell": 24}, n=300, trials=16, max_rounds=500, seed=42,
            engine="batched",
        )
        a, b = spec.execute(), spec.execute()
        assert np.array_equal(a.times, b.times)

    def test_batched_with_population_factory(self):
        stats = RunSpec(
            protocol={"name": "fet", "ell": 16},
            n=100,
            trials=6,
            max_rounds=400,
            seed=3,
            engine="batched",
        ).execute(population_factory=lambda: make_population(100, 0))
        assert stats.successes == 6


class TestBatchedSamplerStatistics:
    def test_methods_agree_in_distribution(self):
        # the draw tiers, forced one at a time, against the broadcast
        # rng.binomial reference
        rng = make_rng(0)
        # replicas of n = 400 at assorted fractions, including consensus rows
        fractions = np.array([0.0, 0.05, 0.35, 0.65, 0.97, 1.0])
        draws = {}
        for method in ("auto", "histogram", "binomial", "sparse"):
            draws[method] = np.concatenate(
                [batched_binomial_counts(rng, 20, fractions, 1, 400, method)[0]
                 for _ in range(40)],
                axis=1,
            )
        for r, x in enumerate(fractions):
            ref = draws["binomial"][r]
            for method in ("auto", "histogram", "sparse"):
                got = draws[method][r]
                assert got.min() >= 0 and got.max() <= 20
                if x in (0.0, 1.0):
                    assert (got == (0 if x == 0.0 else 20)).all()
                    continue
                assert scipy_stats.ks_2samp(got, ref).pvalue > 1e-4, (r, x, method)

    def test_moments_match_theory(self):
        rng = make_rng(1)
        x = np.array([0.02, 0.3, 0.5, 0.8, 0.995])
        ell, n = 40, 60000
        counts = batched_binomial_counts(rng, ell, x, 1, n)[0]
        mean = counts.mean(axis=1)
        var = counts.var(axis=1)
        assert np.allclose(mean, ell * x, rtol=0.05, atol=0.05)
        assert np.allclose(var, ell * x * (1 - x), rtol=0.1, atol=0.1)

    def test_block_independence_shape(self):
        rng = make_rng(2)
        pop = make_population(50, 1)
        batch = tiled(pop, 3)
        sampler = BatchedBinomialSampler()
        blocks = sampler.count_blocks(batch, 7, 2, rng)
        assert blocks.shape == (2, 3, 50)

    def test_rejects_bad_method(self):
        with pytest.raises(ValueError):
            batched_binomial_counts(make_rng(0), 5, np.array([0.5]), 1, 10, method="alias")

    def test_rejects_negative_ell(self):
        rng = make_rng(3)
        pop = make_population(50, 1)
        batch = tiled(pop, 2)
        with pytest.raises(ValueError):
            BatchedBinomialSampler().count_blocks(batch, -1, 2, rng)


class TestBatchedNoise:
    def test_noisy_equivalence(self):
        from repro.core.noise import BatchedNoisyCountSampler

        seq = RunSpec(
            protocol={"name": "fet", "ell": 24},
            n=200,
            trials=120,
            max_rounds=60,
            seed=21,
            engine="sequential",
        ).execute(batched_sampler=BatchedNoisyCountSampler(0.1))
        bat = RunSpec(
            protocol={"name": "fet", "ell": 24},
            n=200,
            trials=120,
            max_rounds=60,
            seed=21,
            engine="batched",
        ).execute(batched_sampler=BatchedNoisyCountSampler(0.1))
        assert bat.engine == "batched"
        lo_s, hi_s = seq.success_interval
        lo_b, hi_b = bat.success_interval
        assert max(lo_s, lo_b) <= min(hi_s, hi_b)
