"""Counts engine: exact-chain validation, batched equivalence, contract parity.

The sufficient-statistic engine must be *exact in distribution*: stepping
``(R, S)`` state-count matrices with multinomial draws is the same stochastic
process as stepping ``n`` agents, just without agent identity. Three layers of
evidence here: (1) convergence times match the exact Markov chain of
:mod:`repro.analysis.markov` at small ``n``; (2) KS-indistinguishable time
distributions against the batched engine across the whole count-capable
protocol lineup, noisy observation included; (3) the ``run`` contract —
stability windows, retirement, linger, traces, single-shot — behaves exactly
like :class:`~repro.core.batch.BatchedEngine`'s.

Components with no count-level meaning (per-agent samplers, crafted
populations, flip recording) must be rejected with a clear error at every
entry point: the engine itself, the harness, and ``validate_cell``. The
paper's crafted starts are exchangeable over the non-sources and run here
like any other initializer.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.analysis.markov import ExactPairChain, next_count_distribution
from repro.config import RunSpec
from repro.core.batch import BatchedEngine, BatchedPopulation
from repro.core.counts import CountEngine, CountPopulation, make_count_population
from repro.core.population import make_population
from repro.core.sampling import BatchedBinomialSampler
from repro.experiments.harness import make_count_engine, prepare_counts
from repro.initializers.adversarial import ZeroSpeedCenter
from repro.protocols.fet import FETProtocol
from repro.protocols.oracle_clock import OracleClockProtocol
from repro.protocols.voter import VoterProtocol
from repro.sweep.registry import build_protocol, protocol_names, validate_cell
from repro.trace.recorder import FullTrace
from reference.count_states import pooled_chisquare


def chain_state_population(
    n: int, ell: int, i: int, j: int, replicas: int
) -> tuple[CountPopulation, dict]:
    """Replicas of the FET count model at exact-chain state ``(i, j)``.

    ``(i, j)`` are one-counts (pinned source included) at consecutive rounds;
    the chain treats each agent's stored counter as a fresh ``Binom(ℓ, i/n)``
    draw whatever its opinion — exactly the count model's carried counter
    law — beside ``j - 1`` non-source ones.
    """
    counts = np.tile([n - j, j - 1], (replicas, 1))
    law = scipy_stats.binom.pmf(np.arange(ell + 1), ell, i / n)
    protocol = FETProtocol(ell)
    population = CountPopulation(
        counts, protocol.count_display(), n=n, num_sources=1, correct_opinion=1
    )
    return population, protocol.randomize_count_state(replicas, law / law.sum())


COUNT_MODELS = [
    name for name in protocol_names() if build_protocol({"name": name}, 50).counts_supported
]


class TestCountPopulation:
    @pytest.mark.parametrize("name", COUNT_MODELS)
    def test_clean_template_counts(self, name):
        protocol = build_protocol({"name": name}, 50)
        pop = make_count_population(protocol, replicas=3, n=50)
        assert pop.counts.shape == (3, protocol.count_display().size)
        assert (pop.counts.sum(axis=1) == 49).all()
        # all non-sources wrong, one pinned source correct
        assert (pop.count_ones() == 1).all()
        assert pop.fraction_ones() == pytest.approx([0.02, 0.02, 0.02])
        assert not pop.at_correct_consensus().any()
        assert pop.nonsource_correct_fraction() == pytest.approx([0.0, 0.0, 0.0])
        # every non-source in the clean start of the wrong opinion: opinion
        # 0 with a zero counter (or decided) is state 0, and opinion 1's
        # clean start opens the second half of every layout
        assert (pop.counts[:, 0] == 49).all()
        flipped = make_count_population(protocol, replicas=1, n=50, correct_opinion=0)
        assert flipped.counts[0, protocol.count_display().size // 2] == 49

    def test_memory_is_independent_of_n(self):
        protocol = FETProtocol(6)
        small = make_count_population(protocol, replicas=8, n=100)
        huge = make_count_population(protocol, replicas=8, n=10**7)
        assert small.counts.nbytes == huge.counts.nbytes

    def test_row_sum_validation(self):
        protocol = FETProtocol(2)
        counts = np.zeros((2, protocol.count_display().size), dtype=np.int64)
        counts[:, 0] = 7  # n - num_sources would be 9
        with pytest.raises(ValueError, match="sum to n - num_sources"):
            CountPopulation(counts, protocol.count_display(), n=10)

    def test_select_and_copy_are_independent(self):
        protocol = FETProtocol(2)
        pop = make_count_population(protocol, replicas=4, n=20)
        sub = pop.select(np.array([0, 2]))
        assert sub.replicas == 2
        clone = pop.copy()
        clone.counts[0, 0] = 0
        clone.counts[0, 1] = 19
        clone.invalidate_cache()
        assert pop.counts[0, 0] == 19  # original untouched

    def test_rejects_unsupported_protocol(self):
        with pytest.raises(ValueError, match="counts_supported=False"):
            make_count_population(OracleClockProtocol(16), replicas=2, n=16)


class TestExactChain:
    """Counts dynamics reproduce the exact pair-chain expectations (small n).

    Conventions match ``tests/test_markov.py``: the chain's ``E[T]`` counts
    rounds to *absorption* at ``(n, n)`` — the second consecutive all-ones
    round — while ``result.rounds`` is the first round of the final streak,
    one earlier. Tolerances are the same loose band the sequential
    comparison uses (finite sampling plus the one-round offset ambiguity).
    """

    N, ELL = 10, 4

    @pytest.mark.parametrize("n", [10, 24])
    @pytest.mark.parametrize("ell", [2, 4])
    @pytest.mark.parametrize("pair", ["first", "last-one", "last-prev", "interior"])
    def test_one_step_is_the_exact_pair_chain_step(self, n, ell, pair):
        """One counts-engine round from pair state ``(i, j)`` draws the next
        one-count from Observation 1's exact law (χ² goodness of fit,
        sparse bins pooled)."""
        i, j = {
            "first": (1, 1),
            "last-one": (1, n - 1),
            "last-prev": (n - 1, 1),
            "interior": (n // 2, n // 2 + 2),
        }[pair]
        replicas = 20000
        pop, states = chain_state_population(n, ell, i, j, replicas)
        rng = np.random.default_rng(n * ell + i)
        engine = CountEngine(FETProtocol(ell), pop, rng=rng, states=states)
        result = engine.run(1, stop_condition=lambda rows: np.zeros(rows.replicas, dtype=bool))
        assert (result.rounds_executed == 1).all()
        observed = np.bincount(engine.population.count_ones(), minlength=n + 1)
        expected = next_count_distribution(n, i, j, ell) * replicas
        pvalue = pooled_chisquare(observed, expected)
        if pvalue is None:
            # the law sits (almost) all on one count: an exact binomial test
            # of the mass off it instead
            mode = int(np.argmax(expected))
            off = replicas - int(observed[mode])
            pvalue = scipy_stats.binomtest(off, replicas, 1.0 - expected[mode] / replicas).pvalue
        assert pvalue > 1e-3, (i, j, pvalue)

    def test_mean_time_matches_chain_from_all_wrong(self):
        chain = ExactPairChain(n=self.N, ell=self.ELL)
        exact = chain.expected_time_from_all_wrong()
        rng = np.random.default_rng(4242)
        pop, states = chain_state_population(self.N, self.ELL, 1, 1, replicas=4000)
        result = CountEngine(FETProtocol(self.ELL), pop, rng=rng, states=states).run(
            5000, stability_rounds=2
        )
        assert result.converged.all()
        assert result.times().mean() + 1 == pytest.approx(exact + 1, rel=0.12, abs=1.0)

    def test_mean_time_matches_chain_from_interior_state(self):
        chain = ExactPairChain(n=self.N, ell=self.ELL)
        exact = chain.expected_time_from(5, 8)
        rng = np.random.default_rng(77)
        pop, states = chain_state_population(self.N, self.ELL, 5, 8, replicas=4000)
        result = CountEngine(FETProtocol(self.ELL), pop, rng=rng, states=states).run(
            5000, stability_rounds=2
        )
        assert result.converged.all()
        assert result.times().mean() + 1 == pytest.approx(exact + 1, rel=0.12, abs=1.0)

    def test_counts_and_batched_agree_from_identical_start(self):
        """Tight cross-check: both engines from the same (1,1) start law."""
        rng = np.random.default_rng(2024)
        pop, states = chain_state_population(self.N, self.ELL, 1, 1, replicas=3000)
        counts_result = CountEngine(FETProtocol(self.ELL), pop, rng=rng, states=states).run(
            5000, stability_rounds=2
        )

        rng2 = np.random.default_rng(555)
        batch = BatchedPopulation.from_population(make_population(self.N, 1), 3000)
        states = {
            "prev_count": rng2.binomial(
                self.ELL, 1.0 / self.N, size=(3000, self.N)
            ).astype(np.int64)
        }
        batched_result = BatchedEngine(
            FETProtocol(self.ELL), batch, rng=rng2, states=states
        ).run(5000, stability_rounds=2)

        assert counts_result.converged.all() and batched_result.converged.all()
        pvalue = scipy_stats.ks_2samp(
            counts_result.times(), batched_result.times()
        ).pvalue
        assert pvalue > 1e-3


#: (protocol component, initializer component, n, max_rounds) — one cell per
#: count-capable protocol, started where the dynamics actually converge, then
#: the paper's crafted starts.
LINEUP = [
    ({"name": "fet", "ell": 6}, {"name": "all-wrong"}, 256, 3000),
    # the band must sit well under the √ℓ count-noise scale to converge
    ({"name": "hysteresis-fet", "ell": 16, "band": 1}, {"name": "all-wrong"}, 256, 3000),
    ({"name": "simple-trend", "ell": 6}, {"name": "fraction", "x": 0.75}, 256, 3000),
    ({"name": "sample-majority", "ell": 6}, {"name": "fraction", "x": 0.75}, 256, 3000),
    ({"name": "k-majority", "k": 3}, {"name": "fraction", "x": 0.75}, 256, 3000),
    ({"name": "undecided-state"}, {"name": "fraction", "x": 0.75}, 256, 3000),
    ({"name": "voter"}, {"name": "fraction", "x": 0.9}, 48, 30000),
    ({"name": "fet", "ell": 6}, {"name": "zero-speed-center"}, 256, 3000),
    ({"name": "fet", "ell": 6}, {"name": "poisoned-counters"}, 256, 3000),
    ({"name": "fet", "ell": 6}, {"name": "two-round", "x_prev": 0.9, "x_now": 0.1}, 256, 3000),
    (
        {"name": "hysteresis-fet", "ell": 16, "band": 1},
        {"name": "zero-speed-center"},
        256,
        3000,
    ),
    (
        {"name": "simple-trend", "ell": 6},
        {"name": "two-round", "x_prev": 0.1, "x_now": 0.9},
        256,
        3000,
    ),
]


def _lineup_ids() -> list[str]:
    """A protocol's first entry is named after it, later ones after their start too."""
    ids: list[str] = []
    for protocol, initializer, *_ in LINEUP:
        name = protocol["name"]
        ids.append(f"{name}-{initializer['name']}" if name in ids else name)
    return ids


class TestEngineEquivalence:
    """The counts engine is the batched engine in distribution, per protocol."""

    @pytest.mark.parametrize(
        "protocol,initializer,n,max_rounds",
        LINEUP,
        ids=_lineup_ids(),
    )
    def test_ks_equivalent_times(self, protocol, initializer, n, max_rounds):
        trials = 96
        results = {}
        for engine in ("batched", "counts"):
            spec = RunSpec(
                protocol=protocol,
                n=n,
                initializer=initializer,
                trials=trials,
                max_rounds=max_rounds,
                seed=31337,
                engine=engine,
            )
            validate_cell(spec)
            results[engine] = spec.execute()
        batched, counts = results["batched"], results["counts"]
        assert counts.engine == "counts"
        assert batched.successes == trials, protocol["name"]
        assert counts.successes == trials, protocol["name"]
        # asymptotic p-value: the exact one fails on tied integer rounds
        # (k-majority), and scipy falls back to it anyway
        assert scipy_stats.ks_2samp(batched.times, counts.times, method="asymp").pvalue > 1e-3

    def test_ks_equivalent_under_observation_noise(self):
        trials = 96
        times = {}
        for engine in ("batched", "counts"):
            spec = RunSpec(
                protocol={"name": "fet", "ell": 8},
                n=256,
                noise=0.01,
                initializer={"name": "all-wrong"},
                trials=trials,
                max_rounds=4000,
                seed=7,
                engine=engine,
            )
            validate_cell(spec)
            stats = spec.execute()
            assert stats.successes == trials
            times[engine] = stats.times
        assert scipy_stats.ks_2samp(times["batched"], times["counts"]).pvalue > 1e-3


class TestRunContract:
    """Stability, retirement, linger, traces, single-shot — batched parity."""

    def _engine(self, seed: int = 5, trials: int = 32, n: int = 128) -> CountEngine:
        spec = RunSpec(
            protocol={"name": "fet", "ell": 6},
            n=n,
            trials=trials,
            seed=seed,
            engine="counts",
        )
        return spec.count_engine()

    def test_retirement_accounting(self):
        stability, linger = 3, 2
        engine = self._engine()
        result = engine.run(3000, stability_rounds=stability, linger_rounds=linger)
        conv = result.converged
        assert conv.all()
        # retired exactly at the end of the stability window plus the linger
        # settle rounds, with rounds = first round of the final streak
        np.testing.assert_array_equal(
            result.rounds_executed[conv],
            result.rounds[conv] + stability - 1 + linger,
        )

    def test_final_population_is_frozen_at_consensus(self):
        engine = self._engine(seed=11)
        result = engine.run(3000)
        assert result.converged.all()
        assert engine.population.at_correct_consensus().all()
        assert (engine.population.nonsource_correct_fraction() == 1.0).all()

    def test_trace_records_one_fractions_and_freezes_retired_rows(self):
        engine = self._engine(seed=3, trials=16)
        recorder = FullTrace()
        result = engine.run(3000, recorder=recorder)
        trace = recorder.trace()
        assert trace.replicas == 16
        assert trace.first_round == 0
        assert trace.last_round >= int(result.rounds.max())
        x = trace.x
        assert ((x >= 0.0) & (x <= 1.0)).all()
        # retired rows are frozen at the consensus fraction for the tail
        for r in range(trace.replicas):
            retired_from = int(result.rounds_executed[r])
            tail = x[r, retired_from:]
            assert (tail == 1.0).all()
        runs = trace.to_run_results(result)
        assert len(runs) == 16
        assert all(run.converged for run in runs)

    def test_flip_recorders_are_rejected(self):
        engine = self._engine(seed=9, trials=4)
        with pytest.raises(ValueError, match="flip counts"):
            engine.run(100, recorder=FullTrace(record_flips=True))

    def test_engine_is_single_shot(self):
        engine = self._engine(seed=13, trials=4)
        engine.run(2000)
        with pytest.raises(RuntimeError, match="single-shot"):
            engine.run(2000)

    def test_stop_condition_sees_count_population(self):
        engine = self._engine(seed=21, trials=8, n=512)
        theta = 0.6
        result = engine.run(
            3000,
            stop_condition=lambda pop: pop.nonsource_correct_fraction() >= theta,
        )
        assert result.converged.all()
        assert (engine.population.nonsource_correct_fraction() >= theta).all()

    def test_rejects_per_agent_sampler(self):
        class NoSeam:
            pass

        protocol = FETProtocol(4)
        pop = make_count_population(protocol, replicas=2, n=32)
        with pytest.raises(ValueError, match="effective_fractions"):
            CountEngine(protocol, pop, sampler=NoSeam())

    def test_rejects_protocol_without_count_model(self):
        protocol = FETProtocol(4)
        pop = make_count_population(protocol, replicas=2, n=32)
        with pytest.raises(ValueError, match="counts_supported"):
            CountEngine(OracleClockProtocol(32), pop)


class TestHarnessDispatch:
    def test_prepare_counts_installs_crafted_initializer(self):
        population, _, _ = prepare_counts(
            FETProtocol(4), 64, ZeroSpeedCenter(), trials=4, seed=0
        )
        # round(n/2) ones over all agents, hypergeometric on the non-sources
        ones = population.count_ones()
        assert ((ones >= 32) & (ones <= 33)).all()

    def test_make_count_engine_resolves_spec(self):
        spec = RunSpec(
            protocol={"name": "voter"}, n=64, trials=8, seed=1, engine="counts"
        )
        engine = make_count_engine(spec)
        assert isinstance(engine, CountEngine)
        assert isinstance(engine.protocol, VoterProtocol)
        assert engine.population.replicas == 8

    def test_execute_keeps_per_trial_results(self):
        spec = RunSpec(
            protocol={"name": "fet", "ell": 6},
            n=128,
            trials=12,
            seed=4,
            engine="counts",
        )
        stats = spec.execute(keep_results=True)
        assert stats.engine == "counts"
        assert len(stats.results) == 12
        converged_rounds = sorted(r.rounds for r in stats.results if r.converged)
        assert converged_rounds == sorted(int(t) for t in stats.times)

    def test_zero_trials_reports_counts_engine(self):
        spec = RunSpec(
            protocol={"name": "fet", "ell": 4}, n=64, trials=0, seed=0, engine="counts"
        )
        stats = spec.execute()
        assert stats.engine == "counts"
        assert stats.trials == 0

    def test_standard_population_component_is_a_no_op(self):
        base = RunSpec(
            protocol={"name": "fet", "ell": 6}, n=128, trials=8, seed=2, engine="counts"
        )
        explicit = RunSpec(
            protocol={"name": "fet", "ell": 6},
            n=128,
            trials=8,
            seed=2,
            engine="counts",
            population={"name": "standard"},
        )
        a, b = base.execute(), explicit.execute()
        assert a.successes == b.successes
        np.testing.assert_array_equal(a.times, b.times)

    def test_spec_dict_elides_default_population(self):
        plain = RunSpec(protocol={"name": "fet", "ell": 4}, n=32)
        assert "population" not in plain.spec_dict()
        declared = RunSpec(
            protocol={"name": "fet", "ell": 4},
            n=32,
            population={"name": "majority", "k0": 1, "k1": 2},
        )
        assert declared.spec_dict()["population"]["name"] == "majority"
        assert plain.key() != declared.key()
        assert "pop=majority" in declared.label()

    def test_counts_engine_is_part_of_the_hash(self):
        plain = RunSpec(protocol={"name": "fet", "ell": 4}, n=32)
        counts = RunSpec(protocol={"name": "fet", "ell": 4}, n=32, engine="counts")
        assert counts.spec_dict()["engine"] == "counts"
        assert plain.key() != counts.key()


class TestValidateCell:
    """Per-agent-only components fail fast, before any worker runs."""

    def _cell(self, **overrides) -> RunSpec:
        spec = dict(
            protocol={"name": "fet", "ell": 4},
            n=64,
            trials=4,
            seed=0,
            engine="counts",
        )
        spec.update(overrides)
        return RunSpec(**spec)

    def test_valid_counts_cell_passes(self):
        validate_cell(self._cell())

    def test_rejects_protocol_without_count_model(self):
        with pytest.raises(ValueError, match="no count model"):
            validate_cell(self._cell(protocol={"name": "clock-sync"}))

    def test_accepts_crafted_initializer(self):
        cell = self._cell(initializer={"name": "zero-speed-center"}, max_rounds=3000)
        validate_cell(cell)
        stats = cell.execute()
        assert stats.engine == "counts"
        assert stats.successes == stats.trials

    def test_rejects_frozen_unanimity_by_the_population_rule(self):
        with pytest.raises(ValueError, match="crafted per-agent layout"):
            validate_cell(
                self._cell(
                    initializer={"name": "frozen-unanimity"},
                    population={"name": "majority", "k0": 1, "k1": 2},
                )
            )

    def test_rejects_index_sampler(self):
        with pytest.raises(ValueError, match="fraction-keyed"):
            validate_cell(self._cell(sampler={"name": "index"}))

    def test_rejects_crafted_population(self):
        with pytest.raises(ValueError, match="crafted per-agent layout"):
            validate_cell(
                self._cell(population={"name": "majority", "k0": 1, "k1": 2})
            )

    def test_rejects_flip_traces(self):
        with pytest.raises(ValueError, match="flip counts"):
            validate_cell(
                self._cell(measure={"kind": "trace", "flips": True})
            )

    def test_frozen_unanimity_needs_majority_population(self):
        with pytest.raises(ValueError, match="majority"):
            validate_cell(
                RunSpec(
                    protocol={"name": "fet", "ell": 4},
                    n=64,
                    initializer={"name": "frozen-unanimity"},
                    trials=4,
                    seed=0,
                )
            )

    def test_errors_carry_the_cell_label(self):
        with pytest.raises(ValueError, match=r"invalid sweep cell \["):
            validate_cell(self._cell(sampler={"name": "index"}))
