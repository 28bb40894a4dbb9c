"""Tests for the synchronous round engine."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.config import RunSpec
from repro.core.engine import SynchronousEngine, run_protocol
from repro.core.population import PopulationState, make_population
from repro.core.protocol import Protocol
from repro.core.rng import make_rng
from repro.initializers.standard import AllWrong
from repro.protocols.fet import FETProtocol


class ConstantProtocol(Protocol):
    """Sets every opinion to a constant — a minimal test protocol."""

    name = "constant"

    def __init__(self, value: int) -> None:
        self.value = value

    def step_batch(self, batch, states, sampler, rng):
        return np.full(batch.opinions.shape, self.value, dtype=np.uint8)


class FlipFlopProtocol(Protocol):
    """Alternates all opinions every round — never converges."""

    name = "flipflop"

    def step_batch(self, batch, states, sampler, rng):
        return (1 - batch.opinions).astype(np.uint8)


class TestEngineBasics:
    def test_step_counts_rounds(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        engine.step()
        engine.step()
        assert engine.round_index == 2

    def test_step_record_fields(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        record = engine.step()
        assert record.round_index == 0
        assert record.x_before == pytest.approx(0.1)
        assert record.x_after == pytest.approx(1.0)
        assert record.flips == 9

    def test_source_pinned_by_engine(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        engine.step()
        assert pop.opinions[0] == 1  # source re-pinned after each step

    def test_engine_pins_at_construction(self):
        pop = make_population(10, 1)
        pop.opinions[0] = 0  # sloppy caller corrupts the source
        SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        assert pop.opinions[0] == 1


class TestRun:
    def test_converges_with_constant_correct(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.converged
        assert result.rounds == 1  # first all-correct round

    def test_never_converges_with_wrong_constant(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(0), pop, 20, rng=0)
        assert not result.converged
        assert result.rounds == 20

    def test_flipflop_never_converges(self):
        pop = make_population(10, 1)
        result = run_protocol(FlipFlopProtocol(), pop, 30, rng=0)
        assert not result.converged

    def test_trajectory_includes_initial(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.trajectory[0] == pytest.approx(0.1)
        assert result.trajectory[-1] == pytest.approx(1.0)

    def test_stability_window_respected(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0, stability_rounds=4)
        assert result.converged
        # Convergence time reported is still the first all-correct round.
        assert result.rounds == 1
        # Engine had to actually observe 4 consecutive all-correct rounds.
        assert len(result.trajectory) >= 4

    def test_already_converged_start(self):
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0)
        assert result.converged
        assert result.rounds == 0

    def test_zero_max_rounds(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 0, rng=0, stability_rounds=1)
        assert not result.converged  # no stability evidence gathered

    def test_negative_max_rounds_rejected(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_record_flips(self):
        pop = make_population(10, 1)
        result = run_protocol(ConstantProtocol(1), pop, 50, rng=0, record_flips=True)
        assert result.flips.size >= 1
        assert result.flips[0] == 9

    def test_custom_stop_condition(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(FlipFlopProtocol(), pop, rng=0)
        result = engine.run(
            30,
            stability_rounds=1,
            stop_condition=lambda p: p.fraction_ones() > 0.5,
        )
        assert result.converged
        assert result.rounds == 1  # first flip sends everyone (but source) to 1


class TestEngineWithFET:
    def test_reproducible_with_seed(self):
        def run_once():
            pop = make_population(300, 1)
            proto = FETProtocol(20)
            rng = make_rng(99)
            state = proto.init_state(300, rng)
            return run_protocol(proto, pop, 500, rng=rng, state=state)

        r1, r2 = run_once(), run_once()
        assert r1.rounds == r2.rounds
        assert np.array_equal(r1.trajectory, r2.trajectory)

    def test_fet_absorbing_after_two_correct_rounds(self):
        """Two all-correct rounds are provably absorbing for FET."""
        n = 200
        pop = make_population(n, 1)
        pop.set_opinions(np.ones(n, dtype=np.uint8))
        proto = FETProtocol(10)
        state = {"prev_count": np.full(n, 10, dtype=np.int64)}  # as after an all-1 round
        result = run_protocol(proto, pop, 50, rng=0, state=state)
        assert result.converged
        assert (result.trajectory == 1.0).all()

    def test_pairs_shape(self):
        pop = make_population(100, 1)
        proto = FETProtocol(10)
        result = run_protocol(proto, pop, 100, rng=1)
        pairs = result.pairs()
        assert pairs.shape == (result.trajectory.size - 1, 2)
        assert np.array_equal(pairs[:, 0], result.trajectory[:-1])


class SourceDeviatorProtocol(Protocol):
    """Sets every opinion to 0 — including the source, which gets re-pinned."""

    name = "source-deviator"

    def step_batch(self, batch, states, sampler, rng):
        return np.zeros_like(batch.opinions)


class TestFlipAccounting:
    def test_flips_counted_after_source_repin(self):
        # All agents already hold 1. The protocol proposes all-zeros; the
        # engine re-pins the source, so the *published* vector flips only the
        # 9 non-source agents. Counting before the pin would report 10.
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        engine = SynchronousEngine(SourceDeviatorProtocol(), pop, rng=0)
        record = engine.step()
        assert record.flips == 9

    def test_steady_source_not_a_flip(self):
        # From the all-correct configuration a constant-correct protocol
        # publishes an identical vector: zero flips, source included.
        pop = make_population(10, 1)
        pop.set_opinions(np.ones(10, dtype=np.uint8))
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        assert engine.step().flips == 0


class TestStabilityValidation:
    def test_zero_stability_rejected(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        with pytest.raises(ValueError):
            engine.run(10, stability_rounds=0)

    def test_negative_stability_rejected(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        with pytest.raises(ValueError):
            engine.run(10, stability_rounds=-3)


def _never(population: PopulationState) -> bool:
    return False


class TestSingleReplicaView:
    """``SynchronousEngine`` is the R=1 case of the lock-step driver; these
    pin the contract its callers rely on."""

    def _fet_engine(self, n=200, ell=12, seed=5):
        pop = make_population(n, 1)
        proto = FETProtocol(ell)
        return SynchronousEngine(proto, pop, rng=make_rng(seed), initializer=AllWrong())

    def test_population_and_state_mutated_in_place(self):
        engine = self._fet_engine()
        pop, state = engine.population, engine.state
        before = state["prev_count"].copy()
        result = engine.run(3, stop_condition=_never)
        assert engine.population is pop and engine.state is state
        assert pop.fraction_ones() == pytest.approx(result.final_fraction)
        assert not np.array_equal(state["prev_count"], before)
        assert engine.round_index == 3

    def test_second_run_continues_from_first(self):
        engine = self._fet_engine()
        engine.run(4, stop_condition=_never)
        # A twin built from the first run's final opinions, state and rng
        # position must replay the second run exactly.
        twin = SynchronousEngine(
            engine.protocol,
            engine.population.copy(),
            rng=copy.deepcopy(engine.rng),
            state={key: value.copy() for key, value in engine.state.items()},
        )
        x_mid = engine.population.fraction_ones()
        second = engine.run(400)
        replay = twin.run(400)
        assert second.trajectory[0] == pytest.approx(x_mid)
        assert np.array_equal(second.trajectory, replay.trajectory)
        assert second.converged and second.rounds == replay.rounds

    def test_source_preferences_changed_between_calls_are_read(self):
        # Everyone proposes 0; only the pinned source can hold 1.
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        assert engine.step().flips == 0 and pop.opinions[0] == 1

        def flip_environment(opinion):
            pop.correct_opinion = opinion
            pop.source_preferences[pop.source_mask] = opinion

        flip_environment(0)
        result = engine.run(5, stability_rounds=1)
        # Each run pins sources to the live preference before round 0.
        assert result.converged and result.rounds == 0
        flip_environment(1)
        record = engine.step()
        assert record.flips == 1 and pop.opinions[0] == 1
        assert (pop.opinions[1:] == 0).all()

    def test_scalar_stop_condition_sees_population_state(self):
        seen = []

        def condition(population):
            seen.append(type(population))
            return population.nonsource_correct_fraction() >= 0.5

        engine = self._fet_engine()
        result = engine.run(400, stability_rounds=1, stop_condition=condition)
        assert result.converged
        assert set(seen) == {PopulationState}
        assert engine.population.nonsource_correct_fraction() >= 0.5

    def test_record_flips_equal_per_round_flip_counts(self):
        run_engine = self._fet_engine()
        step_engine = self._fet_engine()
        result = run_engine.run(25, record_flips=True, stop_condition=_never)
        records = [step_engine.step() for _ in range(25)]
        assert result.flips.tolist() == [record.flips for record in records]
        assert np.allclose(result.trajectory[1:], [record.x_after for record in records])
        assert np.array_equal(run_engine.population.opinions, step_engine.population.opinions)


_EQUIVALENCE_CELLS = {
    "index-sampler": dict(
        protocol={"name": "fet", "ell": 10}, n=120, sampler={"name": "index"}, max_rounds=300
    ),
    "noisy-fet": dict(protocol={"name": "fet", "ell": 12}, n=150, noise=0.02, max_rounds=300),
    "frozen-unanimity-witness": dict(
        protocol={"name": "fet"},
        n=64,
        initializer={"name": "frozen-unanimity", "opinion": 1},
        population={"name": "majority", "k0": 3, "k1": 2},
        correct_opinion=0,
        max_rounds=60,
    ),
    # No count model: this is their only cross-engine check.
    "clock-sync": dict(protocol={"name": "clock-sync", "ell": 5}, n=120, max_rounds=1200),
    "oracle-clock": dict(protocol={"name": "oracle-clock", "ell": 1}, n=120, max_rounds=300),
    # Crafted starts, initialized per trial by apply_batch on a one-row batch.
    "zero-speed-center": dict(
        protocol={"name": "fet", "ell": 12},
        n=150,
        initializer={"name": "zero-speed-center"},
        max_rounds=600,
    ),
    "two-round": dict(
        protocol={"name": "fet", "ell": 12},
        n=150,
        initializer={"name": "two-round", "x_prev": 0.9, "x_now": 0.1},
        max_rounds=600,
    ),
}


@pytest.mark.parametrize("cell", sorted(_EQUIVALENCE_CELLS))
def test_sequential_and_batched_agree_in_distribution(cell):
    """engine="sequential" (one R=1 lock-step run per trial stream) and
    engine="batched" draw different streams but the same distribution."""
    stats = {
        engine: RunSpec(**_EQUIVALENCE_CELLS[cell], trials=40, seed=11, engine=engine).execute()
        for engine in ("sequential", "batched")
    }
    seq, bat = stats["sequential"], stats["batched"]
    assert (seq.engine, bat.engine) == ("sequential", "batched")
    table = [[s.successes, s.trials - s.successes] for s in (seq, bat)]
    assert scipy_stats.fisher_exact(table).pvalue > 1e-3
    if cell == "frozen-unanimity-witness":
        # Section 1.2: no passive protocol escapes the frozen unanimity.
        assert seq.successes == bat.successes == 0
    else:
        assert min(seq.successes, bat.successes) >= 30
        assert scipy_stats.ks_2samp(seq.times, bat.times).pvalue > 1e-3
