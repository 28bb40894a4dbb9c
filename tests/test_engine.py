"""Tests for the synchronous round engine."""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import never, run_results
from repro.config import RunSpec
from repro.core.engine import SynchronousEngine
from repro.core.population import make_population
from repro.core.protocol import Protocol
from repro.core.rng import make_rng
from repro.initializers.standard import AllWrong, RandomizeProtocolState
from repro.protocols.clock_sync import ClockSyncProtocol
from repro.protocols.fet import FETProtocol, ell_for
from repro.protocols.voter import VoterProtocol

DATA = Path(__file__).parent / "data"


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
    def test_runs_count_rounds(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        engine.run(1, stop_condition=never)
        engine.run(1, stop_condition=never)
        assert engine.round_index == 2

    def test_one_round_trajectory_and_flips(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        result = engine.run(1, record_flips=True, stop_condition=never)
        assert result.trajectory.tolist() == pytest.approx([0.1, 1.0])
        assert result.flips.tolist() == [9]

    def test_source_pinned_by_engine(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        engine.run(1, stop_condition=never)
        assert pop.opinions[0, 0] == 1  # source re-pinned after each round

    def test_engine_pins_at_construction(self):
        pop = make_population(10, 1)
        pop.opinions[0, 0] = 0  # sloppy caller corrupts the source
        SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        assert pop.opinions[0, 0] == 1


class TestRun:
    def test_converges_with_constant_correct(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(50)
        assert result.converged
        assert result.rounds == 1  # first all-correct round

    def test_never_converges_with_wrong_constant(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(0), pop, rng=0).run(20)
        assert not result.converged
        assert result.rounds == 20

    def test_flipflop_never_converges(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(FlipFlopProtocol(), pop, rng=0).run(30)
        assert not result.converged

    def test_trajectory_includes_initial(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(50)
        assert result.trajectory[0] == pytest.approx(0.1)
        assert result.trajectory[-1] == pytest.approx(1.0)

    def test_stability_window_respected(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(50, stability_rounds=4)
        assert result.converged
        # Convergence time reported is still the first all-correct round.
        assert result.rounds == 1
        # Engine had to actually observe 4 consecutive all-correct rounds.
        assert len(result.trajectory) >= 4

    def test_already_converged_start(self):
        pop = make_population(10, 1)
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(50)
        assert result.converged
        assert result.rounds == 0

    def test_zero_max_rounds(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(0, stability_rounds=1)
        assert not result.converged  # no stability evidence gathered

    def test_negative_max_rounds_rejected(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        with pytest.raises(ValueError):
            engine.run(-1)

    def test_record_flips(self):
        pop = make_population(10, 1)
        result = SynchronousEngine(ConstantProtocol(1), pop, rng=0).run(50, record_flips=True)
        assert result.flips.size >= 1
        assert result.flips[0] == 9

    def test_custom_stop_condition(self):
        pop = make_population(10, 1)
        engine = SynchronousEngine(FlipFlopProtocol(), pop, rng=0)
        result = engine.run(
            30,
            stability_rounds=1,
            stop_condition=lambda rows: rows.fraction_ones() > 0.5,
        )
        assert result.converged
        assert result.rounds == 1  # first flip sends everyone (but source) to 1


class TestEngineWithFET:
    def test_reproducible_with_seed(self):
        def run_once():
            pop = make_population(300, 1)
            proto = FETProtocol(20)
            rng = make_rng(99)
            state = proto.init_state_batch(1, 300, rng)
            return SynchronousEngine(proto, pop, rng=rng, state=state).run(500)

        r1, r2 = run_once(), run_once()
        assert r1.rounds == r2.rounds
        assert np.array_equal(r1.trajectory, r2.trajectory)

    def test_fet_absorbing_after_two_correct_rounds(self):
        """Two all-correct rounds are provably absorbing for FET."""
        n = 200
        pop = make_population(n, 1)
        pop.set_opinions(np.ones((1, n), dtype=np.uint8))
        proto = FETProtocol(10)
        state = {"prev_count": np.full((1, n), 10, dtype=np.int64)}  # as after an all-1 round
        result = SynchronousEngine(proto, pop, rng=0, state=state).run(50)
        assert result.converged
        assert (result.trajectory == 1.0).all()

    def test_pairs_shape(self):
        pop = make_population(100, 1)
        proto = FETProtocol(10)
        result = SynchronousEngine(proto, pop, rng=1).run(100)
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
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        engine = SynchronousEngine(SourceDeviatorProtocol(), pop, rng=0)
        result = engine.run(1, record_flips=True, stop_condition=never)
        assert result.flips.tolist() == [9]

    def test_steady_source_not_a_flip(self):
        # From the all-correct configuration a constant-correct protocol
        # publishes an identical vector: zero flips, source included.
        pop = make_population(10, 1)
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        engine = SynchronousEngine(ConstantProtocol(1), pop, rng=0)
        assert engine.run(1, record_flips=True, stop_condition=never).flips.tolist() == [0]


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
        result = engine.run(3, stop_condition=never)
        assert engine.population is pop and engine.state is state
        assert pop.fraction_ones()[0] == pytest.approx(result.final_fraction)
        assert not np.array_equal(state["prev_count"], before)
        assert engine.round_index == 3

    def test_second_run_continues_from_first(self):
        engine = self._fet_engine()
        engine.run(4, stop_condition=never)
        # A twin built from the first run's final opinions, state and rng
        # position must replay the second run exactly.
        twin = SynchronousEngine(
            engine.protocol,
            engine.population.copy(),
            rng=copy.deepcopy(engine.rng),
            state={key: value.copy() for key, value in engine.state.items()},
        )
        x_mid = engine.population.fraction_ones()[0]
        second = engine.run(400)
        replay = twin.run(400)
        assert second.trajectory[0] == pytest.approx(x_mid)
        assert np.array_equal(second.trajectory, replay.trajectory)
        assert second.converged and second.rounds == replay.rounds

    def test_source_preferences_changed_between_calls_are_read(self):
        # Everyone proposes 0; only the pinned source can hold 1.
        pop = make_population(10, 1)
        engine = SynchronousEngine(ConstantProtocol(0), pop, rng=0)
        first = engine.run(1, record_flips=True, stop_condition=never)
        assert first.flips.tolist() == [0] and pop.opinions[0, 0] == 1

        def flip_environment(opinion):
            pop.correct_opinion = opinion
            pop.source_preferences[pop.source_mask] = opinion

        flip_environment(0)
        result = engine.run(5, stability_rounds=1)
        # Each run pins sources to the live preference before round 0.
        assert result.converged and result.rounds == 0
        flip_environment(1)
        last = engine.run(1, record_flips=True, stop_condition=never)
        # The source moved to 1 when the run pinned it, before round 0.
        assert last.trajectory.tolist() == pytest.approx([0.1, 0.1])
        assert last.flips.tolist() == [0] and pop.opinions[0, 0] == 1
        assert (pop.opinions[0, 1:] == 0).all()

    def test_stop_condition_sees_the_one_row_batch(self):
        seen = []

        def condition(rows):
            seen.append(rows.opinions.shape)
            return rows.nonsource_correct_fraction() >= 0.5

        engine = self._fet_engine()
        result = engine.run(400, stability_rounds=1, stop_condition=condition)
        assert result.converged
        assert set(seen) == {(1, 200)}
        assert engine.population.nonsource_correct_fraction()[0] >= 0.5

    def test_rejects_a_multi_row_batch(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError, match="one row"):
            SynchronousEngine(ConstantProtocol(1), pop.select(np.zeros(2, dtype=int)), rng=0)

    def test_chained_one_round_runs_replay_one_long_run(self):
        long_engine = self._fet_engine()
        chained_engine = self._fet_engine()
        result = long_engine.run(25, record_flips=True, stop_condition=never)
        rounds = [
            chained_engine.run(1, record_flips=True, stop_condition=never) for _ in range(25)
        ]
        assert result.flips.tolist() == [r.flips[0] for r in rounds]
        assert np.array_equal(result.trajectory[1:], [r.trajectory[1] for r in rounds])
        assert np.array_equal(
            long_engine.population.opinions, chained_engine.population.opinions
        )


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


_RECORDED_CASES = [
    ("fet", 64), ("fet", 200), ("voter", 64), ("voter", 128), ("clock-sync", 96),
    ("clock-sync", 200),
]
_RECORDED_INITIALIZERS = {"all-wrong": AllWrong, "randomize-state": RandomizeProtocolState}


def _recorded_protocol(name, n):
    if name == "fet":
        return FETProtocol(ell_for(n))
    if name == "voter":
        return VoterProtocol()
    return ClockSyncProtocol(n, ell=3)


def _record_synchronous_runs() -> dict:
    """The runs held in ``tests/data/synchronous_runs.npz``: per case, a
    2-round first run and a chained second run to any consensus (at most
    ``3n`` rounds), then a 3-trial ``engine="sequential"`` FET cell."""
    out = {}
    for i, (name, n) in enumerate(_RECORDED_CASES):
        for j, init in enumerate(sorted(_RECORDED_INITIALIZERS)):
            key = f"{name}-{n}-{init}"
            engine = SynchronousEngine(
                _recorded_protocol(name, n),
                make_population(n, 1),
                rng=1000 + 10 * i + j,
                initializer=_RECORDED_INITIALIZERS[init](),
            )
            first = engine.run(2, record_flips=True, stop_condition=never)
            out[key + "/first_trajectory"] = first.trajectory
            out[key + "/first_flips"] = first.flips
            out[key + "/mid_opinions"] = engine.population.opinions[0].copy()
            second = engine.run(3 * n, stop_condition=lambda rows: rows.at_consensus())
            out[key + "/second_trajectory"] = second.trajectory
            out[key + "/second_outcome"] = np.array(
                [second.converged, second.rounds, engine.round_index]
            )
            out[key + "/final_opinions"] = engine.population.opinions[0].copy()
            for name_, value in engine.state.items():
                out[key + "/final_state/" + name_] = value[0].copy()
    spec = RunSpec(
        protocol={"name": "fet"},
        n=150,
        trials=3,
        seed=7,
        engine="sequential",
        initializer={"name": "zero-speed-center"},
    )
    _, results = run_results(spec)
    out["sequential-fet/rounds"] = np.array([r.rounds for r in results])
    out["sequential-fet/converged"] = np.array([r.converged for r in results])
    return out


def test_synchronous_runs_match_recording():
    """Every draw of a live population's run — the ``init_state_batch``,
    ``apply_batch`` and dynamics calls on the engine's rng, in that order —
    and of a sequential cell's trials is pinned bitwise to a recording."""
    runs = _record_synchronous_runs()
    with np.load(DATA / "synchronous_runs.npz") as recorded:
        assert sorted(recorded.files) == sorted(runs)
        for key, value in runs.items():
            assert np.array_equal(value, recorded[key]), key
