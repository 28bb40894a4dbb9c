"""Trace subsystem: recorders, measures, engine integration, migrations.

The contract under test: the batched engine plus a trace recorder must
reproduce, per replica, exactly what a per-trial sequential engine would have
logged — trajectories trimmed to executed rounds, rows frozen at retirement,
flip totals preserved under stride, ring windows identical to the full
trace's tail — and the vectorized trace measures must agree with the
sequential per-step measurement logic on identical per-replica streams.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import never, run_results, tiled
from repro.config import RunSpec
from repro.core.batch import BatchedEngine
from repro.core.engine import SynchronousEngine
from repro.core.population import make_population
from repro.core.protocol import Protocol
from repro.experiments.transitions import collect_transitions
from repro.initializers.standard import AllWrong
from repro.protocols.fet import FETProtocol, ell_for
from repro.sweep import ResultsStore, SweepSpec, measure_kinds, register_measure, run_sweep
from repro.trace import (
    BatchTrace,
    FullTrace,
    RingBufferTrace,
    nonsource_correct_fractions,
    post_settle_flip_rate,
    settle_rounds,
    time_to_threshold,
    window_mean_after,
)


class GrowOneProtocol(Protocol):
    """Deterministic: one more agent adopts 1 each round (staggered retire)."""

    name = "grow-one"

    def step_batch(self, batch, states, sampler, rng):
        new = batch.opinions.copy()
        for row in new:
            zeros = np.nonzero(row == 0)[0]
            if zeros.size:
                row[zeros[0]] = 1
        return new


def _staggered_engine(n=8, replicas=5):
    """Replica r starts with r+1 ones; grow-one retires them in reverse order."""
    pop = make_population(n, 1)
    batch = tiled(pop, replicas)
    for r in range(replicas):
        batch.opinions[r, : r + 1] = 1
    batch.invalidate_cache()
    return BatchedEngine(GrowOneProtocol(), batch, rng=0)


class TestRecorderBasics:
    def test_requires_bind_before_record(self):
        recorder = FullTrace()
        with pytest.raises(RuntimeError, match="not bound"):
            recorder.on_round(0, np.zeros(2))

    def test_single_use(self):
        recorder = FullTrace()
        recorder.bind(replicas=1, n=4, num_sources=1, sources_correct=1,
                      correct_opinion=1, pin_each_round=True)
        with pytest.raises(RuntimeError, match="single-use"):
            recorder.bind(replicas=1, n=4, num_sources=1, sources_correct=1,
                          correct_opinion=1, pin_each_round=True)

    def test_rejects_bad_stride_and_capacity(self):
        with pytest.raises(ValueError):
            FullTrace(stride=0)
        with pytest.raises(ValueError):
            RingBufferTrace(0)

    def test_flip_channel_demands_flips(self):
        recorder = FullTrace(record_flips=True)
        recorder.bind(replicas=1, n=4, num_sources=1, sources_correct=1,
                      correct_opinion=1, pin_each_round=True)
        with pytest.raises(ValueError, match="flips"):
            recorder.on_round(0, np.zeros(1), None)

    def test_empty_trace_shapes(self):
        recorder = FullTrace(record_flips=True)
        recorder.bind(replicas=3, n=4, num_sources=1, sources_correct=1,
                      correct_opinion=1, pin_each_round=True)
        trace = recorder.trace()
        assert trace.x.shape == (3, 0)
        assert trace.flips.shape == (3, 0)
        assert trace.columns == 0


class TestEngineRecording:
    def test_records_deterministic_trajectories(self):
        n, replicas = 8, 5
        recorder = FullTrace(record_flips=True)
        engine = _staggered_engine(n, replicas)
        result = engine.run(100, stability_rounds=1, recorder=recorder)
        trace = recorder.trace()
        horizon = int(result.rounds_executed.max())  # slowest replica: 7 rounds
        assert horizon == n - 1
        assert np.array_equal(trace.rounds, np.arange(horizon + 1))
        for r in range(replicas):
            expected = np.minimum((r + 1 + np.arange(horizon + 1)) / n, 1.0)
            assert np.allclose(trace.x[r], expected)

    def test_retirement_freezes_rows_and_flips(self):
        n, replicas = 8, 5
        recorder = FullTrace(record_flips=True)
        engine = _staggered_engine(n, replicas)
        result = engine.run(100, stability_rounds=1, recorder=recorder)
        trace = recorder.trace()
        for r in range(replicas):
            t_con = int(result.rounds[r])
            # frozen at the final value from retirement on
            assert (trace.x[r, t_con:] == 1.0).all()
            # exactly one flip per executed round, none after retirement
            assert (trace.flips[r, 1 : t_con + 1] == 1).all()
            assert (trace.flips[r, t_con + 1 :] == 0).all()
            assert trace.flips[r, 0] == 0

    def test_to_run_results_matches_sequential_exactly(self):
        n, replicas = 8, 5
        recorder = FullTrace(record_flips=True)
        engine = _staggered_engine(n, replicas)
        result = engine.run(100, stability_rounds=1, recorder=recorder)
        results = recorder.trace().to_run_results(result)
        for r, batched in enumerate(results):
            pop = make_population(n, 1)
            pop.opinions[0, : r + 1] = 1
            pop.invalidate_cache()
            sequential = SynchronousEngine(GrowOneProtocol(), pop, rng=0).run(
                100, stability_rounds=1, record_flips=True
            )
            assert batched.converged == sequential.converged
            assert batched.rounds == sequential.rounds
            assert np.array_equal(batched.trajectory, sequential.trajectory)
            assert np.array_equal(batched.flips, sequential.flips)

    def test_sequential_engine_recorder_matches_run_result(self):
        pop = make_population(200, 1)
        rng_seed = 3
        protocol = FETProtocol(24)
        state = protocol.init_state_batch(1, 200, np.random.default_rng(rng_seed))
        recorder = FullTrace(record_flips=True)
        engine = SynchronousEngine(protocol, pop, rng=rng_seed, state=state)
        result = engine.run(400, recorder=recorder, record_flips=True)
        trace = recorder.trace()
        assert trace.replicas == 1
        assert np.array_equal(trace.x[0], result.trajectory)
        assert np.array_equal(trace.flips[0, 1:], result.flips)

    def test_linger_keeps_stepping_after_lock(self):
        # grow-one, stop at x >= 1/2 (round 3 from one source), linger 2:
        # convergence accounting locks at round 3 but rounds 4 and 5 still
        # execute, so the trace keeps rising through the linger window.
        n = 8
        pop = make_population(n, 1)
        batch = tiled(pop, 2)
        recorder = FullTrace()
        engine = BatchedEngine(GrowOneProtocol(), batch, rng=0)
        result = engine.run(
            100,
            stability_rounds=1,
            stop_condition=lambda b: b.fraction_ones() >= 0.5,
            recorder=recorder,
            linger_rounds=2,
        )
        assert result.converged.all()
        assert (result.rounds == 3).all()
        assert (result.rounds_executed == 5).all()
        trace = recorder.trace()
        assert np.allclose(trace.x[0], (1 + np.arange(6)) / n)
        level = window_mean_after(trace.x, trace.rounds, result.rounds, 2)
        assert level[0] == pytest.approx((5 / 8 + 6 / 8) / 2)

    def test_linger_may_exceed_max_rounds(self):
        # Lock lands on the final budgeted round; the settle window runs past
        # max_rounds exactly like sequential settle stepping does.
        n = 8
        engine = BatchedEngine(GrowOneProtocol(), make_population(n, 1), rng=0)
        result = engine.run(
            3,
            stability_rounds=1,
            stop_condition=lambda b: b.fraction_ones() >= 0.5,
            linger_rounds=4,
        )
        assert result.converged.all()
        assert result.rounds[0] == 3
        assert result.rounds_executed[0] == 7

    def test_rejects_negative_linger(self):
        engine = BatchedEngine(GrowOneProtocol(), make_population(8, 1), rng=0)
        with pytest.raises(ValueError):
            engine.run(10, linger_rounds=-1)


def _two_identical_runs(recorder_a, recorder_b, *, max_rounds=400):
    """Run the same seeded FET batch twice, once per recorder."""
    for recorder in (recorder_a, recorder_b):
        pop = make_population(150, 1)
        batch = tiled(pop, 6)
        engine = BatchedEngine(FETProtocol(20), batch, rng=42)
        engine.run(max_rounds, recorder=recorder)
    return recorder_a.trace(), recorder_b.trace()


class TestStrideAndRing:
    def test_stride_downsamples_exactly(self):
        full, strided = _two_identical_runs(
            FullTrace(record_flips=True), FullTrace(stride=3, record_flips=True)
        )
        last = int(full.rounds[-1])
        expected_rounds = list(range(0, last + 1, 3))
        if expected_rounds[-1] != last:
            expected_rounds.append(last)  # final round flushed as partial tail
        assert strided.rounds.tolist() == expected_rounds
        assert np.array_equal(strided.x, full.x[:, strided.rounds])

    def test_stride_preserves_flip_totals(self):
        full, strided = _two_identical_runs(
            FullTrace(record_flips=True), FullTrace(stride=3, record_flips=True)
        )
        # Column k of the strided flip channel covers rounds
        # (rounds[k-1], rounds[k]] — including a partial tail column — so
        # downsampling loses no flips at all.
        for k in range(1, strided.columns):
            lo = int(strided.rounds[k - 1]) + 1
            hi = int(strided.rounds[k]) + 1
            assert np.array_equal(strided.flips[:, k], full.flips[:, lo:hi].sum(axis=1))
        assert (strided.flips[:, 0] == 0).all()
        assert strided.flips.sum() == full.flips.sum()

    def test_stride_flushes_final_round(self):
        # A deterministic run ending off-stride: grow-one from one source on
        # n=8 executes 7 rounds; stride 4 records rounds 0, 4 and must flush
        # round 7 (with the flips of rounds 5-7) rather than drop them.
        recorder = FullTrace(stride=4, record_flips=True)
        _staggered_engine(replicas=1).run(100, stability_rounds=1, recorder=recorder)
        trace = recorder.trace()
        assert trace.rounds.tolist() == [0, 4, 7]
        assert trace.x[0].tolist() == [1 / 8, 5 / 8, 1.0]
        assert trace.flips[0].tolist() == [0, 4, 3]
        # flushing is idempotent
        assert recorder.trace().rounds.tolist() == [0, 4, 7]

    def test_ring_equals_full_tail(self):
        full, ring = _two_identical_runs(
            FullTrace(record_flips=True), RingBufferTrace(5, record_flips=True)
        )
        assert ring.columns == 5
        assert np.array_equal(ring.rounds, full.rounds[-5:])
        assert np.array_equal(ring.x, full.x[:, -5:])
        assert np.array_equal(ring.flips, full.flips[:, -5:])

    def test_unwrapped_ring_equals_full(self):
        full, ring = _two_identical_runs(FullTrace(), RingBufferTrace(100_000))
        assert np.array_equal(ring.rounds, full.rounds)
        assert np.array_equal(ring.x, full.x)

    def test_strided_ring_composes(self):
        full, ring = _two_identical_runs(
            FullTrace(stride=2), RingBufferTrace(4, stride=2)
        )
        assert np.array_equal(ring.rounds, full.rounds[-4:])
        assert np.array_equal(ring.x, full.x[:, -4:])

    def test_make_recorder_factory(self):
        from repro.trace import make_recorder

        full = make_recorder(stride=2, record_flips=True)
        assert isinstance(full, FullTrace) and full.stride == 2 and full.record_flips
        ring = make_recorder(ring=16)
        assert isinstance(ring, RingBufferTrace) and ring.capacity == 16

    def test_to_run_results_rejects_partial_traces(self):
        for recorder in (FullTrace(stride=2), RingBufferTrace(2)):
            engine = BatchedEngine(GrowOneProtocol(), make_population(8, 1), rng=0)
            result = engine.run(100, stability_rounds=1, recorder=recorder)
            with pytest.raises(ValueError):
                recorder.trace().to_run_results(result)


def _toy_trace(x, flips=None, *, n=10, num_sources=1, sources_correct=1,
               correct_opinion=1, pin=True, stride=1, rounds=None):
    x = np.asarray(x, dtype=float)
    return BatchTrace(
        x=x,
        rounds=np.arange(x.shape[1]) if rounds is None else np.asarray(rounds),
        flips=None if flips is None else np.asarray(flips, dtype=np.int64),
        stride=stride,
        meta={
            "replicas": x.shape[0],
            "n": n,
            "num_sources": num_sources,
            "sources_correct": sources_correct,
            "correct_opinion": correct_opinion,
            "pin_each_round": pin,
        },
    )


class TestMeasures:
    def test_nonsource_correct_affine(self):
        trace = _toy_trace([[0.1, 0.5, 1.0]], n=10)
        # one source pinned correct: nonsource correct = (ones - 1) / 9
        assert np.allclose(nonsource_correct_fractions(trace)[0], [0.0, 4 / 9, 1.0])

    def test_nonsource_correct_side_zero(self):
        # correct opinion 0: correct count = n - ones
        trace = _toy_trace([[0.1, 0.0]], n=10, correct_opinion=0)
        assert np.allclose(nonsource_correct_fractions(trace)[0], [8 / 9, 1.0])

    def test_nonsource_correct_requires_pinning(self):
        trace = _toy_trace([[0.5]], pin=False)
        with pytest.raises(ValueError, match="pinned"):
            nonsource_correct_fractions(trace)

    def test_time_to_threshold(self):
        values = np.array([[0.1, 0.4, 0.9, 0.95], [0.1, 0.2, 0.3, 0.4]])
        rounds = np.arange(4)
        assert time_to_threshold(values, rounds, 0.9).tolist() == [2, -1]

    def test_time_to_threshold_respects_round_labels(self):
        values = np.array([[0.1, 0.95]])
        assert time_to_threshold(values, np.array([0, 6]), 0.9).tolist() == [6]

    def test_window_mean_after(self):
        values = np.array([[0.0, 0.2, 0.4, 0.6, 0.8]])
        rounds = np.arange(5)
        # start 1, window 2 -> rounds 2 and 3
        assert window_mean_after(values, rounds, np.array([1]), 2)[0] == pytest.approx(0.5)
        # start -1 (never) and empty windows are NaN
        assert np.isnan(window_mean_after(values, rounds, np.array([-1]), 2)[0])
        assert np.isnan(window_mean_after(values, rounds, np.array([1]), 0)[0])
        # window reaching past the trace averages what exists
        assert window_mean_after(values, rounds, np.array([3]), 10)[0] == pytest.approx(0.8)

    def test_settle_rounds(self):
        values = np.array([[0.1, 0.9, 1.0, 1.0, 1.0], [0.2, 0.2, 0.2, 0.2, 0.2]])
        rounds = np.arange(5)
        assert settle_rounds(values, rounds).tolist() == [2, 0]
        assert settle_rounds(values, rounds, tolerance=0.2)[0] == 1

    def test_post_settle_flip_rate(self):
        trace = _toy_trace(
            [[0.5, 0.5, 0.5, 0.5]],
            flips=[[0, 4, 2, 6]],
            rounds=np.arange(4),
        )
        # settle at round 1 -> flips over rounds 2..3 = 8 across 2 rounds
        rate = post_settle_flip_rate(trace, np.array([1]))
        assert rate[0] == pytest.approx(4.0)
        # settle at the last round -> nothing after -> NaN
        assert np.isnan(post_settle_flip_rate(trace, np.array([3]))[0])

    def test_post_settle_flip_rate_needs_channel(self):
        with pytest.raises(ValueError, match="flip channel"):
            post_settle_flip_rate(_toy_trace([[0.5, 0.5]]))


class TestThetaAgreement:
    """Settle/θ trace measures vs the sequential per-step logic."""

    def test_exact_on_identical_streams(self):
        # Record noisy sequential FET runs round by round; the vectorized
        # trace measures and a plain per-trial reimplementation of the
        # sequential θ/settle logic must agree exactly on the same streams.
        from repro.core.noise import BatchedNoisyCountSampler

        theta, window, max_rounds = 0.9, 8, 120
        curves = []
        for seed in range(6):
            protocol = FETProtocol(24)
            pop = make_population(200, 1)
            engine = SynchronousEngine(
                protocol,
                pop,
                sampler=BatchedNoisyCountSampler(0.1),
                rng=np.random.default_rng(seed),
                initializer=AllWrong(),
            )
            recorder = FullTrace()
            engine.run(max_rounds, stop_condition=never, recorder=recorder)
            curves.append(nonsource_correct_fractions(recorder.trace())[0])
        values = np.asarray(curves)
        rounds = np.arange(max_rounds + 1)

        hits = time_to_threshold(values, rounds, theta)
        settle = window_mean_after(values, rounds, hits, window)

        for r in range(values.shape[0]):
            # reference: the sequential measure's own definition
            hit = next((t for t in range(max_rounds + 1) if values[r, t] >= theta), -1)
            assert hits[r] == hit
            if hit >= 0 and hit + 1 <= max_rounds:
                expected = float(np.mean(values[r, hit + 1 : hit + 1 + window]))
                assert settle[r] == pytest.approx(expected, abs=1e-12)

    def test_sweep_theta_batched_vs_sequential(self):
        kwargs = dict(
            axes={
                "protocol": [{"name": "fet", "ell": 24}],
                "n": [200],
                "noise": [0.1],
                "initializer": ["all-wrong"],
            },
            trials=30,
            max_rounds=300,
            stability_rounds=1,
            seed=11,
            measure={"kind": "theta", "theta": 0.9, "settle_window": 10},
        )
        rows = {}
        for engine in ("batched", "sequential"):
            out = run_sweep(SweepSpec(engine=engine, **kwargs))
            row = out.rows()[0]
            assert row["engine"] == engine
            rows[engine] = row
        # noisy FET reaches theta essentially always; both paths must agree
        assert rows["batched"]["successes"] == rows["sequential"]["successes"] == 30
        assert rows["batched"]["settle"] == pytest.approx(rows["sequential"]["settle"], abs=0.02)
        assert rows["batched"]["median"] == pytest.approx(rows["sequential"]["median"], abs=3)

    @pytest.mark.parametrize("n,engine", [(96, "batched"), (200, "counts")])
    def test_theta_cells_default_to_a_lockstep_engine(self, n, engine):
        # auto runs the count-capable θ cell on counts; batched is the
        # explicit override
        spec = SweepSpec(
            engine="batched" if engine == "batched" else "auto",
            axes={"protocol": [{"name": "fet", "ell": 20}], "n": [n]},
            trials=2,
            max_rounds=300,
            stability_rounds=1,
            measure={"kind": "theta", "theta": 0.9, "settle_window": 4},
        )
        row = run_sweep(spec).rows()[0]
        assert row["engine"] == engine
        assert row["successes"] == 2
        assert row["settle"] == pytest.approx(1.0, abs=0.05)


class TestPerTrialResults:
    def test_batched_per_trial_results_round_trip(self):
        engine, results = run_results(
            RunSpec(
                protocol={"name": "fet", "ell": 20},
                n=150,
                trials=6,
                max_rounds=400,
                seed=9,
                engine="batched",
            )
        )
        assert engine == "batched"
        assert len(results) == 6
        for result in results:
            assert result.converged
            assert result.trajectory[0] == pytest.approx(1 / 150)
            assert result.final_fraction == 1.0
            # trajectory covers exactly the executed rounds (t_con + window - 1)
            assert result.trajectory.shape[0] == result.rounds + 2

    def test_auto_per_trial_results_run_clock_sync_batched(self):
        # Per-trial results never send auto to sequential: the
        # non-count-capable clock-sync still runs batched.
        engine, results = run_results(
            RunSpec(
                protocol={"name": "clock-sync", "ell": 4}, n=64, trials=2, max_rounds=150, seed=4
            )
        )
        assert engine == "batched"
        assert len(results) == 2

    def test_clock_sync_traces_ride_the_batched_engine(self):
        # The last ROADMAP trace follow-on: clock-sync trajectory recording
        # used to pay the per-replica fallback; with step_batch it runs on
        # the batched path, with retired rows frozen at their final value.
        engine, results = run_results(
            RunSpec(
                protocol={"name": "clock-sync", "ell": 4}, n=64, trials=4, max_rounds=300, seed=4
            )
        )
        assert engine == "batched"
        assert len(results) == 4
        for result in results:
            assert result.converged
            assert result.trajectory[0] == pytest.approx(1 / 64)
            assert result.final_fraction == 1.0
            assert result.trajectory.shape[0] >= result.rounds + 1


class TestTransitionsMigration:
    def test_batched_matches_sequential_structure(self):
        kwargs = dict(
            trials_per_init=4, max_rounds=2000, seed=0, delta=0.05
        )
        n, ell = 500, ell_for(500)
        batched = collect_transitions(n, ell, [AllWrong()], engine="batched", **kwargs)
        sequential = collect_transitions(n, ell, [AllWrong()], engine="sequential", **kwargs)
        assert batched.runs == sequential.runs == 4
        assert batched.converged_runs == sequential.converged_runs == 4
        # all-wrong starts in Cyan on both paths, and the chain passes
        # through the same families on its way to Green
        assert set(batched.families()) == set(sequential.families())
        for family in batched.dwell_times:
            assert batched.max_dwell(family) >= 1

    def test_default_engine_is_batched_shaped(self):
        # auto == batched for FET; the default call must accept the kwarg-free
        # form and produce a populated summary (the bench_fig1b call shape).
        summary = collect_transitions(
            300, ell_for(300), [AllWrong()], trials_per_init=2, max_rounds=1500, seed=3
        )
        assert summary.runs == 2 and summary.converged_runs == 2

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            collect_transitions(
                300, 20, [AllWrong()], trials_per_init=1, max_rounds=10, seed=0,
                engine="turbo",
            )


class TestSweepTraceMeasure:
    def test_trace_measure_payload(self):
        spec = SweepSpec(
            axes={"protocol": [{"name": "fet", "ell": 20}], "n": [150]},
            trials=4,
            max_rounds=300,
            measure={"kind": "trace", "flips": True},
        )
        result = run_sweep(spec).results[0]
        payload = result.payload
        assert payload["measure"] == "trace"
        assert payload["engine"] == "batched"
        assert payload["successes"] == 4
        assert payload["final_x_mean"] == pytest.approx(1.0)
        assert len(payload["settle_rounds"]) == 4
        # converged noiseless runs are absorbing: no flips after settling
        assert payload["post_settle_flip_rate"] == pytest.approx(0.0)
        row = result.row()
        assert row["successes"] == 4 and np.isnan(row["settle"])

    def test_trace_measure_ring_and_stride(self):
        spec = SweepSpec(
            axes={"protocol": [{"name": "fet", "ell": 20}], "n": [150]},
            trials=3,
            max_rounds=300,
            measure={"kind": "trace", "stride": 2, "ring": 8},
        )
        payload = run_sweep(spec).results[0].payload
        assert payload["successes"] == 3
        assert payload["recorded_columns"] <= 8

    def test_trace_measure_rejects_sequential_engine(self):
        spec = SweepSpec(
            axes={"protocol": [{"name": "fet", "ell": 20}], "n": [100]},
            trials=2,
            max_rounds=200,
            engine="sequential",
            measure={"kind": "trace"},
        )
        with pytest.raises(ValueError, match="sequential"):
            run_sweep(spec)

    def test_measure_registry_contents(self):
        kinds = measure_kinds()
        assert set(kinds) >= {"consensus", "theta", "trace"}

    def test_register_measure_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_measure("consensus", lambda cell, p, i: {})

    def test_custom_measure_exports_without_successes(self):
        # A payload built to the documented minimum contract (no successes/
        # reached key) must still export: the rate columns degrade to NaN.
        from repro.sweep.runner import CellResult

        result = CellResult(
            key="k",
            cell={"trials": 3, "n": 100, "noise": 0.0},
            payload={
                "measure": "custom",
                "protocol": "fet",
                "initializer": "all-wrong",
                "times": [1.0, 2.0],
                "engine": "batched",
            },
        )
        row = result.row()
        assert np.isnan(row["successes"]) and np.isnan(row["rate"])
        assert row["median"] == pytest.approx(1.5)

    def test_spec_validates_measure_params(self):
        base = dict(axes={"protocol": ["fet"], "n": [100]}, trials=1)
        with pytest.raises(ValueError, match="measure kind"):
            SweepSpec(measure={"kind": "nope"}, **base)
        with pytest.raises(ValueError, match="stride"):
            SweepSpec(measure={"kind": "trace", "stride": 0}, **base)
        with pytest.raises(ValueError, match="ring"):
            SweepSpec(measure={"kind": "trace", "ring": 0}, **base)
        with pytest.raises(ValueError, match="'theta' threshold"):
            SweepSpec(measure={"kind": "theta"}, **base)


class TestStoreProvenance:
    def test_put_stamps_records(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.put("k1", {"cell": {"n": 10}, "payload": {"x": 1}})
        record = ResultsStore(tmp_path / "s.jsonl").get("k1")
        stamp = record["provenance"]
        assert set(stamp) == {"host", "python", "version", "timestamp"}
        from repro import __version__

        assert stamp["version"] == __version__
        assert stamp["timestamp"].startswith("20")

    def test_legacy_records_without_stamp_load(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"key": "old", "cell": {"n": 5}, "payload": {"x": 2}}\n')
        store = ResultsStore(path)
        assert store.get("old")["payload"] == {"x": 2}
        assert "provenance" not in store.get("old")
        # and appending next to legacy lines still works + stamps
        store.put("new", {"cell": {}, "payload": {}})
        reloaded = ResultsStore(path)
        assert "provenance" in reloaded.get("new")
        assert "provenance" not in reloaded.get("old")

    def test_explicit_provenance_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.put("k", {"cell": {}, "payload": {}, "provenance": {"host": "archived"}})
        assert store.get("k")["provenance"] == {"host": "archived"}


class TestVizExport:
    def test_write_trace_csv(self, tmp_path):
        from repro.viz import write_trace_csv

        recorder = FullTrace(record_flips=True)
        _staggered_engine().run(100, stability_rounds=1, recorder=recorder)
        trace = recorder.trace()
        path = write_trace_csv(tmp_path / "t.csv", trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "replica,round,x,flips"
        assert len(lines) == 1 + trace.replicas * trace.columns

    def test_render_batch_trace(self):
        from repro.viz import render_batch_trace

        recorder = FullTrace()
        _staggered_engine().run(100, stability_rounds=1, recorder=recorder)
        trace = recorder.trace()
        text = render_batch_trace(trace)
        assert "mean one-fraction over 5 replica(s)" in text
        with pytest.raises(ValueError, match="reducer"):
            render_batch_trace(trace, reducer="mode")
