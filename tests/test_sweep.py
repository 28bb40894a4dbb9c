"""Tests for the parallel sweep orchestrator (repro.sweep)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.harness import TrialStats
from repro.sweep import (
    Cell,
    ProcessPoolDispatcher,
    ResultsStore,
    SerialDispatcher,
    SweepSpec,
    build_initializer,
    build_protocol,
    execute_cell,
    fet_demo_spec,
    load_spec,
    make_dispatcher,
    run_sweep,
)


def small_spec(seed: int = 7, **overrides) -> SweepSpec:
    """A 4-cell FET grid small enough to execute many times per test run."""
    settings = dict(
        name="test-grid",
        seed=seed,
        trials=3,
        axes={
            "protocol": [{"name": "fet", "ell": 10}],
            "n": [100, 150],
            "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
        },
        max_rounds=400,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


class TestSpecExpansion:
    def test_cross_product_count_and_order(self):
        cells = small_spec().expand()
        assert len(cells) == 4
        # Canonical order: protocol x n x noise x initializer.
        assert [(c.n, c.initializer["name"]) for c in cells] == [
            (100, "all-wrong"),
            (100, "bernoulli"),
            (150, "all-wrong"),
            (150, "bernoulli"),
        ]

    def test_scalar_and_string_normalization(self):
        spec = SweepSpec(axes={"protocol": "voter", "n": 100}, trials=1)
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0].protocol == {"name": "voter"}
        assert cells[0].noise == 0.0
        assert cells[0].initializer == {"name": "all-wrong"}

    def test_zipped_axes_lockstep(self):
        spec = SweepSpec(
            axes={
                "protocol": ["fet"],
                "n": [100, 200, 300],
                "initializer": ["all-wrong", "all-correct", {"name": "fraction", "x": 0.5}],
            },
            zipped=[["n", "initializer"]],
            trials=1,
        )
        cells = spec.expand()
        assert [(c.n, c.initializer["name"]) for c in cells] == [
            (100, "all-wrong"),
            (200, "all-correct"),
            (300, "fraction"),
        ]

    def test_zipped_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SweepSpec(
                axes={"protocol": ["fet"], "n": [100, 200], "initializer": ["all-wrong"]},
                zipped=[["n", "initializer"]],
                trials=1,
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axes"):
            SweepSpec(axes={"protocol": ["fet"], "n": [100], "temperature": [1]}, trials=1)

    def test_missing_required_axis_rejected(self):
        with pytest.raises(ValueError, match="must include"):
            SweepSpec(axes={"protocol": ["fet"]}, trials=1)

    def test_max_rounds_factor_rule(self):
        spec = small_spec(max_rounds=None, max_rounds_factor=40.0, min_rounds=50)
        for cell in spec.expand():
            assert cell.max_rounds == max(50, int(40.0 * np.log(cell.n) ** 2.5))

    def test_round_trips_through_json(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = load_spec(path)
        assert [c.key() for c in loaded.expand()] == [c.key() for c in spec.expand()]

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"axes": {"protocol": ["fet"], "n": [100]}, "trials": 1, "bogus": 2})

    def test_theta_measure_requires_threshold(self):
        with pytest.raises(ValueError, match="'theta' threshold"):
            small_spec(measure={"kind": "theta"})
        with pytest.raises(ValueError, match="theta must be in"):
            small_spec(measure={"kind": "theta", "theta": 1.5})
        with pytest.raises(ValueError, match="settle_window"):
            small_spec(measure={"kind": "theta", "theta": 0.9, "settle_window": -1})


class TestCellSeeds:
    def test_distinct_cells_distinct_seeds(self):
        cells = small_spec().expand()
        assert len({c.seed for c in cells}) == len(cells)

    def test_seed_stable_under_grid_composition(self):
        # A cell keeps its derived seed when the grid around it grows or is
        # reordered — the property that makes stores reusable across specs.
        small = small_spec().expand()
        grown = small_spec(axes={
            "protocol": [{"name": "fet", "ell": 10}],
            "n": [300, 150, 100],
            "initializer": [{"name": "bernoulli", "p": 0.5}, "all-wrong", "all-correct"],
        }).expand()
        by_coords = {(c.n, c.initializer["name"]): c for c in grown}
        for cell in small:
            twin = by_coords[(cell.n, cell.initializer["name"])]
            assert twin.seed == cell.seed
            assert twin.key() == cell.key()

    def test_base_seed_changes_cell_seeds(self):
        a = small_spec(seed=1).expand()
        b = small_spec(seed=2).expand()
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_config_changes_cell_seed(self):
        a = small_spec(trials=3).expand()
        b = small_spec(trials=4).expand()
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_key_covers_seed(self):
        cell = small_spec().expand()[0]
        twin = Cell.from_dict({**cell.to_dict(), "seed": cell.seed + 1})
        assert twin.key() != cell.key()


class TestRegistry:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            build_protocol({"name": "teleport"}, 100)

    def test_unknown_initializer_rejected(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            build_initializer({"name": "chaos"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_protocol({"name": "voter", "ell": 10}, 100)

    def test_fet_ell_defaults_to_paper_rule(self):
        from repro.protocols.fet import ell_for

        assert build_protocol({"name": "fet"}, 1000).ell == ell_for(1000)
        assert build_protocol({"name": "fet", "ell": 5}, 1000).ell == 5

    def test_bad_cell_fails_before_dispatch(self):
        # A typo'd name raises one clear error in the orchestrating process;
        # no pool worker ever sees the cell.
        spec = small_spec(axes={"protocol": [{"name": "ftt"}], "n": [100]})
        with pytest.raises(ValueError, match=r"invalid sweep cell \[ftt n=100.*unknown protocol"):
            run_sweep(spec, jobs=4)
        spec = small_spec(axes={"protocol": ["fet"], "n": [100], "initializer": [{"name": "chaos"}]})
        with pytest.raises(ValueError, match="unknown initializer"):
            run_sweep(spec, jobs=4)

    def test_initializer_spec_round_trip(self):
        from repro.initializers.adversarial import PoisonedCounters, TwoRoundTarget
        from repro.initializers.standard import AllWrong, BernoulliRandom, ExactFraction

        for init in (
            AllWrong(),
            BernoulliRandom(0.25),
            ExactFraction(0.5),
            TwoRoundTarget(0.3, 0.7),
            PoisonedCounters(),
        ):
            rebuilt = build_initializer(init.spec())
            assert rebuilt.name == init.name


class TestDispatchers:
    def test_make_dispatcher(self):
        assert isinstance(make_dispatcher(1), SerialDispatcher)
        assert isinstance(make_dispatcher(3), ProcessPoolDispatcher)
        with pytest.raises(ValueError):
            make_dispatcher(0)

    def test_serial_reports_in_order(self):
        seen = []
        results = SerialDispatcher().map(lambda x: x * x, [1, 2, 3], on_result=lambda i, r: seen.append((i, r)))
        assert results == [1, 4, 9]
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_pool_collects_in_submission_order(self):
        results = ProcessPoolDispatcher(4).map(_square, list(range(8)))
        assert results == [x * x for x in range(8)]

    @pytest.mark.timeout(120)
    def test_consecutive_maps_run_on_the_same_warm_workers(self):
        # two naps in flight at once keep both workers busy, so each map
        # reports every pid of the pool it ran on
        dispatcher = ProcessPoolDispatcher(2)
        first = set(dispatcher.map(_pid_after_nap, [0.2] * 4))
        second = set(dispatcher.map(_pid_after_nap, [0.2] * 4))
        assert len(first) == 2 and os.getpid() not in first
        assert second == first

    @pytest.mark.timeout(120)
    def test_concurrent_maps_never_share_an_executor(self):
        # one idle pool is there for the taking; each map holds its first
        # result until the other map has one too, so both run at once
        ProcessPoolDispatcher(2).map(_pid_after_nap, [0.0])
        barrier = threading.Barrier(2, timeout=60)
        seen: dict[str, set[int]] = {}

        def run(name: str) -> None:
            held: list[int] = []

            def hold(index: int, result: int) -> None:
                if not held:
                    held.append(index)
                    barrier.wait()

            pids = ProcessPoolDispatcher(2).map(_pid_after_nap, [0.1] * 4, on_result=hold)
            seen[name] = set(pids)

        threads = [threading.Thread(target=run, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
        assert set(seen) == {"a", "b"}
        assert seen["a"].isdisjoint(seen["b"])

    @pytest.mark.timeout(120)
    def test_idle_pool_with_a_dead_worker_is_not_handed_out(self):
        from repro.telemetry.ambient import Telemetry, use_telemetry

        dispatcher = ProcessPoolDispatcher(2)
        before = set(dispatcher.map(_pid_after_nap, [0.2] * 2))
        victim = min(before)
        os.kill(victim, signal.SIGKILL)
        _wait_until_dead(victim)
        # a worker that died while idle is no crash of the next map's cells
        with use_telemetry(Telemetry.fresh(["metrics"])) as bundle:
            after = set(dispatcher.map(_pid_after_nap, [0.2] * 2))
        assert after.isdisjoint(before)
        assert bundle.registry.snapshot().total("repro_sweep_worker_crashes_total") == 0

    @pytest.mark.timeout(120)
    def test_warm_workers_start_with_telemetry_off(self):
        from repro.sweep import dispatch
        from repro.telemetry.ambient import Telemetry, use_telemetry

        dispatch._shutdown_idle()  # the next map forks its workers
        with use_telemetry(Telemetry.fresh(["metrics", "events"])):
            inside = ProcessPoolDispatcher(2).map(_ambient_pillars, [0, 1])
        after = ProcessPoolDispatcher(2).map(_ambient_pillars, [0, 1])
        assert inside == after == [(), ()]

    @pytest.mark.timeout(120)
    def test_a_process_with_warm_pools_exits_and_leaves_no_worker(self):
        script = textwrap.dedent(
            """
            import os
            from repro.sweep import SweepSpec, execute_cell, run_sweep

            def cell_on_pid(cell):
                result = execute_cell(cell)
                result.payload["pid"] = os.getpid()
                return result

            spec = SweepSpec(
                name="warm", seed=3, trials=2, max_rounds=200,
                axes={"protocol": [{"name": "fet", "ell": 8}], "n": [60, 80, 100, 120]},
            )
            pids = set()
            for _ in range(2):
                outcome = run_sweep(spec, jobs=2, work_fn=cell_on_pid)
                pids.update(result.payload["pid"] for result in outcome.results)
            print(*sorted(pids))
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=_src_env(), capture_output=True,
            text=True, timeout=90,
        )
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in done.stdout.split()]
        # the second sweep ran on the first sweep's workers
        assert 1 <= len(pids) <= 2
        for pid in pids:
            _wait_until_dead(pid)

    @pytest.mark.timeout(120)
    def test_a_forked_child_does_not_reuse_its_parents_idle_executor(self):
        script = textwrap.dedent(
            """
            import json, os, sys, time
            from repro.sweep import ProcessPoolDispatcher

            def pid_after_nap(seconds):
                time.sleep(seconds)
                return os.getpid()

            def pids():
                return sorted(set(ProcessPoolDispatcher(2).map(pid_after_nap, [0.2] * 2)))

            parent = pids()
            read, write = os.pipe()
            child = os.fork()
            if child == 0:
                os.write(write, json.dumps(pids()).encode())
                sys.exit(0)  # runs the exit hooks, which must not touch the parent's workers
            os.close(write)
            _, status = os.waitpid(child, 0)
            with os.fdopen(read) as pipe:
                in_child = json.loads(pipe.read())
            print(json.dumps({"parent": parent, "child": in_child,
                              "status": status, "again": pids()}))
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=_src_env(), capture_output=True,
            text=True, timeout=90,
        )
        assert done.returncode == 0, done.stderr
        # the child's exit joined only its own workers: nothing on stderr
        assert done.stderr == ""
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen["status"] == 0
        assert len(seen["parent"]) == 2 and len(seen["child"]) == 2
        assert set(seen["child"]).isdisjoint(seen["parent"])
        # the child left its parent's idle executor alone
        assert seen["again"] == seen["parent"]


def _square(x: int) -> int:
    return x * x


def _pid_after_nap(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def _ambient_pillars(_: int) -> tuple[str, ...]:
    from repro.telemetry.ambient import current_telemetry

    return current_telemetry().pillars


def _wait_until_dead(pid: int, seconds: float = 10.0) -> None:
    """Wait for ``pid`` to exit (gone, or a zombie awaiting its reaper)."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                return
        except (OSError, IndexError):
            return
        time.sleep(0.02)
    raise AssertionError(f"process {pid} is still running")


def _src_env() -> dict[str, str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


class TestRunSweep:
    def test_jobs_do_not_change_results(self, tmp_path):
        spec = small_spec()
        serial = run_sweep(spec, jobs=1)
        pooled = run_sweep(spec, jobs=4)
        a = serial.write_csv(tmp_path / "serial.csv")
        b = pooled.write_csv(tmp_path / "pooled.csv")
        assert a.read_bytes() == b.read_bytes()
        for x, y in zip(serial.results, pooled.results):
            assert x.payload == y.payload

    def test_per_agent_cells_are_submitted_first(self, tmp_path):
        # voter resolves to counts from n = 32 on auto, FET only from 100:
        # the submission order puts batched cells first, stable within
        # each group, and the aggregate CSV does not move with it
        spec = SweepSpec(
            name="mixed-engines",
            seed=3,
            trials=3,
            axes={
                "protocol": ["voter", {"name": "fet", "ell": 8}],
                "n": [64, 80],
                "engine": ["auto", "batched", "counts"],
            },
            max_rounds=60,
        )
        submitted = []

        def recording(cell):
            submitted.append(cell)
            return execute_cell(cell)

        serial = run_sweep(spec, jobs=1, work_fn=recording)
        engines = [cell.resolve_engine(cell.build_protocol()) for cell in serial.cells]
        assert "counts" in engines and "batched" in engines
        order = sorted(range(len(engines)), key=lambda index: engines[index] == "counts")
        assert submitted == [serial.cells[index] for index in order]
        pooled = run_sweep(spec, jobs=2)
        a = serial.write_csv(tmp_path / "serial.csv")
        b = pooled.write_csv(tmp_path / "pooled.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_cells_and_results_aligned(self):
        spec = small_spec()
        outcome = run_sweep(spec, jobs=1)
        for cell, result in zip(outcome.cells, outcome.results):
            assert result.key == cell.key()
            assert result.cell["n"] == cell.n

    def test_stats_reconstruction(self):
        outcome = run_sweep(small_spec(), jobs=1)
        stats = outcome.results[0].stats()
        assert isinstance(stats, TrialStats)
        assert stats.trials == 3
        assert stats.successes <= stats.trials

    def test_cache_hit_skips_execution(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        first = run_sweep(spec, jobs=1, store=store)
        assert (first.executed, first.cached) == (4, 0)
        second = run_sweep(spec, jobs=1, store=store)
        assert (second.executed, second.cached) == (0, 4)
        for x, y in zip(first.results, second.results):
            assert x.payload == y.payload

    def test_force_recomputes(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store.jsonl"
        run_sweep(spec, jobs=1, store=store)
        forced = run_sweep(spec, jobs=1, store=store, force=True)
        assert forced.executed == 4

    def test_resume_from_partial_store(self, tmp_path):
        spec = small_spec()
        store_path = tmp_path / "store.jsonl"
        full = run_sweep(spec, jobs=1, store=store_path)
        reference = full.write_csv(tmp_path / "full.csv").read_bytes()

        # Simulate an interrupt: keep 2 completed lines plus a torn tail.
        lines = store_path.read_text().splitlines()
        store_path.write_text("\n".join(lines[:2]) + '\n{"key": "torn-wri')
        resumed = run_sweep(spec, jobs=4, store=store_path)
        assert (resumed.executed, resumed.cached) == (2, 2)
        assert resumed.write_csv(tmp_path / "resumed.csv").read_bytes() == reference

        # The store is whole again afterwards: a third run computes nothing.
        final = run_sweep(spec, jobs=1, store=store_path)
        assert (final.executed, final.cached) == (0, 4)

    def test_store_misses_on_config_change(self, tmp_path):
        store = tmp_path / "store.jsonl"
        run_sweep(small_spec(trials=3), jobs=1, store=store)
        changed = run_sweep(small_spec(trials=4), jobs=1, store=store)
        assert changed.executed == 4

    def test_zero_trial_cells(self):
        outcome = run_sweep(small_spec(trials=0), jobs=1)
        for row in outcome.rows():
            assert row["trials"] == 0
            assert np.isnan(row["rate"])

    def test_noise_axis_uses_noisy_samplers(self):
        spec = SweepSpec(
            axes={
                "protocol": [{"name": "fet", "ell": 15}],
                "n": [200],
                "noise": [0.0, 0.2],
                "initializer": ["all-correct"],
            },
            trials=3,
            max_rounds=60,
            stability_rounds=1,
            seed=3,
        )
        rows = run_sweep(spec, jobs=1).rows()
        # Noiseless all-correct is absorbing; heavy noise destroys retention,
        # so the noisy cell converges (round 0) but these are distinct cells.
        assert rows[0]["noise"] == 0.0 and rows[1]["noise"] == 0.2
        assert rows[0]["successes"] == 3

    def test_theta_measure_rows(self):
        spec = SweepSpec(
            axes={
                "protocol": [{"name": "fet", "ell": 20}],
                "n": [300],
                "noise": [0.0],
                "initializer": ["all-wrong"],
            },
            trials=2,
            max_rounds=500,
            stability_rounds=1,
            engine="sequential",
            measure={"kind": "theta", "theta": 0.9, "settle_window": 5},
            seed=5,
        )
        outcome = run_sweep(spec, jobs=1)
        row = outcome.rows()[0]
        assert row["successes"] == 2
        assert row["settle"] == pytest.approx(1.0, abs=0.05)
        with pytest.raises(ValueError, match="not consensus"):
            outcome.results[0].stats()

    def test_execute_cell_deterministic(self):
        cell = small_spec().expand()[1]
        assert execute_cell(cell).payload == execute_cell(cell).payload


class TestResultsStore:
    def test_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.put("k1", {"cell": {"n": 10}, "payload": {"x": 1}})
        reloaded = ResultsStore(tmp_path / "s.jsonl")
        assert reloaded.get("k1")["payload"] == {"x": 1}
        assert "k1" in reloaded and len(reloaded) == 1

    def test_last_write_wins(self, tmp_path):
        store = ResultsStore(tmp_path / "s.jsonl")
        store.put("k", {"payload": 1})
        store.put("k", {"payload": 2})
        assert ResultsStore(tmp_path / "s.jsonl").get("k")["payload"] == 2

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultsStore(path)
        store.put("good", {"payload": 1})
        with path.open("a") as handle:
            handle.write('{"key": "torn", "payl')
        reloaded = ResultsStore(path)
        assert reloaded.get("good")["payload"] == 1
        assert reloaded.get("torn") is None
        assert reloaded.corrupt_lines == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert len(ResultsStore(tmp_path / "absent.jsonl")) == 0


class TestStoreIntegrity:
    """Per-record checksums and the fsync durability knob."""

    def test_records_carry_verifiable_checksums(self, tmp_path):
        from repro.sweep.store import record_checksum

        path = tmp_path / "s.jsonl"
        ResultsStore(path).put("k", {"cell": {"n": 10}, "payload": {"x": 1}})
        record = json.loads(path.read_text())
        assert record["checksum"] == record_checksum(record)
        reloaded = ResultsStore(path)
        assert reloaded.checksum_failures == 0
        assert reloaded.get("k")["payload"] == {"x": 1}

    def test_corrupted_middle_line_refused_and_recomputed(self, tmp_path):
        # The satellite's acceptance case: flip one payload byte in the
        # *middle* of a store (still valid JSON, still has a key) and the
        # record must be refused at load and recomputed by the next sweep.
        spec = small_spec()
        store_path = tmp_path / "store.jsonl"
        reference = run_sweep(spec, jobs=1, store=store_path)
        reference_csv = reference.write_csv(tmp_path / "ref.csv").read_bytes()

        lines = store_path.read_text().splitlines()
        record = json.loads(lines[1])
        record["payload"]["successes"] = record["payload"]["successes"] + 1
        lines[1] = json.dumps(record, sort_keys=True)
        store_path.write_text("\n".join(lines) + "\n")

        tampered = ResultsStore(store_path)
        assert tampered.checksum_failures == 1
        assert len(tampered) == 3  # the other records still load

        resumed = run_sweep(spec, jobs=1, store=store_path)
        assert (resumed.executed, resumed.cached) == (1, 3)
        assert resumed.write_csv(tmp_path / "res.csv").read_bytes() == reference_csv

    def test_legacy_records_without_checksum_load(self, tmp_path):
        path = tmp_path / "s.jsonl"
        legacy = {"key": "old", "cell": {"n": 5}, "payload": {"x": 2}}
        path.write_text(json.dumps(legacy) + "\n")
        store = ResultsStore(path)
        assert store.get("old")["payload"] == {"x": 2}
        assert store.checksum_failures == 0

    def test_compact_drops_and_reports_checksum_failures(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        store.put("b", {"payload": 2})
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"payload": 1', '"payload": 9')
        path.write_text("\n".join(lines) + "\n")

        summary = ResultsStore(path).compact()
        assert summary["checksum_failures"] == 1
        assert summary["records"] == 1
        # The rewritten file carries only the intact record.
        survivors = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["key"] for r in survivors] == ["b"]
        assert ResultsStore(path).checksum_failures == 0

    def test_durable_store_fsyncs_every_put(self, tmp_path, monkeypatch):
        import os as os_module

        calls = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.sweep.store.os.fsync",
            lambda fd: (calls.append(fd), real_fsync(fd)),
        )
        durable = ResultsStore(tmp_path / "d.jsonl", durable=True)
        durable.put("a", {"payload": 1})
        durable.put("b", {"payload": 2})
        assert len(calls) == 2
        lazy = ResultsStore(tmp_path / "l.jsonl")
        lazy.put("a", {"payload": 1})
        assert len(calls) == 2  # the default store never pays the barrier

    def test_run_sweep_store_is_durable(self, tmp_path, monkeypatch):
        # run_sweep opens path-based stores durable=True so a resume point
        # survives machine crashes, not just process kills.
        import repro.sweep.orchestrator as orchestrator

        opened = []

        class SpyingStore(orchestrator.ResultsStore):
            def __init__(self, path, **kwargs):
                opened.append(kwargs)
                super().__init__(path, **kwargs)

        monkeypatch.setattr(orchestrator, "ResultsStore", SpyingStore)
        run_sweep(small_spec(), jobs=1, store=tmp_path / "store.jsonl")
        assert opened == [{"durable": True}]
