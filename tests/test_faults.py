"""Fault-tolerant sweep execution: retries, timeouts, crash isolation,
failure records, and the deterministic fault-injection harness.

The acceptance contract (ISSUE 6): a sweep with injected worker crashes,
cell exceptions, and hangs completes under ``FaultPolicy(max_retries=2,
timeout=..., on_failure="record")``; successfully-retried cells are bitwise
identical to a fault-free run at any job count; exhausted cells appear as
structured failure records in the store and as ``error`` rows in the CSV;
and no fault aborts the sweep.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.sweep import (
    CellTimeoutError,
    FailedItem,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    InjectedFault,
    ProcessPoolDispatcher,
    ResultsStore,
    SerialDispatcher,
    SweepSpec,
    execute_cell,
    run_sweep,
)

# --------------------------------------------------------------- work fns
# Module-level so they pickle into pool workers.


def _times_ten(x: int) -> int:
    return x * 10


def _pid_after_nap(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


class _MarkingWorker:
    """Records which items ran (as files) and raises on item 0."""

    def __init__(self, mark_dir: Path, sleep: float = 0.3) -> None:
        self.mark_dir = Path(mark_dir)
        self.sleep = sleep

    def __call__(self, item: int) -> int:
        self.mark_dir.mkdir(parents=True, exist_ok=True)
        (self.mark_dir / f"ran_{item}").write_text("")
        if item == 0:
            raise RuntimeError("boom on item 0")
        time.sleep(self.sleep)
        return item


def chaos_spec(seed: int = 7, **overrides) -> SweepSpec:
    """Six fast FET cells: 3 sizes x 2 starts."""
    settings = dict(
        name="chaos-grid",
        seed=seed,
        trials=2,
        axes={
            "protocol": [{"name": "fet", "ell": 8}],
            "n": [60, 90, 120],
            "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
        },
        max_rounds=120,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def record_policy(**overrides) -> FaultPolicy:
    settings = dict(max_retries=2, backoff_base=0.0, on_failure="record")
    settings.update(overrides)
    return FaultPolicy(**settings)


def injector(plan: FaultPlan, cells, tmp_path: Path) -> FaultInjector:
    return FaultInjector(execute_cell, plan, cells, tmp_path / "counters")


# ------------------------------------------------------------ FaultPolicy


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_base"):
            FaultPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="timeout must be positive"):
            FaultPolicy(timeout=0)
        with pytest.raises(ValueError, match="on_failure"):
            FaultPolicy(on_failure="ignore")
        with pytest.raises(ValueError, match="jitter"):
            FaultPolicy(jitter=-1)

    def test_backoff_exponential_with_jitter_bounds(self):
        policy = FaultPolicy(backoff_base=0.1, backoff_max=30.0, jitter=0.5)
        for attempt in (1, 2, 3):
            base = 0.1 * 2 ** (attempt - 1)
            for _ in range(20):
                delay = policy.backoff(attempt)
                assert base <= delay <= base * 1.5

    def test_backoff_capped_and_disabled(self):
        policy = FaultPolicy(backoff_base=1.0, backoff_max=2.0, jitter=0.0)
        assert policy.backoff(10) == 2.0
        assert FaultPolicy(backoff_base=0.0).backoff(1) == 0.0
        with pytest.raises(ValueError, match="attempt"):
            policy.backoff(0)


# -------------------------------------------------------------- FaultPlan


class TestFaultPlan:
    def test_fault_lookup(self):
        plan = FaultPlan(faults={2: {0: "raise", 1: "kill"}})
        assert plan.fault_for(2, 0) == "raise"
        assert plan.fault_for(2, 1) == "kill"
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(0, 0) is None
        assert plan.faulted_cells == (2,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(faults={0: {0: "typo"}})
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultPlan(hang_seconds=-1)

    def test_sample_is_seed_deterministic(self):
        a = FaultPlan.sample(50, seed=3, rate=0.4, kinds=("raise", "kill"))
        b = FaultPlan.sample(50, seed=3, rate=0.4, kinds=("raise", "kill"))
        c = FaultPlan.sample(50, seed=4, rate=0.4, kinds=("raise", "kill"))
        assert a.faults == b.faults
        assert a.faults != c.faults
        assert all(
            kind in ("raise", "kill")
            for per_attempt in a.faults.values()
            for kind in per_attempt.values()
        )

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan.sample(10, seed=0, rate=1.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.sample(10, seed=0, kinds=("explode",))


# ---------------------------------------------------------- FaultInjector


class TestFaultInjector:
    def test_counts_attempts_and_injects_on_planned_ones(self, tmp_path):
        plan = FaultPlan(faults={1: {0: "raise", 2: "raise"}})
        inject = FaultInjector(_times_ten, plan, [5, 6, 7], tmp_path)
        assert inject(5) == 50  # cell 0 never faulted
        with pytest.raises(InjectedFault, match="cell 1, attempt 0"):
            inject(6)
        assert inject(6) == 60  # attempt 1 clean
        with pytest.raises(InjectedFault, match="cell 1, attempt 2"):
            inject(6)
        assert inject.attempts_seen(6) == 3

    def test_round_trips_through_pickle(self, tmp_path):
        plan = FaultPlan(faults={0: {1: "kill"}})
        inject = FaultInjector(_times_ten, plan, [1, 2], tmp_path)
        clone = pickle.loads(pickle.dumps(inject))
        assert clone(2) == 20
        # the clone and the original share the file-based attempt counter
        assert inject.attempts_seen(2) == 1

    def test_plan_beyond_items_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="beyond the item list"):
            FaultInjector(_times_ten, FaultPlan(faults={9: {0: "raise"}}), [1, 2], tmp_path)

    def test_duplicate_item_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="distinct keys"):
            FaultInjector(_times_ten, FaultPlan(), [1, 1], tmp_path)


# ------------------------------------------------- SerialDispatcher faults


class TestSerialDispatcherFaults:
    def test_retry_then_succeed(self, tmp_path):
        plan = FaultPlan(faults={1: {0: "raise"}})
        inject = FaultInjector(_times_ten, plan, [1, 2, 3], tmp_path)
        results = SerialDispatcher().map(inject, [1, 2, 3], policy=record_policy())
        assert results == [10, 20, 30]
        assert inject.attempts_seen(2) == 2

    def test_exhausted_raises_by_default(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "raise", 1: "raise"}})
        inject = FaultInjector(_times_ten, plan, [1], tmp_path)
        with pytest.raises(InjectedFault):
            SerialDispatcher().map(
                inject, [1], policy=FaultPolicy(max_retries=1, backoff_base=0.0)
            )

    def test_exhausted_records_failed_item(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "raise", 1: "raise", 2: "raise"}})
        inject = FaultInjector(_times_ten, plan, [1, 2], tmp_path)
        seen = []
        results = SerialDispatcher().map(
            inject, [1, 2], on_result=lambda i, r: seen.append(i), policy=record_policy()
        )
        failed, ok = results
        assert isinstance(failed, FailedItem)
        assert failed.index == 0 and ok == 20
        assert failed.error_type == "InjectedFault"
        assert len(failed.attempts) == 3
        assert [entry["attempt"] for entry in failed.attempts] == [1, 2, 3]
        assert all(entry["kind"] == "exception" for entry in failed.attempts)
        assert any("InjectedFault" in line for line in failed.attempts[-1]["traceback"])
        assert seen == [0, 1]


# -------------------------------------------- ProcessPoolDispatcher faults


class TestPoolFaults:
    @pytest.mark.timeout(120)
    def test_exception_retry_then_succeed(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "raise", 1: "raise"}, 2: {0: "raise"}})
        inject = FaultInjector(_times_ten, plan, [1, 2, 3], tmp_path)
        results = ProcessPoolDispatcher(2).map(inject, [1, 2, 3], policy=record_policy())
        assert results == [10, 20, 30]
        assert inject.attempts_seen(1) == 3

    @pytest.mark.timeout(120)
    def test_raise_aborts_promptly_without_draining_queue(self, tmp_path):
        # Satellite bugfix: a worker exception used to let every queued cell
        # run to completion before propagating. Submission is now throttled
        # and the pool torn down on abort, so most of the queue never runs.
        items = list(range(8))
        worker = _MarkingWorker(tmp_path / "marks", sleep=0.5)
        with pytest.raises(RuntimeError, match="boom on item 0"):
            ProcessPoolDispatcher(2).map(worker, items)
        ran = len(list((tmp_path / "marks").glob("ran_*")))
        assert ran <= 4, f"queued items should have been cancelled, but {ran}/8 ran"

    @pytest.mark.timeout(120)
    def test_worker_kill_is_survived(self, tmp_path):
        plan = FaultPlan(faults={1: {0: "kill"}})
        inject = FaultInjector(_times_ten, plan, [1, 2, 3, 4], tmp_path)
        results = ProcessPoolDispatcher(2).map(inject, [1, 2, 3, 4], policy=record_policy())
        assert results == [10, 20, 30, 40]

    @pytest.mark.timeout(120)
    def test_worker_kill_without_retries_raises_broken_worker(self, tmp_path):
        from repro.sweep import BrokenWorkerError

        plan = FaultPlan(faults={0: {0: "kill"}})
        inject = FaultInjector(_times_ten, plan, [1, 2], tmp_path)
        with pytest.raises(BrokenWorkerError):
            ProcessPoolDispatcher(2).map(inject, [1, 2], policy=FaultPolicy())

    @pytest.mark.timeout(120)
    def test_hung_cell_recovered_by_watchdog(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "hang"}}, hang_seconds=600)
        inject = FaultInjector(_times_ten, plan, [1, 2, 3], tmp_path)
        start = time.monotonic()
        results = ProcessPoolDispatcher(2).map(
            inject, [1, 2, 3], policy=record_policy(timeout=1.5)
        )
        elapsed = time.monotonic() - start
        assert results == [10, 20, 30]
        assert 1.5 <= elapsed < 60
        # innocent in-flight neighbours were requeued, not charged: only the
        # hung cell shows a second attempt beyond the pool-rebuild reruns
        assert inject.attempts_seen(1) == 2

    @pytest.mark.timeout(120)
    def test_timeout_exhaustion_recorded(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "hang", 1: "hang"}}, hang_seconds=600)
        inject = FaultInjector(_times_ten, plan, [1, 2], tmp_path)
        results = ProcessPoolDispatcher(2).map(
            inject, [1, 2], policy=record_policy(max_retries=1, timeout=1.0)
        )
        failed, ok = results
        assert ok == 20
        assert isinstance(failed, FailedItem)
        assert len(failed.attempts) == 2
        assert failed.error_type == "CellTimeoutError"
        assert all(entry["kind"] == "timeout" for entry in failed.attempts)

    @pytest.mark.timeout(120)
    def test_timeout_exhaustion_raises_by_default(self, tmp_path):
        plan = FaultPlan(faults={0: {0: "hang"}}, hang_seconds=600)
        inject = FaultInjector(_times_ten, plan, [1], tmp_path)
        with pytest.raises(CellTimeoutError):
            ProcessPoolDispatcher(2).map(inject, [1], policy=FaultPolicy(timeout=1.0))

    def test_policy_defaults_keep_plain_behavior(self):
        results = ProcessPoolDispatcher(3).map(_times_ten, [1, 2, 3, 4, 5])
        assert results == [10, 20, 30, 40, 50]

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("fault", ["kill", "hang"])
    def test_faulted_pool_is_never_reused(self, fault, tmp_path):
        # The sweep checks out the warm pool the first map returned; a
        # worker death or a watchdog expiry kills that pool, so the next
        # map runs on other workers, and the recovered CSV is unchanged.
        spec = chaos_spec()
        cells = spec.expand()
        clean = run_sweep(spec, jobs=1).write_csv(tmp_path / "clean.csv").read_bytes()
        dispatcher = ProcessPoolDispatcher(2)
        before = set(dispatcher.map(_pid_after_nap, [0.2] * 2))
        plan = FaultPlan(faults={2: {0: fault}}, hang_seconds=600)
        outcome = run_sweep(
            spec, jobs=2, policy=record_policy(timeout=1.5),
            work_fn=injector(plan, cells, tmp_path),
        )
        assert outcome.failed == 0
        assert outcome.write_csv(tmp_path / "faulted.csv").read_bytes() == clean
        after = set(dispatcher.map(_pid_after_nap, [0.2] * 2))
        assert len(before) == 2 and after.isdisjoint(before)


# --------------------------------------------------- chaos acceptance tests


class TestChaosSweep:
    @pytest.mark.timeout(300)
    def test_crashes_hangs_and_exceptions_complete_and_match_fault_free(self, tmp_path):
        spec = chaos_spec()
        cells = spec.expand()
        fault_free = run_sweep(spec, jobs=1)

        plan = FaultPlan(
            faults={
                1: {0: "raise"},                      # transient exception
                2: {0: "kill"},                       # worker death -> pool rebuild
                3: {0: "hang"},                       # watchdog or crash-recovery
                4: {0: "raise", 1: "raise", 2: "raise"},  # exhausts retries
            },
            hang_seconds=600,
        )
        store_path = tmp_path / "store.jsonl"
        outcome = run_sweep(
            spec,
            jobs=3,
            store=store_path,
            policy=record_policy(timeout=3.0),
            work_fn=injector(plan, cells, tmp_path),
        )

        # No fault aborted the sweep; exactly the exhausted cell failed.
        assert outcome.failed == 1
        assert outcome.results[4].failed
        # Every recovered cell is bitwise identical to the fault-free run.
        for index, (clean, chaotic) in enumerate(zip(fault_free.results, outcome.results)):
            if index != 4:
                assert chaotic.payload == clean.payload

        # The store carries a structured failure record.
        record = ResultsStore(store_path).get(cells[4].key())
        assert record["error"]["type"] == "InjectedFault"
        assert record["error"]["attempts"] == 3
        assert len(record["error"]["attempt_log"]) == 3
        assert record["error"]["traceback"]
        assert "payload" not in record

        # The CSV gains an error column; failure rows are NaN + error text.
        csv = outcome.write_csv(tmp_path / "chaos.csv").read_text()
        lines = csv.splitlines()
        assert lines[0].endswith(",error")
        failure_line = lines[1 + 4]
        assert "InjectedFault" in failure_line
        assert ",,,," in failure_line  # blank payload columns
        # Fault-free sweeps keep the historical header (no error column).
        clean_csv = fault_free.write_csv(tmp_path / "clean.csv").read_text()
        assert not clean_csv.splitlines()[0].endswith(",error")

    @pytest.mark.timeout(300)
    def test_serial_and_pooled_chaos_agree_bytewise(self, tmp_path):
        # jobs=1 rides SerialDispatcher, jobs=4 the pool; with a raise-only
        # plan both recover the same cells and must export identical bytes.
        spec = chaos_spec()
        cells = spec.expand()
        plan = FaultPlan(faults={0: {0: "raise"}, 3: {0: "raise", 1: "raise", 2: "raise"}})
        outputs = []
        for jobs, subdir in ((1, "serial"), (4, "pooled")):
            scratch = tmp_path / subdir
            outcome = run_sweep(
                spec,
                jobs=jobs,
                policy=record_policy(),
                work_fn=injector(plan, cells, scratch),
            )
            outputs.append(outcome.write_csv(scratch / "out.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.timeout(300)
    def test_resume_serves_failure_record_and_retry_failed_recomputes(self, tmp_path):
        spec = chaos_spec()
        cells = spec.expand()
        plan = FaultPlan(faults={2: {0: "raise", 1: "raise", 2: "raise"}})
        store_path = tmp_path / "store.jsonl"
        first = run_sweep(
            spec,
            jobs=1,
            store=store_path,
            policy=record_policy(),
            work_fn=injector(plan, cells, tmp_path),
        )
        assert first.failed == 1

        # A resume serves the failure instead of re-crashing blindly.
        resumed = run_sweep(spec, jobs=1, store=store_path, policy=record_policy())
        assert (resumed.executed, resumed.cached, resumed.failed) == (0, 6, 1)
        assert resumed.results[2].failed and resumed.results[2].cached
        cell, failure = resumed.failures()[0]
        assert cell.key() == cells[2].key()
        assert failure.error["type"] == "InjectedFault"

        # retry_failed re-runs only the failed cell (now fault-free).
        retried = run_sweep(spec, jobs=1, store=store_path, retry_failed=True)
        assert (retried.executed, retried.cached, retried.failed) == (1, 5, 0)
        clean = run_sweep(spec, jobs=1)
        assert retried.results[2].payload == clean.results[2].payload
        # The store's last-write-wins record is now the success.
        assert "payload" in ResultsStore(store_path).get(cells[2].key())

    def test_failed_cell_payload_accessors_raise(self, tmp_path):
        spec = chaos_spec()
        cells = spec.expand()
        plan = FaultPlan(faults={0: {0: "raise"}})
        outcome = run_sweep(
            spec,
            jobs=1,
            policy=FaultPolicy(max_retries=0, backoff_base=0.0, on_failure="record"),
            work_fn=injector(plan, cells, tmp_path),
        )
        failed = outcome.results[0]
        assert failed.failed
        with pytest.raises(ValueError, match="has no payload"):
            failed.stats()
        with pytest.raises(ValueError, match="has no payload"):
            failed.times()
        row = failed.row()
        assert row["error"].startswith("InjectedFault")
        assert row["n"] == cells[0].n

    def test_experiment_drivers_thread_policy(self, tmp_path):
        # The pass-throughs accept a policy and hand it to run_sweep.
        from repro.experiments.convergence import sweep_population_sizes

        rows = sweep_population_sizes(
            [64, 128],
            trials=2,
            seed=1,
            jobs=1,
            policy=record_policy(),
        )
        assert [row.n for row in rows] == [64, 128]


# ----------------------------------------------------------- CLI threading


class FakeResult:
    failed = 0
    executed = 1
    cached = 0
    cells = [None]

    def table(self):
        return "table"

    def write_csv(self, path):
        return Path(path)


class TestSweepCLIFaultFlags:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--max-retries", "3", "--cell-timeout", "2.5",
             "--keep-going", "--retry-failed"]
        )
        assert args.max_retries == 3
        assert args.cell_timeout == 2.5
        assert args.keep_going and args.retry_failed

    def test_flags_thread_into_fault_policy(self, monkeypatch, tmp_path):
        from repro import cli

        captured = {}

        def fake_run_sweep(spec, **kwargs):
            captured.update(kwargs)
            return FakeResult()

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        code = cli.main(
            ["sweep", "--max-retries", "2", "--cell-timeout", "1.5",
             "--keep-going", "--retry-failed", "--jobs", "2"]
        )
        assert code == 0
        policy = captured["policy"]
        assert policy.max_retries == 2
        assert policy.timeout == 1.5
        assert policy.on_failure == "record"
        assert captured["retry_failed"] is True

    def test_default_policy_is_fail_fast(self, monkeypatch):
        from repro import cli

        captured = {}

        def fake_run_sweep(spec, **kwargs):
            captured.update(kwargs)
            return FakeResult()

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        assert cli.main(["sweep"]) == 0
        policy = captured["policy"]
        assert policy.max_retries == 0
        assert policy.timeout is None
        assert policy.on_failure == "raise"

    def test_invalid_values_rejected(self, capsys):
        from repro import cli

        assert cli.main(["sweep", "--max-retries", "-1"]) == 2
        assert cli.main(["sweep", "--cell-timeout", "0"]) == 2
        err = capsys.readouterr().err
        assert "--max-retries" in err and "--cell-timeout" in err

    def test_failed_cells_exit_nonzero(self, monkeypatch, capsys):
        from repro import cli

        class FailingResult(FakeResult):
            failed = 2

        monkeypatch.setattr(cli, "run_sweep", lambda spec, **kwargs: FailingResult())
        assert cli.main(["sweep", "--keep-going"]) == 1
        assert "2 cell(s) failed" in capsys.readouterr().out


# --------------------------------------------------- kill/resume end to end


@pytest.mark.timeout(300)
def test_sigkill_mid_sweep_then_resume_byte_identical(tmp_path):
    """Real kill/resume: SIGKILL `repro sweep` mid-grid, resume, and the
    aggregate CSV is byte-identical to an uninterrupted run."""
    spec = {
        "version": 2,
        "name": "kill-resume",
        "seed": 11,
        "trials": 400,
        "axes": {
            "protocol": [{"name": "fet", "ell": 60}],
            "n": [2000],
            "initializer": [{"name": "bernoulli", "p": 0.5}],
            "initializer.p": [0.35, 0.45, 0.5, 0.55, 0.6, 0.65],
        },
        "max_rounds": 300,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    store = tmp_path / "store.jsonl"
    out = tmp_path / "resumed.csv"

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    base_cmd = [sys.executable, "-m", "repro", "sweep", "--spec", str(spec_path)]

    victim = subprocess.Popen(
        base_cmd + ["--store", str(store)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline and victim.poll() is None:
        if store.exists() and len(store.read_text().splitlines()) >= 2:
            break
        time.sleep(0.02)
    killed_midway = victim.poll() is None
    if killed_midway:
        os.kill(victim.pid, signal.SIGKILL)
    victim.wait(timeout=60)

    resumed = subprocess.run(
        base_cmd + ["--store", str(store), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert resumed.returncode == 0, resumed.stderr

    clean = subprocess.run(
        base_cmd + ["--store", str(tmp_path / "clean.jsonl"), "--out", str(tmp_path / "clean.csv")],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert clean.returncode == 0, clean.stderr
    assert out.read_bytes() == (tmp_path / "clean.csv").read_bytes()

    if killed_midway:
        # The resume actually reused the survivor lines of the killed run.
        served = int(re.search(r"(\d+) served from store", resumed.stdout).group(1))
        assert served >= 2
