"""Run-service acceptance: dedup, streaming, failures — over real HTTP.

The acceptance contract (ISSUE 10): submitting the same SweepSpec twice
executes its cells exactly once — the second submission resolves from the
store via the spec-hash dedup path (cache-hit counter, zero worker
executions) and returns byte-identical rows; a live submission can be
followed over ``GET /runs/{id}/stream`` (SSE) to completion; a worker
crash lands the job in ``failed`` with its failure record served in the
status body. Everything here talks to a real ``http.server`` socket —
nothing is stubbed between the client and the worker pool.
"""

from __future__ import annotations

import json
import queue as queue_module
import socket
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import cli
from repro.config import RunSpec
from repro.service import server as server_module
from repro.service import (
    Job,
    JobError,
    JobQueue,
    RunServiceClient,
    RunServiceServer,
    ServiceError,
    WorkerPool,
    normalize_submission,
    spec_hash,
)
from repro.sweep import FaultPolicy, ResultsStore, SweepSpec, execute_cell, run_sweep
from repro.telemetry import MetricsRegistry, validate_exposition
from repro.telemetry.server import MAX_BODY_BYTES


def tiny_grid(seed: int = 7, **overrides) -> dict:
    """Four fast FET cells as a submission-ready sweep dict."""
    settings = dict(
        name="service-grid",
        seed=seed,
        trials=2,
        axes={
            "protocol": [{"name": "fet", "ell": 8}],
            "n": [60, 90],
            "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
        },
        max_rounds=120,
    )
    settings.update(overrides)
    return SweepSpec(**settings).to_dict()


def record_policy(**overrides) -> FaultPolicy:
    settings = dict(max_retries=1, backoff_base=0.0, jitter=0.0, on_failure="record")
    settings.update(overrides)
    return FaultPolicy(**settings)


def _crash_cell(cell):
    raise RuntimeError("injected worker crash")


def _slow_cell(cell):
    time.sleep(0.25)
    return execute_cell(cell)


@contextmanager
def service(tmp_path: Path, **pool_kwargs):
    """A full live stack — store, queue, pool, HTTP server, client."""
    registry = MetricsRegistry()
    store = ResultsStore(tmp_path / "store.jsonl")
    queue = JobQueue(tmp_path / "queue.jsonl", store=store, registry=registry)
    pool_kwargs.setdefault("policy", record_policy())
    pool = WorkerPool(queue, store, registry=registry, **pool_kwargs)
    server = RunServiceServer(queue=queue, pool=pool, registry=registry)
    pool.start()
    port = server.start()
    client = RunServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    try:
        yield type(
            "Service",
            (),
            {
                "registry": registry,
                "store": store,
                "queue": queue,
                "pool": pool,
                "server": server,
                "client": client,
                "url": f"http://127.0.0.1:{port}",
            },
        )
    finally:
        pool.stop()
        server.stop()


@contextmanager
def gated_service(tmp_path: Path):
    """A live stack whose cells block until the yielded event is set.

    The gate is released before the pool stops, so a test that never sets
    it still tears down without waiting out the worker join.
    """
    gate = threading.Event()

    def work(cell):
        gate.wait(60.0)
        return execute_cell(cell)

    with service(tmp_path, work_fn=work) as svc:
        try:
            yield svc, gate
        finally:
            gate.set()


def tiny_run() -> dict:
    """One fast FET run as a submission."""
    run = RunSpec(protocol={"name": "fet", "ell": 8}, n=60, trials=2, max_rounds=120)
    return {"run": run.to_dict()}


# ---------------------------------------------------------------- unit: jobs


class TestJobs:
    def test_equivalent_spellings_hash_identically(self):
        spec = tiny_grid()
        reordered = {key: spec[key] for key in sorted(spec, reverse=True)}
        assert normalize_submission({"sweep": spec}) == normalize_submission(reordered)
        kind, canonical = normalize_submission(spec)
        assert kind == "sweep"
        assert spec_hash(kind, canonical) == spec_hash(*normalize_submission(reordered))

    def test_run_autodetected_and_distinct_from_sweep(self):
        run = RunSpec(protocol={"name": "fet", "ell": 8}, n=60, trials=1, max_rounds=50)
        kind, spec = normalize_submission(run.to_dict())
        assert kind == "run"
        assert spec_hash("run", spec) != spec_hash("sweep", spec)

    def test_invalid_submissions_rejected(self):
        for bad in (None, [], {"sweep": []}, {"run": {}, "sweep": {}}, {"axes": {}}):
            with pytest.raises(JobError):
                normalize_submission(bad)

    def test_state_machine(self):
        job = Job.from_submission(*normalize_submission(tiny_grid()))
        assert job.state == "queued" and not job.terminal
        job.transition("running")
        with pytest.raises(JobError):
            job.transition("cancelled")  # running jobs are not preemptible
        job.transition("done")
        assert job.terminal and job.finished_ts is not None
        with pytest.raises(JobError):
            job.transition("queued")  # done is final

    def test_requeue_clears_outcome(self):
        job = Job.from_submission(*normalize_submission(tiny_grid()))
        job.transition("running")
        job.error = {"type": "Boom"}
        job.transition("failed")
        job.transition("queued")
        assert (job.error, job.result, job.started_ts, job.finished_ts) == (None,) * 4

    def test_round_trips_through_dict(self):
        job = Job.from_submission(*normalize_submission(tiny_grid()))
        job.transition("running")
        job.result = {"cells": 4}
        assert Job.from_dict(job.to_dict()).to_dict() == job.to_dict()


# --------------------------------------------------------------- unit: queue


class TestJobQueue:
    def test_submit_claim_done_survives_reload(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, dedup = queue.submit(*normalize_submission(tiny_grid()))
        assert not dedup and queue.position(job.job_id) == 0
        claimed = queue.claim(timeout=1.0)
        assert claimed.job_id == job.job_id and claimed.state == "running"
        queue.mark_done(job.job_id, {"cells": 4})

        reloaded = JobQueue(path)
        assert reloaded.get(job.job_id).state == "done"
        assert reloaded.get(job.job_id).result == {"cells": 4}

    def test_running_jobs_requeue_on_reload(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        first, _ = queue.submit(*normalize_submission(tiny_grid(seed=1)))
        second, _ = queue.submit(*normalize_submission(tiny_grid(seed=2)))
        queue.claim(timeout=1.0)  # first goes running, then the service "dies"

        recovered = JobQueue(path)
        assert recovered.get(first.job_id).state == "queued"
        # Recovery keeps submission order: the interrupted job runs first.
        assert recovered.claim(timeout=1.0).job_id == first.job_id
        assert recovered.claim(timeout=1.0).job_id == second.job_id

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        with path.open("a") as handle:
            handle.write('{"job_id": "torn-wri')
        reloaded = JobQueue(path)
        assert reloaded.corrupt_lines == 1
        assert reloaded.get(job.job_id).state == "queued"

    def test_identical_submission_coalesces(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        again, dedup = queue.submit(*normalize_submission(tiny_grid()))
        assert dedup and again.job_id == job.job_id
        assert len(queue) == 1 and queue.position(job.job_id) == 0

    def test_failed_job_requeues_on_resubmission(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        queue.claim(timeout=1.0)
        queue.mark_failed(job.job_id, {"type": "Boom", "message": "no"})
        revived, dedup = queue.submit(*normalize_submission(tiny_grid()))
        assert not dedup and revived.job_id == job.job_id
        assert revived.state == "queued" and revived.error is None

    def test_cancel_only_queued(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        queue.claim(timeout=1.0)
        with pytest.raises(JobError):
            queue.cancel(job.job_id)

    def test_store_covered_spec_is_born_done(self, tmp_path):
        spec = tiny_grid()
        store = ResultsStore(tmp_path / "store.jsonl")
        run_sweep(SweepSpec.from_dict(spec), jobs=1, store=store)
        registry = MetricsRegistry()
        queue = JobQueue(tmp_path / "queue.jsonl", store=store, registry=registry)
        job, dedup = queue.submit(*normalize_submission(spec))
        assert dedup and job.state == "done" and job.deduplicated
        assert job.result["source"] == "store"
        assert job.result["cached"] == job.result["cells"] == 4
        assert registry.total("repro_service_dedup_hits_total") == 1.0
        # Nothing pending: the job never touches a worker.
        assert queue.claim(timeout=0.05) is None

    def test_close_wakes_blocked_wait_change(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        outcome = []
        waiter = threading.Thread(
            target=lambda: outcome.append(queue.wait_change(job.job_id, "queued", 30.0))
        )
        waiter.start()
        time.sleep(0.05)
        queue.close()
        waiter.join(2.0)
        assert not waiter.is_alive() and outcome == [False]

    def test_wait_change_stress_loses_no_wakeup(self, tmp_path):
        # More threads than cores and a tiny switch interval: a lost wakeup
        # shows up as a wait that ran out its whole timeout, which the
        # workers' few milliseconds of work never need.
        queue = JobQueue(tmp_path / "queue.jsonl")
        jobs = [queue.submit(*normalize_submission(tiny_grid(seed=s)))[0] for s in range(12)]
        timed_out = []

        def follow(job):
            state = job.state
            while not job.terminal:
                began = time.monotonic()
                queue.wait_change(job.job_id, state, 2.0)
                if time.monotonic() - began >= 2.0:
                    timed_out.append(job.job_id)
                state = job.state

        def work():
            while (job := queue.claim(timeout=0.5)) is not None:
                queue.mark_done(job.job_id, {})

        threads = [threading.Thread(target=follow, args=(job,)) for job in jobs]
        threads += [threading.Thread(target=work) for _ in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert timed_out == []
        assert all(job.state == "done" for job in jobs)

    def test_wait_change_returns_on_transition_and_after_it(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        job, _ = queue.submit(*normalize_submission(tiny_grid()))
        claimer = threading.Timer(0.05, queue.claim)
        began = time.monotonic()
        claimer.start()
        assert queue.wait_change(job.job_id, "queued", 30.0)
        assert time.monotonic() - began < 2.0 and job.state == "running"
        claimer.join()
        # A transition that landed before the call is not waited for.
        began = time.monotonic()
        assert queue.wait_change(job.job_id, "queued", 30.0)
        assert time.monotonic() - began < 1.0
        # No change within the timeout: returns after it, queue still open.
        assert queue.wait_change(job.job_id, "running", 0.05)


# ---------------------------------------------------------- unit: store index


class TestStoreIndex:
    def test_has_and_contains_without_io(self, tmp_path):
        store = ResultsStore(tmp_path / "store.jsonl")
        store.put("k1", {"cell": {}, "payload": {"x": 1}})
        assert store.has("k1") and "k1" in store and not store.has("k2")

    def test_get_after_reload_seeks_the_right_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        for index in range(5):
            store.put(f"k{index}", {"cell": {}, "payload": {"value": index}})
        store.put("k2", {"cell": {}, "payload": {"value": 99}})  # supersede
        reloaded = ResultsStore(path)
        assert len(reloaded) == 5
        assert reloaded.get("k2")["payload"]["value"] == 99
        assert reloaded.get("k4")["payload"]["value"] == 4

    def test_put_after_torn_tail_keeps_offsets_valid(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("k1", {"cell": {}, "payload": {"value": 1}})
        with path.open("a") as handle:
            handle.write('{"key": "torn-wri')
        resumed = ResultsStore(path)
        resumed.put("k2", {"cell": {}, "payload": {"value": 2}})
        assert resumed.get("k2")["payload"]["value"] == 2
        # And a fresh load sees both intact records, one corrupt line.
        final = ResultsStore(path)
        assert final.corrupt_lines == 1
        assert final.get("k1")["payload"]["value"] == 1
        assert final.get("k2")["payload"]["value"] == 2

    def test_compact_preserves_indexed_view(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        for index in range(3):
            store.put("hot", {"cell": {}, "payload": {"value": index}})
        store.put("cold", {"cell": {}, "payload": {"value": -1}})
        summary = store.compact()
        assert summary["records"] == 2 and summary["lines_before"] == 4
        assert store.get("hot")["payload"]["value"] == 2
        assert ResultsStore(path).get("cold")["payload"]["value"] == -1


# ------------------------------------------------------------- e2e over HTTP


class TestServiceEndToEnd:
    def test_submit_dedup_and_byte_identical_csv(self, tmp_path):
        spec = tiny_grid()
        with service(tmp_path) as svc:
            first = svc.client.submit({"sweep": spec})
            assert first["state"] == "queued" and not first["deduplicated"]
            final = svc.client.wait(first["job_id"], timeout=60.0)
            assert final["state"] == "done"
            assert final["result"]["executed"] == 4 and final["result"]["failed"] == 0
            csv_first = svc.client.result_csv(first["job_id"])

            # Same spec, different JSON spelling: the dedup path must
            # resolve it without executing anything.
            reordered = {key: spec[key] for key in sorted(spec, reverse=True)}
            second = svc.client.submit({"sweep": reordered})
            assert second["deduplicated"] and second["state"] == "done"
            assert second["job_id"] == first["job_id"]
            assert svc.client.result_csv(second["job_id"]) == csv_first

            registry = svc.registry
            assert registry.total("repro_service_dedup_hits_total") == 1.0
            assert registry.total("repro_service_jobs_executed_total") == 1.0

        # The service bytes equal a direct orchestrator run's CSV exactly.
        direct = run_sweep(SweepSpec.from_dict(spec), jobs=1)
        reference = direct.write_csv(tmp_path / "direct.csv").read_bytes()
        assert csv_first == reference

    def test_sse_stream_follows_live_run(self, tmp_path):
        with service(tmp_path, work_fn=_slow_cell) as svc:
            submitted = svc.client.submit({"sweep": tiny_grid()})
            events = list(svc.client.stream(submitted["job_id"], timeout=60.0))
            kinds = [kind for kind, _ in events]
            assert kinds[-1] == "done"
            assert "progress" in kinds, kinds
            # Progress frames carry the job id (the /progress contract).
            progress = [payload for kind, payload in events if kind == "progress"]
            assert all(frame["job_id"] == submitted["job_id"] for frame in progress)
            done = events[-1][1]
            assert done["state"] == "done" and done["result"]["executed"] == 4

    def test_progress_route_reports_running_job(self, tmp_path):
        with service(tmp_path, work_fn=_slow_cell) as svc:
            submitted = svc.client.submit({"sweep": tiny_grid()})
            deadline = time.monotonic() + 30.0
            body = {}
            while time.monotonic() < deadline:
                status, raw = svc.client._request("GET", "/progress")
                body = json.loads(raw)
                if body.get("active"):
                    break
                time.sleep(0.05)
            assert body["active"], body
            assert body["jobs"][0]["job_id"] == submitted["job_id"]
            svc.client.wait(submitted["job_id"], timeout=60.0)

    def test_worker_crash_lands_failed_with_record(self, tmp_path):
        with service(tmp_path, work_fn=_crash_cell) as svc:
            submitted = svc.client.submit({"sweep": tiny_grid()})
            final = svc.client.wait(submitted["job_id"], timeout=60.0)
            assert final["state"] == "failed"
            error = final["error"]
            assert error["type"] == "CellFailures"
            assert len(error["failures"]) == 4
            record = error["failures"][0]["error"]
            assert record["type"] == "RuntimeError"
            assert "injected worker crash" in record["message"]
            assert record["attempts"] == 2  # initial try + max_retries=1
            with pytest.raises(ServiceError) as exc:
                svc.client.result_csv(submitted["job_id"])
            assert exc.value.status == 409

            # Resubmission requeues (the retry path) instead of serving the
            # failure — and keeps failing under the crashing work function.
            again = svc.client.submit({"sweep": tiny_grid()})
            assert not again["deduplicated"]
            assert svc.client.wait(again["job_id"], timeout=60.0)["state"] == "failed"

    def test_single_run_submission(self, tmp_path):
        run = RunSpec(protocol={"name": "fet", "ell": 8}, n=60, trials=2, max_rounds=120)
        with service(tmp_path) as svc:
            submitted = svc.client.submit({"run": run.to_dict()})
            final = svc.client.wait(submitted["job_id"], timeout=60.0)
            assert final["state"] == "done" and final["result"]["cells"] == 1
            rows = svc.client.result_rows(submitted["job_id"])
            assert len(rows["rows"]) == 1
            assert rows["rows"][0]["n"] == 60
            # The run's cell is now store-covered: a resubmission under a
            # fresh queue would dedup from the store (tested in queue units).
            assert svc.store.has(RunSpec.from_dict(final["spec"]).key())

    def test_cancel_and_error_routes(self, tmp_path):
        with service(tmp_path) as svc:
            with pytest.raises(ServiceError) as exc:
                svc.client.job("no-such-job")
            assert exc.value.status == 404
            with pytest.raises(ServiceError) as exc:
                svc.client.submit({"sweep": {"axes": {}}})
            assert exc.value.status == 400
            done = svc.client.submit({"sweep": tiny_grid()})
            svc.client.wait(done["job_id"], timeout=60.0)
            with pytest.raises(ServiceError) as exc:
                svc.client.cancel(done["job_id"])  # terminal: nothing to cancel
            assert exc.value.status == 409

    def test_cancel_queued_job(self, tmp_path):
        # No pool: the job stays queued, so cancel has something to catch.
        queue = JobQueue(tmp_path / "queue.jsonl")
        pool = WorkerPool(queue, None)
        server = RunServiceServer(queue=queue, pool=pool)
        port = server.start()
        client = RunServiceClient(f"http://127.0.0.1:{port}")
        try:
            submitted = client.submit({"sweep": tiny_grid()})
            assert submitted["queue_position"] == 0
            cancelled = client.cancel(submitted["job_id"])
            assert cancelled["state"] == "cancelled"
            assert client.job(submitted["job_id"])["state"] == "cancelled"
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "length, status",
        [("-1", 400), ("ten", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_bad_content_length_answered_without_reading_body(self, tmp_path, length, status):
        # Raw socket: the client sends headers only. A handler that trusted
        # Content-Length would block on the body until the socket timeout.
        queue = JobQueue(tmp_path / "queue.jsonl")
        server = RunServiceServer(queue=queue, pool=WorkerPool(queue, None))
        port = server.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
                sock.sendall(
                    f"POST /runs HTTP/1.1\r\nHost: localhost\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode()
                )
                reply = sock.recv(4096).decode("latin-1")
            assert reply.split("\r\n", 1)[0].split()[1] == str(status)
            assert queue.jobs() == []
        finally:
            server.stop()

    def test_metrics_scrape_stays_valid_exposition(self, tmp_path):
        with service(tmp_path) as svc:
            submitted = svc.client.submit({"sweep": tiny_grid()})
            svc.client.wait(submitted["job_id"], timeout=60.0)
            _, raw = svc.client._request("GET", "/metrics")
            text = raw.decode("utf-8")
            assert validate_exposition(text) > 0
            assert "repro_service_jobs_executed_total 1" in text


class TestPushPath:
    """Waiters block on the queue's state-change signal, never on a tick."""

    def test_stream_wakes_on_transition_not_tick(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "_STREAM_TICK_S", 30.0)
        with gated_service(tmp_path) as (svc, gate):
            job_id = svc.client.submit(tiny_run())["job_id"]
            events: queue_module.Queue = queue_module.Queue()

            def follow():
                for event, payload in svc.client.stream(job_id, timeout=60.0):
                    events.put((event, payload, time.monotonic()))

            follower = threading.Thread(target=follow, daemon=True)
            follower.start()
            while True:
                event, payload, _ = events.get(timeout=10.0)
                if event == "state" and payload["state"] == "running":
                    break
            released = time.monotonic()
            gate.set()
            seen = {}
            while "done" not in seen:
                event, payload, at = events.get(timeout=10.0)
                seen[event] = (payload, at)
            payload, at = seen["done"]
            assert payload["state"] == "done"
            assert at - released < 2.0
            follower.join(5.0)

    def test_stream_timeout_still_fires_on_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "_STREAM_TICK_S", 30.0)
        with gated_service(tmp_path) as (svc, _gate):
            job_id = svc.client.submit(tiny_run())["job_id"]
            began = time.monotonic()
            events = list(svc.client.stream(job_id, timeout=0.5))
            elapsed = time.monotonic() - began
            assert events[-1][0] == "timeout"
            assert events[-1][1]["state"] in ("queued", "running")
            assert 0.4 <= elapsed < 3.0

    @pytest.mark.parametrize("work_fn, state", [(None, "done"), (_crash_cell, "failed")])
    def test_wait_returns_full_status_body(self, tmp_path, work_fn, state):
        with service(tmp_path, work_fn=work_fn) as svc:
            job_id = svc.client.submit(tiny_run())["job_id"]
            final = svc.client.wait(job_id, timeout=60.0)
            assert final["state"] == state
            assert final == svc.client.job(job_id)  # spec included

    def test_wait_returns_when_queued_job_is_cancelled(self, tmp_path):
        # No pool started: the job stays queued until another client
        # cancels it, and the blocked wait must see that push.
        queue = JobQueue(tmp_path / "queue.jsonl")
        server = RunServiceServer(queue=queue, pool=WorkerPool(queue, None))
        port = server.start()
        client = RunServiceClient(f"http://127.0.0.1:{port}")
        try:
            job_id = client.submit(tiny_run())["job_id"]
            outcome = []
            waiter = threading.Thread(
                target=lambda: outcome.append(client.wait(job_id, timeout=30.0))
            )
            waiter.start()
            time.sleep(0.2)
            client.cancel(job_id)
            waiter.join(5.0)
            assert not waiter.is_alive()
            assert outcome[0]["state"] == "cancelled"
            # A job that is already terminal returns at once.
            assert client.wait(job_id, timeout=30.0)["state"] == "cancelled"
        finally:
            server.stop()

    def test_wait_returns_store_deduplicated_job(self, tmp_path):
        spec = tiny_grid()
        with service(tmp_path) as svc:
            run_sweep(SweepSpec.from_dict(spec), jobs=1, store=svc.store)
            submitted = svc.client.submit({"sweep": spec})
            assert submitted["deduplicated"] and submitted["state"] == "done"
            final = svc.client.wait(submitted["job_id"], timeout=10.0)
            assert final["state"] == "done"
            assert final["result"]["source"] == "store"

    def test_wait_times_out_on_running_job(self, tmp_path):
        with gated_service(tmp_path) as (svc, _gate):
            job_id = svc.client.submit(tiny_run())["job_id"]
            began = time.monotonic()
            with pytest.raises(TimeoutError, match=job_id[:12]):
                svc.client.wait(job_id, timeout=0.5)
            assert time.monotonic() - began < 3.0

    def test_pool_stop_returns_promptly(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.jsonl")
        pool = WorkerPool(queue, None, workers=2)
        pool.start()
        threads = list(pool._threads)
        time.sleep(0.05)  # let both workers block in claim()
        began = time.monotonic()
        pool.stop()
        assert time.monotonic() - began < 1.0
        assert not any(thread.is_alive() for thread in threads)


# --------------------------------------------------------------------- CLI


class TestSubmitCLI:
    def test_submit_wait_and_out(self, tmp_path, capsys):
        spec = tiny_grid()
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "result.csv"
        with service(tmp_path) as svc:
            code = cli.main(
                ["submit", "--url", svc.url, "--spec", str(spec_file), "--out", str(out)]
            )
            assert code == 0
            again = cli.main(
                ["submit", "--url", svc.url, "--spec", str(spec_file), "--wait"]
            )
            assert again == 0
        printed = capsys.readouterr().out
        assert "deduplicated" in printed
        direct = run_sweep(SweepSpec.from_dict(spec), jobs=1)
        assert out.read_bytes() == direct.write_csv(tmp_path / "direct.csv").read_bytes()

    def test_submit_surfaces_failure(self, tmp_path, capsys):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps(tiny_grid()))
        with service(tmp_path, work_fn=_crash_cell) as svc:
            code = cli.main(
                ["submit", "--url", svc.url, "--spec", str(spec_file), "--wait"]
            )
        assert code == 1
        assert "CellFailures" in capsys.readouterr().err

    def test_submit_rejects_missing_spec(self, tmp_path, capsys):
        assert cli.main(["submit", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "cannot load spec" in capsys.readouterr().err
