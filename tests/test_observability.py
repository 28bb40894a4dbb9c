"""Observability endpoint and end-to-end span/event determinism.

The acceptance contract (ISSUE 8): a sweep run with full observability
(``--events-out``, ``--trace-out``, ``--metrics-port``) yields CSV output
byte-identical to a telemetry-off run at any ``--jobs``, a merged span log
whose structural tree is identical across job counts, a Perfetto-loadable
Chrome trace, and a live ``/metrics`` scrape that passes
``validate_exposition`` while the sweep executes.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro import cli
from repro.sweep import (
    CellResult,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    ResultsStore,
    SweepSpec,
    execute_cell,
    run_sweep,
)
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    ObservabilityServer,
    SpanLog,
    SpanTracer,
    validate_exposition,
    write_chrome_trace,
)


def small_grid(seed: int = 7, **overrides) -> SweepSpec:
    """Six fast FET cells: 3 sizes x 2 starts (same as test_telemetry)."""
    settings = dict(
        name="telemetry-grid",
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
    settings = dict(max_retries=2, backoff_base=0.0, jitter=0.0, on_failure="record")
    settings.update(overrides)
    return FaultPolicy(**settings)


def scrape(url: str, timeout: float = 5.0):
    """GET ``url``; returns (status, content_type, body_text)."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def scrape_with_retry(url: str, deadline: float = 10.0):
    """Scrape, retrying while the server comes up (for threaded starts)."""
    end = time.monotonic() + deadline
    while True:
        try:
            return scrape(url)
        except (urllib.error.URLError, ConnectionError, OSError):
            if time.monotonic() >= end:
                raise
            time.sleep(0.05)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ------------------------------------------------------------------ server


class TestObservabilityServer:
    def test_start_is_idempotent_and_stop_releases(self):
        server = ObservabilityServer()
        try:
            port = server.start()
            assert server.start() == port  # second start: same binding
            assert server.running
            assert server.url("/healthz") == f"http://127.0.0.1:{port}/healthz"
        finally:
            server.stop()
        assert not server.running
        server.stop()  # stop when stopped is a no-op

    def test_context_manager_starts_and_stops(self):
        with ObservabilityServer() as server:
            assert server.running
            status, _, body = scrape(server.url("/healthz"))
            assert (status, body) == (200, "ok\n")
        assert not server.running

    def test_healthz_aliases(self):
        with ObservabilityServer() as server:
            for path in ("/healthz", "/health"):
                status, content_type, body = scrape(server.url(path))
                assert status == 200
                assert body == "ok\n"
                assert content_type.startswith("text/plain")

    def test_metrics_route_serves_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("demo_total", "Demo counter.", kind="x").inc(3)
        registry.histogram("demo_seconds", "Demo histogram.").observe(0.2)
        with ObservabilityServer(registry=registry) as server:
            status, content_type, body = scrape(server.url("/metrics"))
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert validate_exposition(body) > 0
        assert 'demo_total{kind="x"} 3' in body
        assert "demo_seconds_count 1" in body

    def test_metrics_without_registry_is_empty_but_200(self):
        with ObservabilityServer() as server:
            status, _, body = scrape(server.url("/metrics"))
        assert status == 200
        assert body == ""

    def test_refresh_runs_before_each_scrape(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("ticks", "Refreshed per scrape.")
        calls = []
        server = ObservabilityServer(
            registry=registry, refresh=lambda: (calls.append(1), gauge.set(len(calls)))
        )
        with server:
            scrape(server.url("/metrics"))
            _, _, body = scrape(server.url("/metrics"))
        assert len(calls) == 2
        assert "ticks 2" in body

    def test_progress_route_inactive_without_source(self):
        with ObservabilityServer() as server:
            status, content_type, body = scrape(server.url("/progress"))
        assert status == 200
        assert content_type == "application/json"
        assert json.loads(body) == {"active": False}

    def test_progress_route_mirrors_attached_source(self):
        server = ObservabilityServer(progress=lambda: {"done": 3, "total": 6})
        with server:
            _, _, body = scrape(server.url("/progress"))
        assert json.loads(body) == {"active": True, "done": 3, "total": 6}

    def test_attach_swaps_registry_live(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("alpha_total").inc()
        second.counter("beta_total").inc()
        with ObservabilityServer(registry=first) as server:
            _, _, before = scrape(server.url("/metrics"))
            server.attach(registry=second)
            _, _, after = scrape(server.url("/metrics"))
        assert "alpha_total" in before
        assert "beta_total" in after and "alpha_total" not in after

    def test_unknown_route_404_and_index(self):
        with ObservabilityServer() as server:
            status, _, body = scrape(server.url("/"))
            assert status == 200
            assert "/metrics" in body and "/progress" in body
            with pytest.raises(urllib.error.HTTPError) as err:
                scrape(server.url("/nope"))
            assert err.value.code == 404
            # The error holds the response and its socket; close it here
            # rather than leave it to a later test's garbage collection.
            err.value.close()


# --------------------------------------------------- live scrape during run


class TestLiveScrape:
    @pytest.mark.timeout(120)
    def test_metrics_scrapeable_while_sweep_runs(self):
        registry = MetricsRegistry()
        server = ObservabilityServer()
        results: dict = {}

        def run():
            results["result"] = run_sweep(
                small_grid(), jobs=1, metrics=registry, serve=server
            )

        worker = threading.Thread(target=run)
        worker.start()
        try:
            mid_run: list[str] = []
            while worker.is_alive():
                if server.running:
                    try:
                        _, _, body = scrape(server.url("/metrics"), timeout=2.0)
                        mid_run.append(body)
                    except (urllib.error.URLError, ConnectionError, OSError):
                        pass
                time.sleep(0.01)
            worker.join()
            # run_sweep leaves the server up (the CLI owns its lifecycle),
            # so the post-run scrape is deterministic even if the sweep
            # finished before the poller caught a mid-run page.
            _, _, final = scrape(server.url("/metrics"))
            for body in mid_run + [final]:
                if body:
                    assert validate_exposition(body) > 0
            assert "repro_cells_completed_total" in final
            assert "repro_sweep_cells_total 6" in final
            _, _, progress = scrape(server.url("/progress"))
        finally:
            server.stop()
        stats = json.loads(progress)
        assert stats["active"] is True
        assert (stats["done"], stats["total"]) == (6, 6)
        assert results["result"].metrics is not None


# ------------------------------------------------- e2e span/event contract


class TestSweepObservabilityE2E:
    @pytest.mark.timeout(120)
    def test_span_tree_and_csv_identical_across_jobs(self, tmp_path):
        trees = {}
        csvs = {}
        for jobs in (1, 2):
            result = run_sweep(small_grid(), jobs=jobs, tracer=SpanTracer())
            assert isinstance(result.spans, SpanLog)
            trees[jobs] = json.dumps(result.spans.tree())
            csvs[jobs] = result.write_csv(tmp_path / f"j{jobs}.csv").read_bytes()
        assert trees[1] == trees[2]
        assert csvs[1] == csvs[2]
        roots = json.loads(trees[1])
        assert len(roots) == 1
        name, _labels, children = roots[0]
        assert name == "sweep"
        assert sum(child[0] == "cell" for child in children) == 6

    def test_merged_log_contains_all_layers(self):
        # draw_tier spans come from the batched engine's per-agent sampler
        result = run_sweep(small_grid(engine="batched"), jobs=1, tracer=SpanTracer())
        names = {record["name"] for record in result.spans.records}
        assert {"sweep", "dispatch", "cell", "engine.run", "draw_tier"} <= names
        # every span closed: the sweep span is finalized before snapshot
        assert all(record["duration"] is not None for record in result.spans.records)

    @pytest.mark.timeout(120)
    def test_worker_spans_carry_worker_pids(self):
        result = run_sweep(small_grid(), jobs=2, tracer=SpanTracer())
        cell_pids = {
            record.get("pid")
            for record in result.spans.records
            if record["name"] == "cell"
        }
        assert None not in cell_pids  # every grafted cell is pid-tagged
        assert cell_pids  # and at least one worker contributed

    def test_store_append_and_cache_hit_events(self, tmp_path):
        store = tmp_path / "store.jsonl"
        first = run_sweep(small_grid(), store=store, events=EventLog())
        kinds = [event["kind"] for event in first.events]
        assert kinds.count("store.append") == 6
        assert kinds.count("store.cache_hit") == 0
        resumed = run_sweep(small_grid(), store=store, events=EventLog())
        kinds = [event["kind"] for event in resumed.events]
        assert kinds.count("store.cache_hit") == 6
        assert kinds.count("store.append") == 0
        hit = next(e for e in resumed.events if e["kind"] == "store.cache_hit")
        assert hit["failed"] is False
        assert "key" in hit

    def test_retry_events_match_fault_plan(self, tmp_path):
        spec = small_grid()
        cells = spec.expand()
        plan = FaultPlan(faults={0: {0: "raise"}, 2: {0: "raise", 1: "raise", 2: "raise"}})
        injector = FaultInjector(execute_cell, plan, cells, tmp_path / "counters")
        result = run_sweep(
            spec, jobs=1, events=EventLog(), policy=record_policy(), work_fn=injector
        )
        retries = [event for event in result.events if event["kind"] == "sweep.retry"]
        assert len(retries) == 3  # 1 for cell 0 + 2 granted to cell 2
        for event in retries:
            assert event["error"] == "InjectedFault"
            assert event["attempt"] >= 1
            assert "item" in event
        # zero backoff configured, so no backoff sleeps were logged
        assert all(event["kind"] != "sweep.backoff" for event in result.events)

    def test_backoff_events_logged_when_delay_positive(self, tmp_path):
        spec = small_grid()
        cells = spec.expand()
        plan = FaultPlan(faults={0: {0: "raise"}})
        injector = FaultInjector(execute_cell, plan, cells, tmp_path / "counters")
        result = run_sweep(
            spec,
            jobs=1,
            events=EventLog(),
            policy=record_policy(backoff_base=0.01),
            work_fn=injector,
        )
        backoffs = [e for e in result.events if e["kind"] == "sweep.backoff"]
        assert len(backoffs) == 1
        assert backoffs[0]["delay_s"] > 0

    @pytest.mark.timeout(120)
    def test_all_pillars_identical_across_jobs(self, tmp_path):
        """One sweep with metrics, spans and events on: the single ordered
        fold gives the same counters, span tree and event kinds at any
        ``jobs``."""
        outcomes = {}
        for jobs in (1, 2):
            result = run_sweep(
                small_grid(),
                jobs=jobs,
                store=tmp_path / f"j{jobs}.jsonl",
                durable=False,
                metrics=MetricsRegistry(),
                tracer=SpanTracer(),
                events=EventLog(),
            )
            counters = result.metrics.select(lambda name, kind: kind != "histogram")
            outcomes[jobs] = (
                json.dumps(counters.to_dict(), sort_keys=True),
                json.dumps(result.spans.tree()),
                [event["kind"] for event in result.events],
            )
        assert outcomes[1] == outcomes[2]
        assert outcomes[1][2] == ["store.append"] * 6

    def test_metered_store_records_carry_no_metrics(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_sweep(small_grid(), store=path, durable=False, metrics=MetricsRegistry())
        store = ResultsStore(path)
        records = [store.get(key) for key in store.keys()]
        assert len(records) == 6
        assert all("metrics" not in record for record in records)

    def test_legacy_records_with_metrics_serve_identical_csv(self, tmp_path):
        fresh = run_sweep(small_grid(), store=tmp_path / "new.jsonl", durable=False)
        expected = fresh.write_csv(tmp_path / "fresh.csv").read_bytes()
        current = ResultsStore(tmp_path / "new.jsonl")
        legacy = ResultsStore(tmp_path / "legacy.jsonl")
        for key in current.keys():
            record = current.get(key)
            record["metrics"] = {"schema": 1, "metrics": []}
            legacy.put(key, record)
        resumed = run_sweep(small_grid(), store=tmp_path / "legacy.jsonl", durable=False)
        assert resumed.cached == 6
        assert resumed.write_csv(tmp_path / "resumed.csv").read_bytes() == expected
        key = resumed.results[0].key
        rebuilt = CellResult.from_record(key, legacy.get(key))
        assert rebuilt == fresh.results[0]
        assert rebuilt.cached and rebuilt.telemetry is None

    def test_observability_off_leaves_result_bare(self):
        result = run_sweep(small_grid())
        assert result.spans is None
        assert result.events is None
        assert result.metrics is None

    def test_payloads_identical_with_full_observability(self):
        plain = run_sweep(small_grid())
        observed = run_sweep(
            small_grid(),
            metrics=MetricsRegistry(),
            tracer=SpanTracer(),
            events=EventLog(),
        )
        assert [r.payload for r in plain.results] == [r.payload for r in observed.results]


# -------------------------------------------------------------------- CLI


class TestCLIObservability:
    def test_sweep_observability_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["sweep", "--events-out", "e.jsonl", "--trace-out", "t.json",
             "--metrics-port", "0"]
        )
        assert args.events_out == "e.jsonl"
        assert args.trace_out == "t.json"
        assert args.metrics_port == 0

    def test_sweep_rejects_negative_metrics_port(self, capsys):
        code = cli.main(["sweep", "--metrics-port", "-1", "--no-durable"])
        assert code == 2
        assert "--metrics-port" in capsys.readouterr().err

    @pytest.mark.metrics_smoke
    @pytest.mark.timeout(300)
    def test_sweep_full_observability_end_to_end(self, tmp_path, capsys):
        """The flagship run: events + trace + live port, all outputs valid."""
        events_path = tmp_path / "events.jsonl"
        trace_path = tmp_path / "trace.json"
        code = cli.main(
            [
                "sweep",
                "--jobs", "2",
                "--no-durable",
                "--store", str(tmp_path / "store.jsonl"),
                "--events-out", str(events_path),
                "--trace-out", str(trace_path),
                "--metrics-port", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "serving observability on http://127.0.0.1:" in captured.out
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert events and all({"seq", "ts", "kind"} <= set(e) for e in events)
        assert sum(e["kind"] == "store.append" for e in events) == 6
        trace = json.loads(trace_path.read_text())
        assert "traceEvents" in trace
        phases = {entry["ph"] for entry in trace["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        assert "run: repro timeline" in captured.out

    def test_timeline_renders_ascii_and_json(self, tmp_path, capsys):
        log = SpanLog(
            pid=1,
            epoch_wall=10.0,
            records=[
                {"name": "sweep", "labels": {}, "start": 0.0, "duration": 1.0, "parent": -1},
                {"name": "cell", "labels": {"n": "60"}, "start": 0.2, "duration": 0.5,
                 "parent": 0},
            ],
        )
        path = write_chrome_trace(tmp_path / "trace.json", log)
        assert cli.main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("timeline: 1.000s total")
        assert "sweep |" in out
        assert cli.main(["timeline", str(path), "--json"]) == 0
        lanes = json.loads(capsys.readouterr().out)
        assert lanes[0]["label"] == "sweep"
        assert [s["name"] for s in lanes[0]["spans"]] == ["sweep", "cell"]

    def test_timeline_rejects_non_trace_json(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text("{}")
        assert cli.main(["timeline", str(bogus)]) == 2
        assert "traceEvents" in capsys.readouterr().err

    def test_timeline_rejects_missing_file(self, tmp_path, capsys):
        assert cli.main(["timeline", str(tmp_path / "absent.json")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.mark.timeout(120)
    def test_serve_metrics_serves_recorded_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_cells_completed_total", "Cells.").inc(6)
        snapshot_path = tmp_path / "metrics.json"
        snapshot_path.write_text(json.dumps(registry.snapshot().to_dict()))
        port = free_port()
        codes: dict = {}

        def serve():
            codes["exit"] = cli.main(
                [
                    "serve-metrics",
                    "--port", str(port),
                    "--snapshot", str(snapshot_path),
                    "--for-seconds", "4",
                ]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        try:
            _, _, body = scrape_with_retry(f"http://127.0.0.1:{port}/metrics")
            _, _, health = scrape_with_retry(f"http://127.0.0.1:{port}/healthz")
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes["exit"] == 0
        assert validate_exposition(body) > 0
        assert "repro_cells_completed_total 6" in body
        assert "repro_process_uptime_seconds" in body
        assert health == "ok\n"

    def test_serve_metrics_rejects_bad_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["serve-metrics", "--snapshot", str(bad)]) == 2
        assert "cannot load snapshot" in capsys.readouterr().err

    @pytest.mark.timeout(300)
    def test_metrics_command_progress_flag(self, capsys):
        assert cli.main(["metrics", "--progress"]) == 0
        captured = capsys.readouterr()
        assert validate_exposition(captured.out) > 0
        assert "sweep 6/6 cells" in captured.err
