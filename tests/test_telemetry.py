"""Telemetry subsystem: registry, exposition, snapshots, instrumentation.

The acceptance contract (ISSUE 7): sweep counter aggregates are
byte-identical between ``jobs=1`` and ``jobs=4``; a fault-injected grid's
``repro_sweep_retries_total`` / ``repro_sweep_worker_crashes_total`` /
``repro_cells_failed_total`` match the injected :class:`FaultPlan` exactly;
the Prometheus exposition parses; telemetry off means no registry is ever
consulted beyond one ``None`` check.
"""

from __future__ import annotations

import io
import json
import math
import pickle
import re
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro import cli
from repro.sweep import (
    CellTimeoutError,
    FailedItem,
    FaultInjector,
    FaultPlan,
    FaultPolicy,
    ResultsStore,
    SerialDispatcher,
    SweepSpec,
    execute_cell,
    run_sweep,
)
import repro
from repro.sweep.runner import RESULT_COLUMNS, CellResult, MeteredCell
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    MetricsSnapshot,
    ProgressLine,
    SpanTracer,
    Telemetry,
    current_event_log,
    current_registry,
    current_telemetry,
    render_prometheus,
    use_event_log,
    use_registry,
    use_tracer,
    validate_exposition,
)
from repro.telemetry.catalog import FAMILIES


def small_grid(seed: int = 7, **overrides) -> SweepSpec:
    """Six fast FET cells: 3 sizes x 2 starts."""
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


def counters_dict(snapshot: MetricsSnapshot) -> dict:
    """The deterministic (non-histogram) slice of a snapshot, as JSON text.

    Wall-clock histograms legitimately differ between runs; every counter
    and gauge must not.
    """
    return snapshot.select(lambda name, kind: kind != "histogram").to_dict()


# --------------------------------------------------------------- registry


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", "Hits.")
        c.inc()
        c.inc(2.5)
        assert reg.value("hits_total") == 3.5
        with pytest.raises(ValueError, match=">= 0"):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "Depth.")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert reg.value("depth") == 4

    def test_histogram_bucket_placement_is_le_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 1.0, 2.0):
            h.observe(v)
        # bisect_left: an observation exactly at a bound lands in that
        # bucket, matching Prometheus `le` (less-or-equal) semantics.
        assert h.counts == [2, 2, 1]
        assert h.count == 5

    def test_timer_observes_elapsed(self):
        reg = MetricsRegistry()
        with reg.timer("span_seconds", "Spans."):
            time.sleep(0.01)
        h = reg.histogram("span_seconds")
        assert h.count == 1
        assert h.sum >= 0.01

    def test_labels_create_distinct_series_and_total_sums_them(self):
        reg = MetricsRegistry()
        reg.counter("cells_total", tier="a").inc(2)
        reg.counter("cells_total", tier="b").inc(3)
        assert reg.value("cells_total", tier="a") == 2
        assert reg.value("cells_total", tier="b") == 3
        assert reg.total("cells_total") == 5

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("x_total")

    def test_bucket_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("fine", **{"__reserved": "x"})

    def test_misshapen_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h2", buckets=())


# ------------------------------------------------------- ambient registry


class TestAmbientRegistry:
    def test_off_by_default(self):
        assert current_registry() is None

    def test_use_registry_installs_and_resets(self):
        reg = MetricsRegistry()
        with use_registry(reg):
            assert current_registry() is reg
        assert current_registry() is None

    def test_new_threads_start_clean(self):
        """Helper threads must not inherit (or corrupt) the parent registry:
        the serial watchdog abandons threads that may write metrics later."""
        reg = MetricsRegistry()
        seen: list = []
        with use_registry(reg):
            thread = threading.Thread(target=lambda: seen.append(current_registry()))
            thread.start()
            thread.join()
            assert current_registry() is reg
        assert seen == [None]


class TestAmbientBundle:
    def test_use_helpers_replace_one_pillar_of_one_bundle(self):
        reg, tracer, log = MetricsRegistry(), SpanTracer(), EventLog()
        with use_registry(reg), use_tracer(tracer):
            assert current_telemetry() == Telemetry(reg, tracer, None)
            with use_event_log(log) as installed:
                assert installed is log
                assert current_telemetry().pillars == ("metrics", "spans", "events")
            assert current_event_log() is None
            assert current_registry() is reg
        assert current_telemetry() == Telemetry()

    def test_fresh_bundle_switches_on_named_pillars_only(self):
        bundle = Telemetry.fresh(["events", "metrics"])
        assert bundle.pillars == ("metrics", "events")
        assert bundle.tracer is None
        assert set(bundle.payload()) == {"metrics", "events"}
        with pytest.raises(ValueError, match="unknown telemetry pillars"):
            Telemetry.fresh(["metrics", "logs"])

    def test_telemetry_package_defines_one_contextvar(self):
        package = Path(repro.__file__).parent / "telemetry"
        found = [
            path.name
            for path in sorted(package.glob("*.py"))
            for _ in re.finditer(r"\bContextVar\(", path.read_text(encoding="utf-8"))
        ]
        assert found == ["ambient.py"]

    def test_only_snapshots_cross_process_boundaries(self):
        """A registry carries its lock, so it cannot be pickled into a pool
        worker by accident; the cell wrapper pickles with its pillar names
        and its payload comes back as plain data."""
        with pytest.raises(TypeError):
            pickle.dumps(MetricsRegistry())
        wrapper = pickle.loads(pickle.dumps(MeteredCell(execute_cell, ("metrics", "spans"))))
        result = wrapper(small_grid().expand()[0])
        assert pickle.loads(pickle.dumps(result.telemetry)) == result.telemetry


class TestRegistryThreadSafety:
    @pytest.mark.timeout(30)
    def test_snapshot_races_family_creation(self):
        """One thread keeps creating families and label sets while another
        snapshots and totals the same registry; no read may fail."""
        holder = [MetricsRegistry()]
        stop = threading.Event()

        def create() -> None:
            while not stop.is_set():
                registry = MetricsRegistry()
                holder[0] = registry
                for family in range(200):
                    for label in range(50):
                        registry.counter(f"family_{family}", "help", label=str(label)).inc()
                        if stop.is_set():
                            return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        writer = threading.Thread(target=create, daemon=True)
        errors: list[BaseException] = []
        reads = 0
        try:
            writer.start()
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                registry = holder[0]
                try:
                    registry.snapshot()
                    registry.total("family_0")
                except RuntimeError as exc:  # dict changed size during iteration
                    errors.append(exc)
                reads += 1
        finally:
            stop.set()
            writer.join(timeout=5.0)
            sys.setswitchinterval(previous)
        assert not writer.is_alive()
        assert reads > 0
        assert errors == []

    def test_merge_is_atomic_for_readers(self):
        """A reader never sees half of a merged snapshot."""
        source = MetricsRegistry()
        for label in range(100):
            source.counter("merged_total", label=str(label)).inc()
        snapshot = source.snapshot()
        target = MetricsRegistry()
        totals: list[float] = []
        stop = threading.Event()

        def read() -> None:
            while not stop.is_set():
                totals.append(target.total("merged_total"))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        reader = threading.Thread(target=read, daemon=True)
        try:
            reader.start()
            for _ in range(20):
                target.merge_snapshot(snapshot)
        finally:
            stop.set()
            reader.join(timeout=5.0)
            sys.setswitchinterval(previous)
        assert not reader.is_alive()
        assert all(total % 100 == 0 for total in totals)
        assert target.total("merged_total") == 2000

    @pytest.mark.timeout(30)
    def test_concurrent_updates_lose_nothing(self):
        """More threads than cores bump shared children; every update lands."""
        registry = MetricsRegistry()
        counter = registry.counter("bumps_total")
        histogram = registry.histogram("bump_seconds", buckets=(1.0,))

        def bump() -> None:
            for _ in range(5_000):
                counter.inc()
                histogram.observe(0.5)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=bump, daemon=True) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.value("bumps_total") == 20_000
        assert histogram.count == 20_000 and histogram.counts[0] == 20_000


class TestCatalog:
    def test_every_metric_name_is_declared_once_in_the_catalog(self):
        src = Path(repro.__file__).parent
        literal = re.compile(r"""(["'])(repro_[A-Za-z0-9_]*)\1""")
        places: dict[str, list[str]] = defaultdict(list)
        for path in sorted(src.rglob("*.py")):
            for match in literal.finditer(path.read_text(encoding="utf-8")):
                places[match.group(2)].append(str(path.relative_to(src)))
        assert places, "no metric-name literals found"
        misplaced = {
            name: where for name, where in places.items()
            if where != ["telemetry/catalog.py"]
        }
        assert misplaced == {}
        assert set(places) == set(FAMILIES)

    def test_families_render_with_their_declared_kind_and_help(self):
        registry = MetricsRegistry()
        for family in FAMILIES.values():
            family.on(registry)
        snapshot = registry.snapshot()
        for name, family in FAMILIES.items():
            assert snapshot.metrics[name]["kind"] == family.kind
            assert snapshot.metrics[name]["help"] == family.help


# ------------------------------------------------------------- exposition


class TestExposition:
    def golden_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("demo_jobs_total", "Jobs processed.", queue='a"b\\c\nd').inc(3)
        reg.gauge("demo_temperature", "Degrees.\nSecond line.").set(1.5)
        h = reg.histogram("demo_latency_seconds", "Latency.", buckets=(0.1, 1.0))
        for v in (0.5, 0.25, 5.0):
            h.observe(v)
        return reg

    def test_golden_exposition(self):
        expected = "\n".join(
            [
                "# HELP demo_jobs_total Jobs processed.",
                "# TYPE demo_jobs_total counter",
                r'demo_jobs_total{queue="a\"b\\c\nd"} 3',
                "# HELP demo_latency_seconds Latency.",
                "# TYPE demo_latency_seconds histogram",
                'demo_latency_seconds_bucket{le="0.1"} 0',
                'demo_latency_seconds_bucket{le="1"} 2',
                'demo_latency_seconds_bucket{le="+Inf"} 3',
                "demo_latency_seconds_sum 5.75",
                "demo_latency_seconds_count 3",
                r"# HELP demo_temperature Degrees.\nSecond line.",
                "# TYPE demo_temperature gauge",
                "demo_temperature 1.5",
                "",
            ]
        )
        assert render_prometheus(self.golden_registry()) == expected

    def test_golden_validates(self):
        assert validate_exposition(render_prometheus(self.golden_registry())) == 7

    def test_rendering_is_insertion_order_independent(self):
        a = MetricsRegistry()
        a.counter("one_total").inc()
        a.counter("two_total", side="l").inc()
        a.counter("two_total", side="r").inc(2)
        b = MetricsRegistry()
        b.counter("two_total", side="r").inc(2)
        b.counter("two_total", side="l").inc()
        b.counter("one_total").inc()
        assert render_prometheus(a) == render_prometheus(b)

    def test_nan_and_inf_render(self):
        reg = MetricsRegistry()
        reg.gauge("g_nan").set(float("nan"))
        reg.gauge("g_inf").set(math.inf)
        text = render_prometheus(reg)
        assert "g_nan NaN" in text
        assert "g_inf +Inf" in text
        validate_exposition(text)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert validate_exposition("") == 0

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            validate_exposition("orphan_total 3\n")
        with pytest.raises(ValueError, match="malformed sample"):
            validate_exposition("# TYPE x counter\nx three\n")
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_exposition("# TYPE x counter\n# TYPE x gauge\n")
        with pytest.raises(ValueError, match="malformed comment"):
            validate_exposition("# TYPE x summary2\n")

    def test_validator_resolves_histogram_suffixes(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 1\n'
            "h_sum 0.5\n"
            "h_count 1\n"
        )
        assert validate_exposition(text) == 3
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            validate_exposition("# TYPE h counter\nh_bucket 1\n")


# ---------------------------------------------------------------- snapshot


class TestSnapshot:
    def populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("c_total", "C.", tier="x").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(0.5, 1.0)).observe(0.75)
        return reg

    def test_to_dict_round_trip(self):
        snap = self.populated().snapshot()
        data = snap.to_dict()
        assert data["schema"] == 1
        again = MetricsSnapshot.from_dict(json.loads(json.dumps(data)))
        assert again.to_dict() == data

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsSnapshot.from_dict({"schema": 99, "metrics": []})

    def test_merge_adds(self):
        snap = self.populated().snapshot()
        merged = snap.merge(snap)
        assert merged.value("c_total", tier="x") == 4
        assert merged.value("g") == 3.0
        # original untouched
        assert snap.value("c_total", tier="x") == 2

    def test_merge_associative_on_exact_values(self):
        # Binary-exact values: associativity holds exactly. (For arbitrary
        # floats only a canonical merge ORDER gives byte identity, which is
        # what the orchestrator does.)
        regs = []
        for inc, obs in ((1, 0.5), (2, 0.25), (4, 2.0)):
            reg = MetricsRegistry()
            reg.counter("c_total").inc(inc)
            reg.histogram("h", buckets=(1.0,)).observe(obs)
            regs.append(reg.snapshot())
        a, b, c = regs
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    def test_merge_snapshot_into_registry(self):
        reg = self.populated()
        reg.merge_snapshot(self.populated().snapshot())
        assert reg.value("c_total", tier="x") == 4
        assert reg.histogram("h", buckets=(0.5, 1.0)).count == 2

    def test_merge_mismatched_buckets_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            reg.merge_snapshot(other.snapshot())

    def test_select_filters_families(self):
        snap = self.populated().snapshot()
        counters = snap.select(lambda name, kind: kind == "counter")
        names = {m["name"] for m in counters.to_dict()["metrics"]}
        assert names == {"c_total"}


# ------------------------------------------------- engine instrumentation


class TestEngineInstrumentation:
    def test_execute_cell_reports_engine_and_tier_counters(self):
        cell = small_grid().expand()[0]
        reg = MetricsRegistry()
        with use_registry(reg):
            result = execute_cell(cell)
        assert not result.failed
        assert reg.total("repro_engine_rounds_total") > 0
        assert reg.total("repro_engine_replicas_retired_total") == 2  # trials
        assert reg.total("repro_sampler_tier_rows_total") > 0
        assert reg.histogram("repro_engine_run_seconds", engine="batched").count >= 1

    def test_sequential_cell_metrics_say_sequential(self):
        cell = small_grid(engine="sequential").expand()[0]
        reg = MetricsRegistry()
        with use_registry(reg):
            result = execute_cell(cell)
        assert not result.failed
        rounds = reg.total("repro_engine_rounds_total")
        assert rounds > 0
        assert reg.value("repro_engine_rounds_total", engine="sequential") == rounds
        assert reg.histogram("repro_engine_run_seconds", engine="sequential").count == 2

    def test_metered_cell_ships_snapshot_by_value(self):
        cell = small_grid().expand()[0]
        result = MeteredCell(execute_cell)(cell)
        assert result.telemetry is not None
        snap = MetricsSnapshot.from_dict(result.telemetry["metrics"])
        assert snap.total("repro_engine_replicas_retired_total") == 2
        # ... without touching any ambient registry.
        assert current_registry() is None

    def test_telemetry_off_attaches_nothing(self):
        cell = small_grid().expand()[0]
        result = execute_cell(cell)
        assert result.telemetry is None
        assert result.elapsed_s is not None and result.elapsed_s > 0


# ----------------------------------------------------- sweep instrumentation


class TestSweepTelemetry:
    def test_counters_byte_identical_across_job_counts(self, tmp_path):
        spec = small_grid()
        cells = spec.expand()
        plan = FaultPlan(faults={0: {0: "raise"}, 2: {0: "raise", 1: "raise", 2: "raise"}})
        snapshots = {}
        for jobs in (1, 4):
            inj = FaultInjector(execute_cell, plan, cells, tmp_path / f"j{jobs}")
            result = run_sweep(
                spec, jobs=jobs, metrics=MetricsRegistry(), policy=record_policy(),
                work_fn=inj,
            )
            snapshots[jobs] = result.metrics
        left = json.dumps(counters_dict(snapshots[1]), sort_keys=True)
        right = json.dumps(counters_dict(snapshots[4]), sort_keys=True)
        assert left == right

    def test_fault_counters_match_plan_exactly(self, tmp_path):
        spec = small_grid()
        cells = spec.expand()
        # Cell 0: one raise then clean; cell 2: raises through every attempt.
        plan = FaultPlan(faults={0: {0: "raise"}, 2: {0: "raise", 1: "raise", 2: "raise"}})
        inj = FaultInjector(execute_cell, plan, cells, tmp_path / "counters")
        result = run_sweep(
            spec, jobs=1, metrics=MetricsRegistry(), policy=record_policy(), work_fn=inj
        )
        snap = result.metrics
        assert snap.total("repro_sweep_retries_total") == 3  # 1 + 2 granted
        assert snap.total("repro_cells_failed_total") == 1
        assert snap.total("repro_cells_completed_total") == 5
        assert snap.total("repro_sweep_worker_crashes_total") == 0
        assert snap.total("repro_sweep_watchdog_expiries_total") == 0
        assert snap.total("repro_sweep_inflight_cells") == 0

    @pytest.mark.timeout(120)
    def test_worker_kill_counts_one_crash_event(self, tmp_path):
        spec = small_grid()
        cells = spec.expand()
        plan = FaultPlan(faults={1: {0: "kill"}})
        inj = FaultInjector(execute_cell, plan, cells, tmp_path / "counters")
        result = run_sweep(
            spec, jobs=2, metrics=MetricsRegistry(), policy=record_policy(), work_fn=inj
        )
        snap = result.metrics
        # One planned kill = one pool-breakage event, however many innocent
        # in-flight cells it charged alongside the victim.
        assert snap.total("repro_sweep_worker_crashes_total") == 1
        assert snap.total("repro_cells_failed_total") == 0
        assert snap.total("repro_cells_completed_total") == 6
        assert snap.total("repro_sweep_retries_total") >= 1

    def test_results_identical_with_and_without_telemetry(self):
        spec = small_grid()
        plain = run_sweep(spec)
        metered = run_sweep(spec, metrics=MetricsRegistry())
        assert [r.payload for r in plain.results] == [r.payload for r in metered.results]
        assert plain.metrics is None
        assert metered.metrics is not None

    def test_sweep_result_snapshot_renders_and_validates(self):
        result = run_sweep(small_grid(), metrics=MetricsRegistry())
        text = render_prometheus(result.metrics)
        assert validate_exposition(text) > 0
        assert "repro_cells_completed_total 6" in text

    def test_cache_hit_and_miss_counters(self, tmp_path):
        spec = small_grid()
        store = tmp_path / "store.jsonl"
        first = run_sweep(spec, store=store, durable=False, metrics=MetricsRegistry())
        assert first.metrics.total("repro_store_cache_misses_total") == 6
        assert first.metrics.total("repro_store_cache_hits_total") == 0
        assert first.metrics.total("repro_store_appends_total") == 6
        second = run_sweep(spec, store=store, durable=False, metrics=MetricsRegistry())
        assert second.metrics.total("repro_store_cache_hits_total") == 6
        assert second.metrics.total("repro_cells_cached_total") == 6
        assert second.metrics.total("repro_cells_completed_total") == 0
        assert second.cached == 6


# -------------------------------------------------------- serial watchdog


class _HangFirstAttempt:
    """Sleeps long on the first call for the marked item, clean after."""

    def __init__(self, victim: int, sleep: float = 10.0) -> None:
        self.victim = victim
        self.sleep = sleep
        self.calls: dict[int, int] = {}

    def __call__(self, item: int) -> int:
        attempt = self.calls.get(item, 0)
        self.calls[item] = attempt + 1
        if item == self.victim and attempt == 0:
            time.sleep(self.sleep)
        return item * 10


class TestSerialWatchdog:
    @pytest.mark.timeout(60)
    def test_hung_cell_is_abandoned_and_retried(self):
        reg = MetricsRegistry()
        start = time.monotonic()
        with use_registry(reg):
            results = SerialDispatcher().map(
                _HangFirstAttempt(victim=1),
                [0, 1, 2],
                policy=record_policy(max_retries=1, timeout=0.3),
            )
        assert results == [0, 10, 20]
        assert time.monotonic() - start < 5.0  # did not sit out the sleep
        assert reg.total("repro_sweep_watchdog_expiries_total") == 1
        assert reg.total("repro_sweep_retries_total") == 1
        assert reg.total("repro_sweep_inflight_cells") == 0

    @pytest.mark.timeout(60)
    def test_timeout_exhaustion_recorded(self):
        results = SerialDispatcher().map(
            _HangFirstAttempt(victim=0, sleep=60.0),
            [0],
            policy=record_policy(max_retries=0, timeout=0.2),
        )
        (failed,) = results
        assert isinstance(failed, FailedItem)
        assert failed.error_type == "CellTimeoutError"
        assert [entry["kind"] for entry in failed.attempts] == ["timeout"]

    @pytest.mark.timeout(60)
    def test_timeout_raises_by_default(self):
        class _AlwaysHang:
            def __call__(self, item):
                time.sleep(60)

        with pytest.raises(CellTimeoutError, match="0.2s per-cell timeout"):
            SerialDispatcher().map(
                _AlwaysHang(), [0], policy=FaultPolicy(timeout=0.2)
            )

    def test_no_timeout_runs_truly_inline(self):
        """Without a timeout the watchdog thread stays out of the way."""
        main_thread = threading.current_thread()
        seen = []
        SerialDispatcher().map(
            lambda item: seen.append(threading.current_thread() is main_thread),
            [0],
        )
        assert seen == [True]


# --------------------------------------------------------------- elapsed_s


class TestElapsedSeconds:
    def test_row_carries_elapsed_only_when_present(self):
        cell = small_grid().expand()[0]
        result = execute_cell(cell)
        assert result.elapsed_s is not None
        assert result.row()["elapsed_s"] == result.elapsed_s
        bare = CellResult(key="k", cell=result.cell, payload=result.payload)
        assert "elapsed_s" not in bare.row()
        assert "elapsed_s" not in RESULT_COLUMNS

    def test_store_round_trip_preserves_elapsed(self, tmp_path):
        spec = small_grid()
        store_path = tmp_path / "store.jsonl"
        run_sweep(spec, store=store_path, durable=False)
        store = ResultsStore(store_path)
        for key in store.keys():
            stamp = store.get(key)["provenance"]
            assert stamp["elapsed_s"] > 0
        resumed = run_sweep(spec, store=store_path, durable=False)
        assert all(r.cached and r.elapsed_s is not None for r in resumed.results)

    def test_legacy_records_load_without_elapsed(self, tmp_path):
        spec = small_grid()
        cell = spec.expand()[0]
        store_path = tmp_path / "store.jsonl"
        fresh = execute_cell(cell)
        legacy = ResultsStore(store_path)
        legacy.put(cell.key(), {"cell": fresh.cell, "payload": fresh.payload})
        record = ResultsStore(store_path).get(cell.key())
        assert "elapsed_s" not in record["provenance"]
        result = run_sweep(spec, store=store_path, durable=False)
        served = {r.key: r for r in result.results}
        assert served[cell.key()].cached
        assert served[cell.key()].elapsed_s is None

    def test_csv_bytes_unchanged_by_telemetry(self, tmp_path):
        spec = small_grid()
        run_sweep(spec).write_csv(tmp_path / "plain.csv")
        run_sweep(spec, metrics=MetricsRegistry()).write_csv(tmp_path / "metered.csv")
        assert (tmp_path / "plain.csv").read_bytes() == (
            tmp_path / "metered.csv"
        ).read_bytes()


# ------------------------------------------------------------ store counters


class TestStoreCounters:
    def test_checksum_failure_counted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("k1", {"cell": {}, "payload": {"x": 1}})
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["payload"]["x"] = 999  # silent tamper: checksum now stale
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        reg = MetricsRegistry()
        with use_registry(reg):
            tampered = ResultsStore(path)
        assert tampered.get("k1") is None
        assert tampered.checksum_failures == 1
        assert reg.total("repro_store_checksum_failures_total") == 1

    def test_compact_drop_reasons_counted(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("k1", {"cell": {}, "payload": {"x": 1}})
        store.put("k1", {"cell": {}, "payload": {"x": 2}})  # supersedes
        with path.open("a") as handle:
            handle.write("{torn json\n")
        reg = MetricsRegistry()
        with use_registry(reg):
            summary = ResultsStore(path).compact()
        assert summary == {
            "lines_before": 2,
            "corrupt_lines": 1,
            "checksum_failures": 0,
            "records": 1,
        }
        assert reg.value("repro_store_compact_dropped_total", reason="superseded") == 1
        assert reg.value("repro_store_compact_dropped_total", reason="corrupt") == 1
        assert reg.value("repro_store_compact_dropped_total", reason="checksum") == 0


# ------------------------------------------------------------ progress line


class TestProgressLine:
    def make(self, total: int = 6, **kwargs):
        reg = MetricsRegistry()
        stream = io.StringIO()
        line = ProgressLine(total, reg, stream=stream, **kwargs)
        return reg, stream, line

    def test_pipe_mode_emits_newline_lines(self):
        reg, stream, line = self.make(min_interval=0.0)
        line.update(force=True)
        reg.counter("repro_cells_completed_total").inc(3)
        line.update(force=True)
        reg.counter("repro_cells_failed_total").inc()
        reg.counter("repro_sweep_retries_total").inc(2)
        line.update(force=True)
        out = stream.getvalue().splitlines()
        assert out[0].startswith("sweep 0/6 cells")
        assert "eta --" in out[0]
        assert out[1].startswith("sweep 3/6 cells")
        assert "eta " in out[1]
        assert "sweep 4/6 cells | 1 failed | 2 retries" in out[2]
        assert "\r" not in stream.getvalue()  # no tty tricks under a pipe

    def test_done_line_and_cached_segment(self):
        reg, stream, line = self.make(total=4)
        reg.counter("repro_cells_cached_total").inc(4)
        line.close()
        final = stream.getvalue().splitlines()[-1]
        assert final.startswith("sweep 4/4 cells | 4 cached")
        assert "done in" in final

    def test_rate_limit_suppresses_floods(self):
        reg, stream, line = self.make(min_interval=3600.0)
        line.update(force=True)
        for _ in range(50):
            line.update()
        assert len(stream.getvalue().splitlines()) == 1  # only the forced one

    def test_rate_measured_from_execution_epoch(self):
        # 4 cells served from cache during a slow store load, then 3
        # executed in the last 2 seconds: the rate must reflect the 2s of
        # actual execution, not the 100s since construction.
        reg, _, line = self.make(total=10)
        reg.counter("repro_cells_cached_total").inc(4)
        reg.counter("repro_cells_completed_total").inc(3)
        now = line._start + 100.0
        line.begin_execution()
        line._exec_start = line._start + 98.0
        stats = line.stats(now)
        assert stats["executed"] == 3  # cached cells never count as executed
        assert stats["done"] == 7
        assert stats["rate_cells_per_s"] == pytest.approx(1.5)
        assert stats["eta_s"] == pytest.approx((10 - 7) / 1.5)

    def test_begin_execution_is_idempotent(self):
        _, _, line = self.make()
        line.begin_execution()
        first = line._exec_start
        line.begin_execution()
        assert line._exec_start == first

    def test_eta_unknown_when_only_cached(self):
        # A resume that served everything-so-far from cache has no
        # execution rate yet; the ETA must say so rather than extrapolate.
        reg, _, line = self.make(total=6)
        reg.counter("repro_cells_cached_total").inc(4)
        stats = line.stats(line._start + 50.0)
        assert stats["rate_cells_per_s"] == 0.0
        assert stats["eta_s"] is None
        assert "eta --" in line.render(line._start + 50.0)

    def test_stats_is_the_progress_json_contract(self):
        reg, _, line = self.make(total=6)
        reg.counter("repro_cells_completed_total").inc(2)
        reg.counter("repro_cells_failed_total").inc()
        reg.counter("repro_sweep_retries_total").inc(3)
        stats = line.stats()
        assert set(stats) == {
            "total", "done", "completed", "failed", "cached", "retries",
            "executed", "elapsed_s", "rate_cells_per_s", "eta_s",
        }
        assert stats["completed"] == 2
        assert stats["failed"] == 1
        assert stats["retries"] == 3
        assert stats["done"] == 3
        assert json.dumps(stats)  # JSON-serializable as served by /progress

    def test_failed_segment_absent_when_zero(self):
        reg, _, line = self.make(total=6)
        reg.counter("repro_cells_completed_total").inc(2)
        rendered = line.render()
        assert "failed" not in rendered
        assert "retries" not in rendered
        assert "cached" not in rendered

    def test_run_sweep_progress_writes_to_stream(self, capsys):
        result = run_sweep(small_grid(), progress=True)
        err = capsys.readouterr().err
        assert "sweep 6/6 cells" in err
        assert "done in" in err
        assert result.metrics is not None  # progress forces a registry


# -------------------------------------------------------------------- CLI


class TestCLI:
    def test_sweep_flag_defaults(self):
        args = cli.build_parser().parse_args(["sweep"])
        assert args.durable is True
        assert args.progress is False
        assert args.metrics_out is None

    def test_no_durable_parses(self):
        args = cli.build_parser().parse_args(["sweep", "--no-durable"])
        assert args.durable is False

    def test_write_metrics_sibling_roles(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c_total").inc()
        prom, jsn = cli._write_metrics(reg.snapshot(), str(tmp_path / "m.prom"))
        assert (prom.name, jsn.name) == ("m.prom", "m.json")
        prom2, jsn2 = cli._write_metrics(reg.snapshot(), str(tmp_path / "n.json"))
        assert (prom2.name, jsn2.name) == ("n.prom", "n.json")
        assert validate_exposition(prom.read_text()) == 1
        assert json.loads(jsn.read_text())["schema"] == 1

    def test_metrics_command_prints_exposition(self, capsys):
        assert cli.main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert validate_exposition(out) > 0
        assert "repro_cells_completed_total 6" in out

    @pytest.mark.metrics_smoke
    @pytest.mark.timeout(300)
    def test_sweep_metrics_out_and_progress_end_to_end(self, tmp_path, capsys):
        """The CI smoke: demo grid + --progress + --metrics-out, .prom parses."""
        prom_path = tmp_path / "metrics.prom"
        code = cli.main(
            [
                "sweep",
                "--jobs", "2",
                "--store", str(tmp_path / "store.jsonl"),
                "--no-durable",
                "--progress",
                "--metrics-out", str(prom_path),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert prom_path.exists()
        assert validate_exposition(prom_path.read_text()) > 0
        snapshot = json.loads(prom_path.with_suffix(".json").read_text())
        assert snapshot["schema"] == 1
        assert "sweep 6/6 cells" in captured.err
        assert f"wrote {prom_path}" in captured.out
