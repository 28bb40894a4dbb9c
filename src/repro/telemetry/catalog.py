"""Every ``repro_*`` metric family, declared once with its kind and help.

Call sites resolve a labeled child through the family
(``CELLS_COMPLETED.on(registry).inc()``) instead of repeating the name and
help string; :data:`FAMILIES` indexes the catalog by name. The registry
API stays open for ad-hoc families such as a benchmark's own counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["FAMILIES", "Family"]


@dataclass(frozen=True)
class Family:
    """One declared metric family: name, kind, help text, buckets."""

    name: str
    kind: str
    help: str
    buckets: tuple[float, ...] | None = None

    def on(self, registry: MetricsRegistry, **labels: str) -> Counter | Gauge | Histogram:
        """This family's child for ``labels`` on ``registry``."""
        if self.kind == "histogram":
            return registry.histogram(self.name, self.help, self.buckets, **labels)
        return getattr(registry, self.kind)(self.name, self.help, **labels)


def _counter(name: str, help: str) -> Family:
    return Family(name, "counter", help)


def _gauge(name: str, help: str) -> Family:
    return Family(name, "gauge", help)


def _histogram(name: str, help: str) -> Family:
    return Family(name, "histogram", help, DEFAULT_BUCKETS)


# Engines and sampler.
ENGINE_ROUNDS = _counter(
    "repro_engine_rounds_total", "Lock-step synchronous rounds executed, by engine."
)
ENGINE_ROUNDS_SKIPPED = _counter(
    "repro_engine_rounds_skipped_total",
    "Replica-rounds covered by holding-time jumps instead of being stepped "
    "one at a time, by engine.",
)
ENGINE_REPLICAS_RETIRED = _counter(
    "repro_engine_replicas_retired_total",
    "Replicas that left the batched working set (converged, "
    "lingered out, or budget-exhausted).",
)
ENGINE_RUN_SECONDS = _histogram(
    "repro_engine_run_seconds", "Wall-clock seconds per engine run() call, by engine."
)
COUNTS_DRAW_SECONDS = _histogram(
    "repro_counts_draw_seconds",
    "Wall-clock seconds spent in count-level multinomial "
    "transitions (step_counts) per counts-engine run.",
)
SAMPLER_TIER_ROWS = _counter(
    "repro_sampler_tier_rows_total",
    "Replica rows routed to each batched_binomial_counts auto tier.",
)

# Sweep dispatchers.
SWEEP_RETRIES = _counter(
    "repro_sweep_retries_total",
    "Retry attempts granted after a charged cell failure "
    "(exception, timeout, or worker-crash charge).",
)
SWEEP_BACKOFF_SECONDS = _counter(
    "repro_sweep_backoff_seconds_total",
    "Exponential-backoff delay seconds scheduled ahead of retries.",
)
SWEEP_WORKER_CRASHES = _counter(
    "repro_sweep_worker_crashes_total",
    "Worker-pool breakage events (a worker process died and the "
    "pool was replaced); one event may charge several in-flight cells.",
)
SWEEP_WATCHDOG_EXPIRIES = _counter(
    "repro_sweep_watchdog_expiries_total",
    "Per-cell timeout watchdog expiries (attempts abandoned over budget).",
)
SWEEP_INFLIGHT_CELLS = _gauge(
    "repro_sweep_inflight_cells", "Cell attempts currently running in the dispatcher."
)
CELL_SECONDS = _histogram(
    "repro_cell_seconds",
    "Wall-clock seconds of finished cell attempts (successes and "
    "cell exceptions; crashed or timed-out attempts are censored).",
)

# Sweep orchestrator and results store.
SWEEP_CELLS = _gauge("repro_sweep_cells_total", "Cells in the sweep grid being run.")
CELLS_COMPLETED = _counter("repro_cells_completed_total", "Cells computed successfully by this run.")
CELLS_FAILED = _counter(
    "repro_cells_failed_total",
    "Cells that exhausted their retries in this run (fresh failure records).",
)
CELLS_CACHED = _counter(
    "repro_cells_cached_total", "Cells served from the results store without recomputation."
)
STORE_CACHE_HITS = _counter(
    "repro_store_cache_hits_total",
    "Store lookups served on resume (successes and failure records).",
)
STORE_CACHE_MISSES = _counter(
    "repro_store_cache_misses_total",
    "Store lookups that missed on resume (cell had to be computed).",
)
STORE_APPENDS = _counter(
    "repro_store_appends_total", "Result/failure records appended to the results store."
)
STORE_CHECKSUM_FAILURES = _counter(
    "repro_store_checksum_failures_total",
    "Records refused at load because their checksum no longer matched their content.",
)
STORE_COMPACT_DROPPED = _counter(
    "repro_store_compact_dropped_total", "Store lines dropped by compaction, by reason."
)

# Run service and exporters.
SERVICE_JOBS_SUBMITTED = _counter(
    "repro_service_jobs_submitted_total", "Jobs accepted for execution (fresh or requeued)."
)
SERVICE_DEDUP_HITS = _counter(
    "repro_service_dedup_hits_total",
    "Submissions resolved to an already-computed result without scheduling any work.",
)
SERVICE_COALESCED = _counter(
    "repro_service_coalesced_total", "Submissions coalesced onto an identical in-flight job."
)
SERVICE_JOBS_EXECUTED = _counter(
    "repro_service_jobs_executed_total",
    "Jobs a worker actually executed (dedup hits never get here).",
)
SERVICE_JOBS_FINISHED = _counter(
    "repro_service_jobs_finished_total", "Jobs that reached a terminal state, by outcome."
)
PROCESS_UPTIME = _gauge("repro_process_uptime_seconds", "Seconds since serve-metrics started.")

#: Every declared family by name.
FAMILIES: dict[str, Family] = {
    family.name: family for family in globals().values() if isinstance(family, Family)
}
