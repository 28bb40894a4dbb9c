"""The ``service-mixed`` workload: two closed-loop clients against
``repro serve``.

The service runs out of process (``service_launcher.py``) over a results
store pre-filled from the workload's own generator. Each client repeats
the schedule ``fresh, fresh, cached`` and waits for every reply before
sending the next request:

* *fresh* — submit a never-computed run spec, follow ``/runs/{id}/stream``
  (SSE, as ``repro submit --follow`` does) to ``done``, fetch the CSV;
* *cached* — resubmit a spec that is already done, or whose cell the store
  already holds, which must come back ``deduplicated``; fetch the CSV.

Client 0 also scrapes ``/metrics`` once a second. A request that fails,
answers non-2xx or times out counts as failed and as a sample beyond every
latency percentile. After the load, a sample of fetched CSVs is compared
byte for byte with a direct ``run_sweep`` of the same spec.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import layers
import timeline
import workloads
from repro.service import RunServiceClient, ServiceError
from repro.sweep import ResultsStore, run_sweep

__all__ = ["run_service"]

CLIENTS = 2
SCHEDULE = ("fresh", "fresh", "cached")
PREFILL = 800
BOOTS = 3
REQUEST_TIMEOUT_S = 10.0
SCRAPE_EVERY_S = 1.0
BOOT_TIMEOUT_S = 60.0
#: Fetched CSVs compared with a direct sweep, per request kind.
CSV_SAMPLES = 4


class OneCellGrids:
    """Duck-typed grid over explicit run specs (``run_sweep`` needs only
    ``name`` and ``expand``) — how the service itself runs a run job."""

    def __init__(self, cells, name: str = "perfbench") -> None:
        self._cells = list(cells)
        self.name = name

    def expand(self):
        return list(self._cells)


class Server:
    """One ``repro serve`` process started through the launcher."""

    def __init__(self, root: Path, tmp: Path, store: Path, tag: str, trace: bool) -> None:
        self.rss_path = tmp / f"rss-{tag}.json"
        self.trace_path = tmp / f"trace-{tag}.json" if trace else None
        command = [sys.executable, str(root / "perfbench" / "service_launcher.py"),
                   "--rss-out", str(self.rss_path)]
        if self.trace_path is not None:
            command += ["--trace-out", str(self.trace_path)]
        command += ["--", "--host", "127.0.0.1", "--port", "0", "--store", str(store),
                    "--workers", "1", "--jobs", "1"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr = open(tmp / f"stderr-{tag}.log", "wb")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        try:
            self.url = self._await_banner(began)
            self._await_health(began)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - began

    def _await_banner(self, began: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            if time.perf_counter() - began > BOOT_TIMEOUT_S or self.proc.poll() is not None:
                raise RuntimeError("run service did not start")
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.05)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("run service exited during boot")
                line += chunk
        text = line.decode().split("\n")[0]
        start = text.index("http://")
        return text[start:].split("/runs")[0]

    def _await_health(self, began: float) -> None:
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                pass
            if time.perf_counter() - began > BOOT_TIMEOUT_S:
                raise RuntimeError("run service never answered /healthz")
            time.sleep(0.005)

    def stop(self) -> dict:
        """SIGTERM, wait, and return the launcher's peak RSS (and trace)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.stderr.close()
        out = {"peak_rss_mb": math.nan, "trace": None}
        if self.rss_path.exists():
            out["peak_rss_mb"] = json.loads(self.rss_path.read_text())["peak_rss_mb"]
        if self.trace_path is not None and self.trace_path.exists():
            out["trace"] = json.loads(self.trace_path.read_text())
        return out


class Plan:
    """The shared request plan: fresh specs, and specs to resubmit."""

    def __init__(self, seed: int, heldout: bool, stored: list) -> None:
        self._fresh = workloads.FreshStream(seed, heldout)
        self._stored = list(stored)
        self._done: list = []
        self._turn = 0
        self._lock = threading.Lock()

    def fresh(self):
        with self._lock:
            return self._fresh.next()

    def finished(self, spec) -> None:
        with self._lock:
            self._done.append(spec)

    def cached(self):
        """Alternate store-covered specs (first time: deduplicated by the
        store; later: by the done job) with done fresh jobs."""
        with self._lock:
            self._turn += 1
            if self._done and self._turn % 2 == 0:
                return self._done[self._turn // 2 % len(self._done)]
            return self._stored[self._turn // 2 % len(self._stored)]


class Load:
    """Closed-loop clients' shared ledger for one load segment."""

    def __init__(self) -> None:
        self.tally = timeline.ClosedLoopTally()
        self.fresh_jobs: list[dict] = []
        self.samples: dict[str, list] = {"fresh": [], "cached": []}
        self.dedup = 0
        self.submits = 0
        self.checks: list[dict] = []
        self.scrapes = 0
        self.scrape_failures = 0
        self.last_scrape = ""
        self.lock = threading.Lock()

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        if not ok:
            with self.lock:
                self.checks.append({"check": name, "ok": False, "detail": detail})
        return ok


def _client_loop(index: int, url: str, plan: Plan, load: Load, stop: threading.Event) -> None:
    client = RunServiceClient(url, timeout=REQUEST_TIMEOUT_S)
    step = index  # clients start at different points of the schedule
    last_scrape = 0.0
    while not stop.is_set():
        kind = SCHEDULE[step % len(SCHEDULE)]
        step += 1
        spec = plan.fresh() if kind == "fresh" else plan.cached()
        began = time.perf_counter()
        try:
            outcome = _request(client, kind, spec, load)
        except (TimeoutError, ServiceError, OSError, ValueError, KeyError,
                http.client.HTTPException) as exc:
            timed_out = isinstance(exc, TimeoutError) or "timed out" in str(exc)
            with load.lock:
                (load.tally.timeout if timed_out else load.tally.fail)(kind)
            continue
        latency = time.perf_counter() - began
        with load.lock:
            if outcome is None:
                load.tally.fail(kind)
                continue
            load.tally.ok(kind, latency)
            if kind == "fresh":
                load.fresh_jobs.append(outcome["timing"])
                plan.finished(spec)
            if len(load.samples[kind]) < CSV_SAMPLES:
                load.samples[kind].append((spec, outcome["csv"]))
        if index == 0 and time.perf_counter() - last_scrape >= SCRAPE_EVERY_S:
            last_scrape = time.perf_counter()
            _scrape(url, load)


def _request(client: RunServiceClient, kind: str, spec, load: Load) -> dict | None:
    """One fresh or cached request; ``None`` when its reply was wrong."""
    status = client.submit({"run": spec.to_dict()})
    job_id = status["job_id"]
    with load.lock:
        load.submits += 1
        load.dedup += bool(status["deduplicated"])
    timing = None
    if kind == "fresh":
        if not load.check("fresh.not-deduplicated", not status["deduplicated"], job_id):
            return None
        done = None
        for event, payload in client.stream(job_id, timeout=REQUEST_TIMEOUT_S):
            if event == "done":
                done = payload
            elif event == "timeout":
                raise TimeoutError(f"job {job_id[:12]} did not finish")
        seen = time.time()
        if not load.check("fresh.done", done is not None and done["state"] == "done", job_id):
            return None
        timing = {
            "queue_wait_s": done["started_ts"] - done["created_ts"],
            "job_run_s": done["finished_ts"] - done["started_ts"],
            "notify_lag_s": seen - done["finished_ts"],
        }
    elif not load.check("cached.deduplicated", status["deduplicated"], job_id):
        return None
    csv = client.result_csv(job_id)
    if not load.check(f"{kind}.csv-one-row", csv.count(b"\n") == 2, job_id):
        return None
    return {"csv": csv, "timing": timing}


def _scrape(url: str, load: Load) -> None:
    try:
        with urllib.request.urlopen(url + "/metrics", timeout=REQUEST_TIMEOUT_S) as resp:
            text = resp.read().decode()
        ok = True
    except (OSError, http.client.HTTPException):
        ok, text = False, ""
    with load.lock:
        load.scrapes += 1
        if ok:
            load.last_scrape = text
        else:
            load.scrape_failures += 1


def run_load(url: str, plan: Plan, seconds: float) -> tuple[Load, float]:
    load = Load()
    stop = threading.Event()
    threads = [
        threading.Thread(target=_client_loop, args=(i, url, plan, load, stop), daemon=True)
        for i in range(CLIENTS)
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=3 * REQUEST_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("a load client did not finish its last request")
    return load, time.perf_counter() - began


def _direct_csv(spec, tmp: Path) -> bytes:
    path = tmp / "direct.csv"
    run_sweep(OneCellGrids([spec]), jobs=1).write_csv(path)
    return path.read_bytes()


def _tier_rows(metrics_text: str) -> dict[str, float]:
    rows = {}
    for line in metrics_text.splitlines():
        if line.startswith("repro_sampler_tier_rows_total{"):
            labels, value = line.rsplit(" ", 1)
            tier = labels.split('tier="')[1].split('"')[0]
            rows[tier] = float(value)
    return rows


def _p(values: list[float], q: float) -> float:
    """Percentile of a per-layer breakdown, without the ten-beyond rule
    (the record keeps the sample counts); 0 when there are no samples."""
    return timeline.percentile(values, q, min_beyond=0) if values else 0.0


def run_service(root: Path, out: Path, *, seed: int, heldout: bool, seconds: float,
                trace: bool) -> dict:
    tmp = out / f"service-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    servers: list[Server] = []
    try:
        return _run(root, tmp, servers, seed=seed, heldout=heldout, seconds=seconds, trace=trace)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(tmp, ignore_errors=True)


def _run(root, tmp, servers, *, seed, heldout, seconds, trace) -> dict:
    store_path = tmp / "store.jsonl"
    stored = workloads.prefill_specs(seed, heldout, PREFILL)
    run_sweep(OneCellGrids(stored, "prefill"), jobs=1,
              store=ResultsStore(store_path, durable=False))
    plan = Plan(seed, heldout, stored)

    boots, rss = [], []
    for index in range(BOOTS):
        servers.append(Server(root, tmp, store_path, f"boot{index}", trace=False))
        boots.append(servers[-1].boot_s)
        if index < BOOTS - 1:
            rss.append(servers.pop().stop()["peak_rss_mb"])
    segment = seconds / 2 if trace else seconds
    load, wall = run_load(servers[-1].url, plan, segment)
    rss.append(servers.pop().stop()["peak_rss_mb"])

    result = {"load": load, "wall": wall, "setup_s": statistics.median(boots),
              "peak_rss_mb": max(rss), "boots_s": boots}
    if trace:
        servers.append(Server(root, tmp, store_path, "traced", trace=True))
        window_start = time.time()
        traced_load, traced_wall = run_load(servers[-1].url, plan, segment)
        window = (window_start, time.time())
        _scrape(servers[-1].url, traced_load)  # the counters at the end of the load
        stopped = servers.pop().stop()
        result.update(traced=traced_load, traced_wall=traced_wall, window=window,
                      trace=stopped["trace"])

    checks = []
    for kind in ("fresh", "cached"):
        for spec, csv in load.samples[kind]:
            same = _direct_csv(spec, tmp) == csv
            checks.append({"check": f"{kind}.csv-identical", "ok": same,
                           "detail": spec.key()[:12]})
    result["csv_checks"] = checks
    return result


def end_to_end(result: dict) -> dict:
    load, wall = result["load"], result["wall"]
    tally = load.tally
    fresh_ok = tally.count("fresh") - tally.failures["fresh"] - tally.timeouts["fresh"]
    ops = tally.latencies("fresh", "cached")
    return {
        "setup_s": result["setup_s"],
        "trials_per_s": fresh_ok * workloads.FRESH_TRIALS / wall,
        "requests_per_s": len(ops) / wall,
        "p50_ms": 1000 * timeline.percentile(ops, 50),
        "p90_ms": 1000 * timeline.percentile(ops, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> dict:
    load, traced = result["load"], result["traced"]
    trace = result["trace"]
    epoch = trace["epoch_wall"]
    records = [
        dict(r, start=epoch + r["start"], end=epoch + r["start"] + r["duration"])
        for r in trace["records"]
    ]

    def durations(name: str) -> list[float]:
        return [r["end"] - r["start"] for r in records if r["name"] == name]

    shares, unattributed = timeline.attribute(records, result["window"])
    share_by_layer = timeline.layer_totals(records, shares, layers.layer_of)
    raw_by_layer = timeline.layer_totals(records, timeline.self_times(records), layers.layer_of)
    jobs = max(1, len(durations("sweep")))
    counts = trace["counts"]
    fresh = traced.fresh_jobs
    ms = 1000.0
    tiers = _tier_rows(traced.last_scrape)
    lookups = counts.get("store.lookups", 0)
    untraced_rate = len(load.tally.latencies()) / result["wall"]
    traced_rate = len(traced.tally.latencies()) / result["traced_wall"]
    return {
        "sweep.orchestrator_self_s": share_by_layer.get("sweep.orchestrator", 0.0) / jobs,
        "sweep.cell_self_s": share_by_layer.get("sweep.cell", 0.0) / jobs,
        "sampling.self_s": share_by_layer.get("sampling", 0.0) / jobs,
        "protocol.step_batch_self_s": share_by_layer.get("protocol.step_batch", 0.0) / jobs,
        "protocol.step_counts_self_s": share_by_layer.get("protocol.step_counts", 0.0) / jobs,
        "engine.batched_self_s": share_by_layer.get("engine.batched", 0.0) / jobs,
        "engine.counts_self_s": share_by_layer.get("engine.counts", 0.0) / jobs,
        "harness.prepare_s": share_by_layer.get("harness", 0.0) / jobs,
        "sampling.draws": counts.get("sampling.draws", 0) / jobs,
        "sampling.ns_per_draw": (1e9 * raw_by_layer.get("sampling", 0.0) / counts["sampling.draws"]
                                 if counts.get("sampling.draws") else 0.0),
        "sampling.rows_consensus": tiers.get("consensus", 0.0) / jobs,
        "sampling.rows_sparse": tiers.get("sparse", 0.0) / jobs,
        "sampling.rows_grouped": tiers.get("grouped", 0.0) / jobs,
        "sampling.rows_histogram": tiers.get("histogram", 0.0) / jobs,
        "engine.batched_replica_rounds": counts.get("engine.batched_replica_rounds", 0) / jobs,
        "engine.counts_replica_rounds": counts.get("engine.counts_replica_rounds", 0) / jobs,
        "store.put_p50_ms": ms * _p(durations("store.put"), 50),
        "store.get_p50_ms": ms * _p(durations("store.get"), 50),
        "store.load_s": sum(durations("store.load")),
        "store.hit_frac": counts.get("store.hits", 0) / lookups if lookups else 0.0,
        "service.queue_wait_p50_ms": ms * _p([j["queue_wait_s"] for j in fresh], 50),
        "service.job_run_p50_ms": ms * _p([j["job_run_s"] for j in fresh], 50),
        "service.notify_lag_p50_ms": ms * _p([j["notify_lag_s"] for j in fresh], 50),
        "service.submit_p50_ms": ms * _p(durations("service.submit"), 50),
        "service.result_p50_ms": ms * _p(durations("service.result"), 50),
        "service.dedup_frac": traced.dedup / traced.submits if traced.submits else 0.0,
        "service.fresh_p50_ms": ms * _p(load.tally.latencies("fresh"), 50),
        "service.fresh_p90_ms": ms * _p(load.tally.latencies("fresh"), 90),
        "service.cached_p50_ms": ms * _p(load.tally.latencies("cached"), 50),
        "service.cached_p99_ms": ms * _p(load.tally.latencies("cached"), 99),
        "telemetry.scrape_p50_ms": ms * _p(durations("telemetry.scrape"), 50),
        "unattributed_frac": unattributed / (result["window"][1] - result["window"][0]),
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0,
        "_layer_share_s": dict(sorted(share_by_layer.items())),
        "_samples": {
            "fresh": load.tally.count("fresh"), "cached": load.tally.count("cached"),
            "traced_fresh": len(fresh), "scrapes": traced.scrapes,
        },
    }


def outcome(result: dict) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failed checks) over every load segment."""
    attempted = failed = 0
    checks = list(result["csv_checks"])
    for key in ("load", "traced"):
        load = result.get(key)
        if load is None:
            continue
        attempted += load.tally.attempted + load.scrapes
        failed += load.tally.failed + load.scrape_failures
        checks.extend(load.checks)
    attempted += len(result["csv_checks"])
    failed += sum(1 for c in result["csv_checks"] if not c["ok"])
    return attempted, failed, [c for c in checks if not c["ok"]]
