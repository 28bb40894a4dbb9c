"""Cell dispatchers: run a work list inline or across a process pool.

A dispatcher maps a function over items and returns results **in submission
order** no matter when each item finishes. Completion events are surfaced
through an ``on_result`` callback invoked in the orchestrating process (in
completion order), which is where the orchestrator persists finished cells
— workers never touch the store, so no cross-process locking is needed.

:class:`ProcessPoolDispatcher` fans items out over ``jobs`` OS processes —
the sweep layer's answer to the one-core ceiling of a single ``(R, n)``
batch: cells are embarrassingly parallel (independent derived seeds, no
shared state), so the pool scales wall-clock with cores while the ordered
collection keeps aggregate output bitwise identical to a serial run.

Pool lifetime
-------------

Workers outlive the map that started them. A process keeps a free list of
idle executors keyed by ``jobs``; each :meth:`ProcessPoolDispatcher.map`
checks one out (or forks a new one with ``jobs`` workers), and puts it
back when its work drains normally, so a run of small sweeps pays the fork
and every worker's first-call costs once, not once per sweep. Any other
way out — a watchdog expiry, a dead worker, an exception under
``on_failure="raise"``, ``KeyboardInterrupt`` — kills the executor
instead, and it is never reused. Two concurrent maps never share an
executor (each checks out its own), so the watchdog's premise below holds
per map. Forking a pool of a new size kills the idle pools of other sizes,
so a process never holds more pools than the most maps it has run at once.
A child made by :func:`os.fork` forgets its parent's executors and
workers, so it neither reuses nor joins them. Workers fork under an empty
:mod:`contextvars` context, so a warm worker never carries the ambient
telemetry of the sweep that forked it. Idle executors are shut down when
the interpreter exits.

Fault tolerance
---------------

Both dispatchers accept a :class:`FaultPolicy` governing what happens when
a cell misbehaves. Three failure modes are survived on the pool path:

* **cell exception** — the worker function raised; the cell is retried up
  to ``max_retries`` times with exponential backoff plus jitter;
* **worker crash** — a worker process died (segfault, OOM kill,
  ``os._exit``), which poisons the whole :class:`ProcessPoolExecutor`
  (``BrokenProcessPool``); completed in-flight results are salvaged, the
  pool is killed and the map carries on with a fresh one, and crashed
  attempts are retried;
* **hung cell** — a cell exceeded the per-cell ``timeout``; a watchdog
  kills the pool (the only way to abandon a running task in a process
  pool), requeues the innocent in-flight cells *without* charging them an
  attempt, and retries the hung cell on a fresh pool. The serial
  dispatcher enforces the same budget by running each attempt in a
  watchdog thread and abandoning it on expiry (:func:`_call_with_timeout`).

Both dispatchers report retries, backoff, crashes, watchdog expiries, an
in-flight gauge, and per-attempt wall-clock into the ambient
:mod:`repro.telemetry` registry when one is installed; with telemetry off
(the default) the probes reduce to one ``None`` check per ``map``. The
same fault paths additionally emit structured events (``sweep.retry``,
``sweep.backoff``, ``sweep.worker_crash``, ``sweep.watchdog_expired``)
onto the ambient event log when one is installed — the ordered "what
happened" record behind ``--events-out``.

Because retried work functions are deterministic per item (sweep cells
carry their own derived seeds), a retry recomputes exactly the result the
failed attempt would have produced — fault recovery never changes output,
only wall-clock.

Cells that exhaust their retries either abort the map (``on_failure=
"raise"``, the default — queued work is cancelled and the pool torn down
promptly rather than draining) or complete as structured
:class:`FailedItem` values (``on_failure="record"``) that the sweep
orchestrator persists as failure records.

The watchdog relies on the pool never queueing more than one task per
worker (submission is throttled to ``jobs`` in-flight items), so every
in-flight item is genuinely *running* and its elapsed time is measured
from its real start. This also resolves the ``BrokenProcessPool``
ambiguity — the standard library cannot say which task killed the worker,
but every in-flight task was running in *some* worker, so each is charged
one crashed attempt (innocent neighbours lose one retry budget slot in
exchange for never mis-blaming a queued cell that had not started).
"""

from __future__ import annotations

import atexit
import contextvars
import multiprocessing.process
import os
import random
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..telemetry import catalog
from ..telemetry.events import emit_event
from ..telemetry.registry import MetricsRegistry, current_registry

__all__ = [
    "FaultPolicy",
    "FailedItem",
    "CellTimeoutError",
    "BrokenWorkerError",
    "SerialDispatcher",
    "ProcessPoolDispatcher",
    "make_dispatcher",
]

T = TypeVar("T")
R = TypeVar("R")

OnResult = Callable[[int, R], None] | None

#: Lines kept from the end of a failing attempt's formatted traceback.
TRACEBACK_TAIL = 6


class CellTimeoutError(TimeoutError):
    """A cell exceeded the per-cell ``FaultPolicy.timeout`` budget."""


class BrokenWorkerError(RuntimeError):
    """A worker process died while (probably) running this cell.

    Deliberately *not* a ``BrokenProcessPool`` subclass: the dispatcher
    catches ``BrokenProcessPool`` to replace the pool, and this error must
    propagate to the caller instead of re-entering that recovery path.
    """


@dataclass(frozen=True)
class FaultPolicy:
    """What a dispatcher does when a cell fails.

    Parameters
    ----------
    max_retries:
        Extra attempts per cell after the first failure (0 = fail fast).
    backoff_base:
        Seconds slept before retry 1; retry ``k`` waits
        ``backoff_base * 2**(k-1)`` (capped at ``backoff_max``) plus up to
        ``jitter`` of itself in uniform random jitter, so simultaneous
        retries de-synchronize. ``0`` disables the sleep entirely — use
        that in tests.
    backoff_max:
        Upper bound on the exponential term, so deep retries do not sleep
        for minutes.
    jitter:
        Jitter fraction added on top of the exponential term (the sleep is
        uniform in ``[backoff, backoff * (1 + jitter)]``). Randomized sleep
        never affects results — cells are deterministic per seed.
    timeout:
        Per-cell wall-clock budget in seconds; ``None`` disables the
        watchdog. The pool dispatcher enforces it by killing the pool and
        carrying on with a fresh one; the serial dispatcher runs each
        attempt in a watchdog thread and *abandons* it on expiry (threads
        cannot be preempted, so the zombie attempt keeps computing in the
        background while the dispatcher charges the timeout and moves on).
    on_failure:
        ``"raise"`` (default) re-raises the final error after retries are
        exhausted, cancelling all queued work; ``"record"`` completes the
        cell as a :class:`FailedItem` and keeps going.
    """

    max_retries: int = 0
    backoff_base: float = 0.1
    backoff_max: float = 30.0
    jitter: float = 0.5
    timeout: float | None = None
    on_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_max < 0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.on_failure not in ("raise", "record"):
            raise ValueError(
                f"on_failure must be 'raise' or 'record', got {self.on_failure!r}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based): exponential + jitter."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        if self.backoff_base <= 0:
            return 0.0
        base = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        return base * (1.0 + self.jitter * random.random())


@dataclass
class FailedItem:
    """A cell that exhausted its retries under ``on_failure="record"``.

    Takes the place of the cell's result in the dispatcher's ordered
    output (and in ``on_result``), carrying everything a resume needs to
    know about *why* the cell failed: one entry per attempt with the error
    type, message, a formatted-traceback tail, and the failure kind
    (``"exception"``, ``"timeout"`` or ``"worker-crash"``).
    """

    index: int
    attempts: list[dict] = field(default_factory=list)

    @property
    def error_type(self) -> str:
        return self.attempts[-1]["type"] if self.attempts else "UnknownError"

    @property
    def message(self) -> str:
        return self.attempts[-1]["message"] if self.attempts else ""

    def describe(self) -> str:
        """Deterministic one-line rendering (the CSV ``error`` column)."""
        return f"{self.error_type}: {self.message}"

    def to_record(self) -> dict:
        """JSON-able failure record for the results store."""
        last = self.attempts[-1] if self.attempts else {}
        return {
            "type": self.error_type,
            "message": self.message,
            "kind": last.get("kind", "exception"),
            "traceback": list(last.get("traceback", [])),
            "attempts": len(self.attempts),
            "attempt_log": [dict(entry) for entry in self.attempts],
        }


def _exception_entry(exc: BaseException) -> dict:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = [line.rstrip() for line in "".join(lines).splitlines()[-TRACEBACK_TAIL:]]
    return {
        "kind": "exception",
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": tail,
    }


def _timeout_entry(timeout: float) -> dict:
    return {
        "kind": "timeout",
        "type": "CellTimeoutError",
        "message": f"cell exceeded the {timeout:g}s per-cell timeout",
        "traceback": [],
    }


def _crash_entry() -> dict:
    return {
        "kind": "worker-crash",
        "type": "BrokenWorkerError",
        "message": "worker process died while the cell was in flight (segfault/OOM/kill)",
        "traceback": [],
    }


class _DispatchMetrics:
    """Pre-resolved dispatcher metric children (one registry lookup per map).

    Both dispatchers report through the same family names, so ``jobs=1``
    and ``jobs=N`` runs of one grid aggregate identically.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.retries = catalog.SWEEP_RETRIES.on(registry)
        self.backoff = catalog.SWEEP_BACKOFF_SECONDS.on(registry)
        self.crashes = catalog.SWEEP_WORKER_CRASHES.on(registry)
        self.watchdog = catalog.SWEEP_WATCHDOG_EXPIRIES.on(registry)
        self.inflight = catalog.SWEEP_INFLIGHT_CELLS.on(registry)
        self.cell_seconds = catalog.CELL_SECONDS.on(registry)

    @classmethod
    def maybe(cls) -> "_DispatchMetrics | None":
        registry = current_registry()
        return cls(registry) if registry is not None else None


def _call_with_timeout(fn: Callable[[T], R], item: T, timeout: float) -> R:
    """Run ``fn(item)`` in a watchdog thread; give up after ``timeout``.

    Python threads cannot be preempted, so a timed-out attempt is
    *abandoned*, not killed: the daemon thread keeps computing in the
    background (it cannot block interpreter exit) while the caller charges
    the timeout and moves on — the serial analogue of the pool watchdog's
    discard-the-attempt semantics, at the cost of the zombie attempt's CPU
    until it finishes on its own. The thread starts with a fresh
    contextvars context, so it sees no ambient metrics registry and an
    abandoned attempt can never corrupt the parent's telemetry.
    """
    outcome: list[tuple[bool, object]] = []

    def _target() -> None:
        try:
            outcome.append((True, fn(item)))
        except BaseException as exc:  # ship the failure back by value
            outcome.append((False, exc))

    thread = threading.Thread(target=_target, name="repro-serial-cell", daemon=True)
    thread.start()
    thread.join(timeout)
    if not outcome:
        raise CellTimeoutError(f"cell exceeded the {timeout:g}s per-cell timeout")
    ok, value = outcome[0]
    if ok:
        return value  # type: ignore[return-value]
    raise value  # type: ignore[misc]


class SerialDispatcher:
    """Run every item inline in the calling process (``jobs=1``).

    Also the fallback of choice for debugging: tracebacks surface directly
    and no subprocess machinery is involved. Honors ``FaultPolicy`` retries
    and failure recording. When the policy sets a per-cell ``timeout``,
    each attempt runs in a watchdog thread (:func:`_call_with_timeout`) and
    is abandoned on expiry; without a timeout, attempts run truly inline so
    debuggers and profilers see the plain call stack.
    """

    jobs = 1

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: OnResult = None,
        policy: FaultPolicy | None = None,
    ) -> list[R]:
        policy = policy if policy is not None else FaultPolicy()
        metrics = _DispatchMetrics.maybe()
        results: list[R] = []
        for index, item in enumerate(items):
            attempt_log: list[dict] = []
            while True:
                entry: dict | None = None
                failure: BaseException | None = None
                if metrics is not None:
                    metrics.inflight.inc()
                attempt_start = time.perf_counter()
                try:
                    if policy.timeout is not None:
                        result: R = _call_with_timeout(fn, item, policy.timeout)
                    else:
                        result = fn(item)
                except CellTimeoutError as exc:
                    entry = _timeout_entry(policy.timeout or 0.0)
                    failure = exc
                    if metrics is not None:
                        metrics.watchdog.inc()
                    emit_event(
                        "sweep.watchdog_expired", item=index, timeout_s=policy.timeout
                    )
                except Exception as exc:
                    entry = _exception_entry(exc)
                    failure = exc
                    if metrics is not None:
                        metrics.cell_seconds.observe(time.perf_counter() - attempt_start)
                else:
                    if metrics is not None:
                        metrics.cell_seconds.observe(time.perf_counter() - attempt_start)
                finally:
                    if metrics is not None:
                        metrics.inflight.dec()
                if entry is None:
                    break
                entry["attempt"] = len(attempt_log) + 1
                attempt_log.append(entry)
                if len(attempt_log) <= policy.max_retries:
                    delay = policy.backoff(len(attempt_log))
                    if metrics is not None:
                        metrics.retries.inc()
                        metrics.backoff.inc(delay)
                    emit_event(
                        "sweep.retry",
                        item=index,
                        attempt=len(attempt_log),
                        error=entry["type"],
                        delay_s=round(delay, 6),
                    )
                    if delay > 0:
                        emit_event("sweep.backoff", item=index, delay_s=round(delay, 6))
                        time.sleep(delay)
                    continue
                if policy.on_failure == "record":
                    result = FailedItem(index=index, attempts=attempt_log)  # type: ignore[assignment]
                    break
                raise failure
            results.append(result)
            if on_result is not None:
                on_result(index, result)
        return results


class _MapState:
    """Bookkeeping for one fault-tolerant :meth:`ProcessPoolDispatcher.map`.

    Tracks, per item index: the collected result, failed-attempt log, the
    last exception (re-raised under ``on_failure="raise"``), and the
    backoff gate (``not_before``) in front of each retry.
    """

    def __init__(self, count: int, policy: FaultPolicy, on_result: OnResult) -> None:
        self.policy = policy
        self.on_result = on_result
        self.metrics = _DispatchMetrics.maybe()
        self.results: list = [None] * count
        self.done = [False] * count
        self.attempt_log: list[list[dict]] = [[] for _ in range(count)]
        self.last_exc: list[BaseException | None] = [None] * count
        self.ready: list[int] = list(range(count))
        self.not_before = [0.0] * count

    @property
    def outstanding(self) -> int:
        return self.done.count(False)

    def succeed(self, index: int, result) -> None:
        self.results[index] = result
        self.done[index] = True
        if self.on_result is not None:
            self.on_result(index, result)

    def requeue(self, index: int) -> None:
        """Resubmit without charging an attempt (innocent pool-kill victim)."""
        self.ready.append(index)

    def fail(self, index: int, entry: dict, exc: BaseException) -> None:
        """Charge one failed attempt; requeue (after backoff) or finalize."""
        entry = dict(entry)
        entry["attempt"] = len(self.attempt_log[index]) + 1
        self.attempt_log[index].append(entry)
        self.last_exc[index] = exc
        attempts = len(self.attempt_log[index])
        if attempts <= self.policy.max_retries:
            delay = self.policy.backoff(attempts)
            self.not_before[index] = time.monotonic() + delay
            if self.metrics is not None:
                self.metrics.retries.inc()
                self.metrics.backoff.inc(delay)
            emit_event(
                "sweep.retry",
                item=index,
                attempt=attempts,
                error=entry["type"],
                delay_s=round(delay, 6),
            )
            if delay > 0:
                emit_event("sweep.backoff", item=index, delay_s=round(delay, 6))
            self.ready.append(index)
            return
        if self.policy.on_failure == "record":
            self.succeed(index, FailedItem(index=index, attempts=self.attempt_log[index]))
            return
        raise exc


#: Idle warm executors by ``jobs``; see "Pool lifetime".
_IDLE: dict[int, list[ProcessPoolExecutor]] = {}
_IDLE_LOCK = threading.Lock()


def _forget_parent_pools() -> None:
    """In a forked child: drop the parent's free list, its lock and the
    workers its exit hook would try to join ("can only join a child")."""
    global _IDLE_LOCK
    _IDLE_LOCK = threading.Lock()
    _IDLE.clear()
    multiprocessing.process._children.clear()


os.register_at_fork(after_in_child=_forget_parent_pools)


def _alive(executor: ProcessPoolExecutor) -> bool:
    """No worker of the idle ``executor`` has died since it was returned.

    Without this check a worker lost while idle (OOM kill, signal) would
    surface as a crash charged to the next map's cells. Reads the same
    private attributes as :meth:`ProcessPoolDispatcher._kill_pool`.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    return not getattr(executor, "_broken", False) and all(
        process.is_alive() for process in processes
    )


def _checkout(jobs: int) -> ProcessPoolExecutor:
    """Take an idle executor with ``jobs`` workers, or make a new one.

    An idle executor whose worker died meanwhile is killed, not handed out.
    Making a new one kills this process's idle executors of other sizes.
    """
    stale: list[ProcessPoolExecutor] = []
    executor = None
    with _IDLE_LOCK:
        idle = _IDLE.get(jobs, [])
        while idle and executor is None:
            candidate = idle.pop()
            if _alive(candidate):
                executor = candidate
            else:
                stale.append(candidate)
        if executor is None:
            for key in [key for key in _IDLE if key != jobs]:
                stale.extend(_IDLE.pop(key))
    for pool in stale:
        ProcessPoolDispatcher._kill_pool(pool)
    return executor if executor is not None else ProcessPoolExecutor(max_workers=jobs)


def _checkin(jobs: int, executor: ProcessPoolExecutor) -> None:
    """Return a drained executor to the free list for the next map."""
    with _IDLE_LOCK:
        _IDLE.setdefault(jobs, []).append(executor)


@atexit.register
def _shutdown_idle() -> None:
    """Shut down this process's idle executors (runs at interpreter exit)."""
    with _IDLE_LOCK:
        executors = [executor for key in list(_IDLE) for executor in _IDLE.pop(key)]
    for executor in executors:
        executor.shutdown(wait=True)


class ProcessPoolDispatcher:
    """Fan items out over ``jobs`` worker processes, collect in order.

    ``fn`` and the items must be picklable and ``fn`` must be deterministic
    per item (sweep cells carry their own seeds, so this holds by
    construction). Failure handling is governed by the ``policy`` passed to
    :meth:`map` — see the module docstring for the three survived failure
    modes. Under the default policy (no retries, ``on_failure="raise"``) a
    worker exception propagates to the caller *promptly*: in-flight and
    queued work is cancelled and the pool torn down instead of draining
    every remaining cell first.

    The workers are warm: :meth:`map` checks an idle executor with ``jobs``
    workers out of the process's free list (forking one only when none is
    idle) and returns it when the work drains normally. On every other
    exit — watchdog expiry, a dead worker, an exception under
    ``on_failure="raise"``, ``KeyboardInterrupt`` — the executor is killed
    (:meth:`_kill_pool`) and never returned, and a map that must go on
    checks out another. Concurrent maps never share an executor, and a
    forked child starts with an empty free list, so it never uses its
    parent's.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: OnResult = None,
        policy: FaultPolicy | None = None,
    ) -> list[R]:
        policy = policy if policy is not None else FaultPolicy()
        items = list(items)
        if not items:
            return []
        state = _MapState(len(items), policy, on_result)
        while state.outstanding:
            max_workers = min(self.jobs, state.outstanding)
            executor = _checkout(self.jobs)
            drained = False
            try:
                drained = self._run_pool(executor, max_workers, fn, items, state)
            finally:
                if drained:
                    _checkin(self.jobs, executor)
                else:
                    self._kill_pool(executor)
        if state.metrics is not None:
            state.metrics.inflight.set(0)
        return state.results

    # ------------------------------------------------------------ internals

    def _run_pool(
        self,
        executor: ProcessPoolExecutor,
        max_workers: int,
        fn: Callable[[T], R],
        items: list[T],
        state: _MapState,
    ) -> bool:
        """Drive one pool until the work drains (``True``: the pool goes
        back to the free list) or it must be killed (``False``: a hung cell
        or a dead worker)."""
        inflight: dict[Future, int] = {}
        started: dict[int, float] = {}
        try:
            while state.ready or inflight:
                self._submit_eligible(executor, max_workers, fn, items, state, inflight, started)
                if not inflight:
                    # Everything runnable is behind its backoff gate.
                    gate = min(state.not_before[index] for index in state.ready)
                    delay = gate - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, 0.5))
                    continue
                done, _ = wait(
                    list(inflight), timeout=self._tick(state, inflight, started),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = inflight[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        raise  # handled below: charge in-flight, kill the pool
                    except Exception as exc:
                        inflight.pop(future)
                        begun = started.pop(index, None)
                        if state.metrics is not None and begun is not None:
                            state.metrics.cell_seconds.observe(time.monotonic() - begun)
                        state.fail(index, _exception_entry(exc), exc)
                    else:
                        inflight.pop(future)
                        begun = started.pop(index, None)
                        if state.metrics is not None and begun is not None:
                            state.metrics.cell_seconds.observe(time.monotonic() - begun)
                        state.succeed(index, result)
                if state.metrics is not None:
                    state.metrics.inflight.set(len(inflight))
                if policy_timeout := state.policy.timeout:
                    if self._expire_timeouts(policy_timeout, state, inflight, started):
                        return False
        except BrokenProcessPool:
            # A worker died abruptly. Submission is throttled to one task
            # per worker, so every in-flight future was running in some
            # worker: salvage the ones that completed, charge the rest one
            # crashed attempt each. Counted as ONE breakage event — the
            # stdlib cannot say which cell killed the worker, and charging
            # the metric per in-flight cell would over-report a single
            # death by up to ``jobs``.
            if state.metrics is not None:
                state.metrics.crashes.inc()
            emit_event("sweep.worker_crash", inflight=len(inflight))
            for future, index in list(inflight.items()):
                if future.done():
                    try:
                        state.succeed(index, future.result())
                        continue
                    except Exception:
                        pass
                state.fail(
                    index,
                    _crash_entry(),
                    BrokenWorkerError(
                        f"worker process died while item {index} was in flight"
                    ),
                )
            return False
        return True

    def _submit_eligible(
        self,
        executor: ProcessPoolExecutor,
        max_workers: int,
        fn: Callable[[T], R],
        items: list[T],
        state: _MapState,
        inflight: dict[Future, int],
        started: dict[int, float],
    ) -> None:
        """Top the pool up to one in-flight task per worker.

        Throttling to ``max_workers`` (instead of submitting everything up
        front) is what makes the watchdog honest: every submitted item is
        actually running, so its elapsed time starts at submission.
        """
        capacity = max_workers - len(inflight)
        if capacity <= 0 or not state.ready:
            return
        now = time.monotonic()
        still_gated: list[int] = []
        for index in state.ready:
            if capacity > 0 and state.not_before[index] <= now:
                # A new executor forks its workers inside submit: under an
                # empty context they start with telemetry off instead of
                # keeping this thread's ambient bundle for their lifetime.
                future = contextvars.Context().run(executor.submit, fn, items[index])
                inflight[future] = index
                started[index] = time.monotonic()
                capacity -= 1
            else:
                still_gated.append(index)
        state.ready = still_gated
        if state.metrics is not None:
            state.metrics.inflight.set(len(inflight))

    def _tick(
        self, state: _MapState, inflight: dict[Future, int], started: dict[int, float]
    ) -> float | None:
        """How long :func:`wait` may block before the watchdog must look."""
        wake_at: list[float] = []
        if state.ready:
            # Wake for the earliest backoff gate so gated retries resubmit
            # even while long cells are still running.
            wake_at.append(min(state.not_before[index] for index in state.ready))
        if state.policy.timeout is not None:
            wake_at.append(
                min(started[index] for index in inflight.values())
                + state.policy.timeout
                + 0.01
            )
        if not wake_at:
            return None
        return max(0.05, min(wake_at) - time.monotonic())

    def _expire_timeouts(
        self,
        timeout: float,
        state: _MapState,
        inflight: dict[Future, int],
        started: dict[int, float],
    ) -> bool:
        """Charge cells over budget; requeue innocent in-flight neighbours.

        Returns ``True`` when anything expired — the caller must kill the
        pool, because a running task in a ``ProcessPoolExecutor`` cannot be
        cancelled any other way. The innocents are requeued *without* an
        attempt charge (their computation dies with the pool through no
        fault of their own) and recompute identically on a fresh pool.
        """
        now = time.monotonic()
        expired = [
            (future, index)
            for future, index in inflight.items()
            if now - started[index] >= timeout
        ]
        if not expired:
            return False
        for future, index in expired:
            inflight.pop(future)
            started.pop(index, None)
            if state.metrics is not None:
                state.metrics.watchdog.inc()
            emit_event("sweep.watchdog_expired", item=index, timeout_s=timeout)
            state.fail(
                index,
                _timeout_entry(timeout),
                CellTimeoutError(
                    f"item {index} exceeded the {timeout:g}s per-cell timeout"
                ),
            )
        for future, index in inflight.items():
            state.requeue(index)
        return True

    @staticmethod
    def _kill_pool(executor: ProcessPoolExecutor) -> None:
        """Tear a pool down *now*: SIGKILL workers, cancel queued futures.

        SIGKILL (not terminate) because the reason we are here may be a
        worker hung in uninterruptible state. Touches the private
        ``_processes`` map — the stdlib offers no public way to abandon a
        running task, and this attribute has been stable since 3.8.
        """
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            process.kill()
        executor.shutdown(wait=True, cancel_futures=True)


def make_dispatcher(jobs: int) -> SerialDispatcher | ProcessPoolDispatcher:
    """Serial for ``jobs <= 1``, a process pool otherwise."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return SerialDispatcher() if jobs == 1 else ProcessPoolDispatcher(jobs)
