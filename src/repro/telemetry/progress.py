"""Live one-line sweep progress, fed from a :class:`MetricsRegistry`.

The progress line is a *reader* of the same registry the orchestrator and
dispatchers write into — it owns no state of its own beyond pacing, so it
can never disagree with ``--metrics-out``. On a TTY it redraws in place
with carriage returns; under a pipe (CI logs) it emits plain newline-
terminated lines, rate-limited so a long sweep does not flood the log.

Rate/ETA accounting: store-cached cells are served near-instantly before
dispatch begins, so they are excluded from the per-cell rate and the rate
clock starts at :meth:`ProgressLine.begin_execution` (called by the
orchestrator once cache serving is done) — a mostly-cached resume no
longer reports a fantasy cells/s or a skewed ETA.  :meth:`stats` exposes
the same numbers as JSON for the ``/progress`` HTTP route.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

from .catalog import CELLS_CACHED, CELLS_COMPLETED, CELLS_FAILED, SWEEP_RETRIES
from .registry import MetricsRegistry

__all__ = ["ProgressLine"]


def _format_eta(seconds: float) -> str:
    seconds = int(seconds + 0.5)
    hours, rem = divmod(seconds, 3600)
    minutes, secs = divmod(rem, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


class ProgressLine:
    """Renders sweep progress (done/total, failures, retries, rate, ETA)."""

    def __init__(
        self,
        total: int,
        registry: MetricsRegistry,
        stream: TextIO | None = None,
        min_interval: float = 0.25,
        job_id: str | None = None,
    ) -> None:
        self._total = total
        self._registry = registry
        self._job_id = job_id
        self._stream = sys.stderr if stream is None else stream
        try:
            self._tty = bool(self._stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False
        self._min_interval = min_interval
        self._start = time.monotonic()
        self._exec_start: float | None = None
        self._last_emit = 0.0
        self._last_width = 0

    def begin_execution(self) -> None:
        """Mark the start of actual cell execution (after cache serving).

        Until this is called the rate clock runs from construction; after,
        executed-cells/s is measured against the execution epoch only, so
        store-loading and cache-serving time cannot dilute the estimate.
        """
        if self._exec_start is None:
            self._exec_start = time.monotonic()

    def stats(self, now: float | None = None) -> dict[str, Any]:
        """Current progress as plain data (the ``/progress`` JSON body)."""
        if now is None:
            now = time.monotonic()
        reg = self._registry
        completed = int(reg.total(CELLS_COMPLETED.name))
        failed = int(reg.total(CELLS_FAILED.name))
        cached = int(reg.total(CELLS_CACHED.name))
        retries = int(reg.total(SWEEP_RETRIES.name))
        done = completed + failed + cached
        executed = completed + failed
        elapsed = max(now - self._start, 0.0)
        exec_epoch = self._exec_start if self._exec_start is not None else self._start
        rate = executed / max(now - exec_epoch, 1e-9)
        remaining = self._total - done
        eta_s: float | None
        if remaining <= 0:
            eta_s = 0.0
        elif rate > 0:
            eta_s = remaining / rate
        else:
            eta_s = None
        stats: dict[str, Any] = {}
        if self._job_id is not None:
            # Under the run service several sweeps share one /progress
            # surface; the job id keys each line to its submission.
            stats["job_id"] = self._job_id
        stats.update(
            {
                "total": self._total,
                "done": done,
                "completed": completed,
                "failed": failed,
                "cached": cached,
                "retries": retries,
                "executed": executed,
                "elapsed_s": round(elapsed, 3),
                "rate_cells_per_s": round(rate, 3),
                "eta_s": None if eta_s is None else round(eta_s, 3),
            }
        )
        return stats

    def render(self, now: float | None = None) -> str:
        """The current progress text (no trailing newline)."""
        stats = self.stats(now)
        parts = [f"sweep {stats['done']}/{stats['total']} cells"]
        if stats["cached"]:
            parts.append(f"{stats['cached']} cached")
        if stats["failed"]:
            parts.append(f"{stats['failed']} failed")
        if stats["retries"]:
            parts.append(f"{stats['retries']} retries")
        parts.append(f"{stats['rate_cells_per_s']:.1f} cells/s")
        if stats["done"] >= stats["total"]:
            parts.append(f"done in {_format_eta(stats['elapsed_s'])}")
        elif stats["eta_s"] is not None:
            parts.append(f"eta {_format_eta(stats['eta_s'])}")
        else:
            parts.append("eta --")
        return " | ".join(parts)

    def update(self, force: bool = False) -> None:
        """Emit the line if the rate limit allows (or ``force`` is set)."""
        now = time.monotonic()
        if not force and now - self._last_emit < self._min_interval:
            return
        self._last_emit = now
        line = self.render(now)
        if self._tty:
            padded = line.ljust(self._last_width)
            self._last_width = len(line)
            self._stream.write("\r" + padded)
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        """Final forced emit; terminates the in-place line on a TTY."""
        self.update(force=True)
        if self._tty:
            self._stream.write("\n")
            self._stream.flush()
