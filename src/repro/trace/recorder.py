"""Trace capture: batched per-round trajectory recording for both engines.

The paper's headline figures are *trajectories* — per-round one-fraction
curves showing self-stabilizing convergence and phase transitions. The
lock-step engines advance R replicas together and *retire* finished rows,
so trajectory capture is a layer over the one round loop rather than an
engine flag. That layer is this module:

* a :class:`TraceRecorder` is handed to ``BatchedEngine.run(recorder=...)``
  (or ``SynchronousEngine.run(recorder=...)``, the ``R = 1`` case, whose
  own ``RunResult`` trajectory and flips come from a full trace too). Each
  round the engine reports the full ``(R,)`` vector of
  per-replica one-fractions — retired replicas keep their frozen final value,
  so the recorded matrix *survives retirement*: a retired row simply stays
  constant from its retirement round on.
* :class:`FullTrace` keeps every recorded column — the ``(R, T)`` matrix the
  trajectory/transition experiments consume. :class:`RingBufferTrace` keeps
  only the most recent ``capacity`` columns, so million-round runs stay
  memory-bounded while settle-window measures still see the recent history.
* both support ``stride`` downsampling (record rounds divisible by the
  stride, plus the final reported round when it falls between stride marks —
  a partial tail column). The optional flip channel accumulates per-replica
  opinion flips *between* recorded columns, so flip totals are preserved
  exactly under any stride.

Recorders produce a :class:`BatchTrace` — plain arrays plus metadata — which
the vectorized measures in :mod:`repro.trace.measures` consume, and which can
be exported through :mod:`repro.viz` (``write_trace_csv``,
``render_batch_trace``) or converted back into per-replica sequential-style
:class:`~repro.core.records.RunResult` objects via
:meth:`BatchTrace.to_run_results`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.records import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.batch import BatchRunResult

__all__ = ["BatchTrace", "TraceRecorder", "FullTrace", "RingBufferTrace", "make_recorder"]


def make_recorder(
    *,
    ring: int | None = None,
    stride: int = 1,
    record_flips: bool = False,
) -> "TraceRecorder":
    """Build the recorder described by the common knob set.

    The shared constructor behind the ``repro trace`` CLI and the sweep
    ``trace`` measure: a :class:`RingBufferTrace` of capacity ``ring`` when a
    ring is requested, else a :class:`FullTrace`; both with the given
    ``stride`` and flip channel.
    """
    if ring is not None:
        return RingBufferTrace(int(ring), stride=stride, record_flips=record_flips)
    return FullTrace(stride=stride, record_flips=record_flips)


@dataclass
class BatchTrace:
    """Recorded per-replica trajectories of one batched (or sequential) run.

    Attributes
    ----------
    x:
        ``(R, K)`` float matrix — per-replica one-fraction at each recorded
        round. Rows of retired replicas are frozen (constant) from their
        retirement round on.
    rounds:
        ``(K,)`` int vector — the engine round index of each column. With a
        full recorder at stride 1 this is simply ``0 .. T``; ring buffers
        retain only the most recent window, strides only every s-th round.
    flips:
        ``(R, K)`` int matrix or ``None`` — per-replica number of opinion
        flips accumulated since the *previous* recorded column (column 0 is
        all zeros). Sums are preserved exactly under downsampling: column k
        holds the total flips over rounds ``(rounds[k-1], rounds[k]]``, and
        the final round is always recorded (possibly as a partial tail
        column), so no flips fall outside the trace.
    stride:
        The recording stride the trace was captured with.
    meta:
        Population facts captured at bind time: ``replicas``, ``n``,
        ``num_sources``, ``sources_correct`` (sources whose preference is the
        correct opinion), ``correct_opinion``, ``pin_each_round``. Trace
        measures use them to derive e.g. non-source correct fractions without
        the opinion matrices.
    """

    x: np.ndarray
    rounds: np.ndarray
    flips: np.ndarray | None
    stride: int
    meta: dict

    @property
    def replicas(self) -> int:
        return int(self.x.shape[0])

    @property
    def columns(self) -> int:
        return int(self.x.shape[1])

    @property
    def first_round(self) -> int:
        return int(self.rounds[0]) if self.rounds.size else 0

    @property
    def last_round(self) -> int:
        return int(self.rounds[-1]) if self.rounds.size else 0

    def trajectory(self, r: int) -> np.ndarray:
        """Row ``r`` as a plain trajectory array (frozen tail included)."""
        return self.x[r]

    def to_run_results(self, result: "BatchRunResult") -> list[RunResult]:
        """Per-replica sequential-style :class:`RunResult` objects.

        Requires a complete stride-1 trace starting at round 0 (a ring buffer
        that wrapped, or any stride > 1, has lost rounds and raises). Each
        replica's trajectory is trimmed to the rounds it actually executed —
        the trajectory :class:`~repro.core.engine.SynchronousEngine` returns
        is built exactly this way — so per-trial trajectory consumers (domain
        classification, Figure 1b transitions) work on every engine.
        """
        if self.stride != 1:
            raise ValueError(
                f"per-replica RunResults need a stride-1 trace, got stride {self.stride}"
            )
        if self.first_round != 0 or self.columns != self.last_round + 1:
            raise ValueError(
                "per-replica RunResults need the complete history from round 0; "
                "this trace is windowed (ring buffer wrapped)"
            )
        if self.replicas != result.replicas:
            raise ValueError(
                f"trace holds {self.replicas} replicas, result {result.replicas}"
            )
        if int(result.rounds_executed.max(initial=0)) > self.last_round:
            raise ValueError("trace ends before the last executed round")
        results = []
        empty = np.zeros(0, dtype=np.int64)
        for r in range(self.replicas):
            executed = int(result.rounds_executed[r])
            results.append(
                RunResult(
                    converged=bool(result.converged[r]),
                    rounds=int(result.rounds[r]),
                    trajectory=self.x[r, : executed + 1].copy(),
                    flips=(
                        self.flips[r, 1 : executed + 1].copy()
                        if self.flips is not None
                        else empty
                    ),
                )
            )
        return results


class TraceRecorder(ABC):
    """Round-by-round capture hook for the engines.

    Lifecycle: an engine calls :meth:`bind` once with the batch facts, then
    :meth:`on_round` for round 0 (the initial configuration) and after every
    executed round with the *full-batch* ``(R,)`` value vectors (retired rows
    frozen by the engine). :meth:`trace` packages whatever was retained.

    ``stride`` downsamples recording to rounds divisible by it; the flip
    channel (``record_flips=True``) is accumulated across skipped rounds so
    no flips are lost. Recorders are single-use, like the batched engine.
    """

    def __init__(self, *, stride: int = 1, record_flips: bool = False) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = int(stride)
        self.record_flips = bool(record_flips)
        self.meta: dict | None = None
        self._flip_accum: np.ndarray | None = None
        # Last reported-but-skipped round, flushed as a partial tail column
        # by trace() so the final state (and its accumulated flips) is never
        # lost to a stride.
        self._pending_round: int | None = None
        self._pending_x: np.ndarray | None = None

    # ------------------------------------------------------------- engine API

    def bind(
        self,
        *,
        replicas: int,
        n: int,
        num_sources: int,
        sources_correct: int,
        correct_opinion: int,
        pin_each_round: bool,
    ) -> None:
        """Attach to a run; called once by the engine before round 0."""
        if self.meta is not None:
            raise RuntimeError(
                f"{type(self).__name__} is single-use and already bound to a run"
            )
        self.meta = {
            "replicas": int(replicas),
            "n": int(n),
            "num_sources": int(num_sources),
            "sources_correct": int(sources_correct),
            "correct_opinion": int(correct_opinion),
            "pin_each_round": bool(pin_each_round),
        }
        if self.record_flips:
            self._flip_accum = np.zeros(replicas, dtype=np.int64)
        self._allocate(int(replicas))

    def on_round(
        self,
        round_index: int,
        x: np.ndarray,
        flips: np.ndarray | None = None,
    ) -> None:
        """Report round ``round_index``; the recorder decides what to retain."""
        if self.meta is None:
            raise RuntimeError("recorder is not bound to a run; call bind first")
        if self.record_flips:
            if flips is None:
                raise ValueError("recorder wants flips but the engine sent none")
            self._flip_accum += flips
        if round_index % self.stride:
            self._pending_round = int(round_index)
            self._pending_x = np.array(x, dtype=float)
            return
        self._pending_round = None
        self._pending_x = None
        if self.record_flips:
            self._store(round_index, x, self._flip_accum)
            self._flip_accum = np.zeros_like(self._flip_accum)
        else:
            self._store(round_index, x, None)

    def _flush_tail(self) -> None:
        """Store the pending final round (if any) as a partial tail column.

        Called by :meth:`trace` so a strided trace always ends at the last
        reported round with its accumulated flips — idempotent.
        """
        if self._pending_x is None:
            return
        if self.record_flips:
            self._store(self._pending_round, self._pending_x, self._flip_accum)
            self._flip_accum = np.zeros_like(self._flip_accum)
        else:
            self._store(self._pending_round, self._pending_x, None)
        self._pending_round = None
        self._pending_x = None

    # ------------------------------------------------------------ subclass API

    @abstractmethod
    def _allocate(self, replicas: int) -> None:
        """Prepare storage for ``replicas`` rows."""

    @abstractmethod
    def _store(self, round_index: int, x: np.ndarray, flips: np.ndarray | None) -> None:
        """Retain one recorded column (must copy: the engine reuses buffers)."""

    @abstractmethod
    def trace(self) -> BatchTrace:
        """Package the retained columns as a :class:`BatchTrace`."""

    def _require_bound(self) -> dict:
        if self.meta is None:
            raise RuntimeError("recorder is not bound to a run; call bind first")
        return self.meta


class FullTrace(TraceRecorder):
    """Keep every recorded column — the ``(R, T)`` trajectory matrix.

    Memory is ``R × (T / stride)`` floats (plus the same in int64 when the
    flip channel is on); use a stride or a :class:`RingBufferTrace` for
    million-round runs.
    """

    def _allocate(self, replicas: int) -> None:
        self._x_cols: list[np.ndarray] = []
        self._flip_cols: list[np.ndarray] = []
        self._rounds: list[int] = []

    def _store(self, round_index: int, x: np.ndarray, flips: np.ndarray | None) -> None:
        self._rounds.append(int(round_index))
        self._x_cols.append(np.array(x, dtype=float))
        if flips is not None:
            self._flip_cols.append(np.array(flips, dtype=np.int64))

    def trace(self) -> BatchTrace:
        meta = self._require_bound()
        self._flush_tail()
        replicas = meta["replicas"]
        if self._x_cols:
            x = np.stack(self._x_cols, axis=1)
        else:
            x = np.zeros((replicas, 0), dtype=float)
        flips = np.stack(self._flip_cols, axis=1) if self._flip_cols else None
        if self.record_flips and flips is None:
            flips = np.zeros((replicas, 0), dtype=np.int64)
        return BatchTrace(
            x=x,
            rounds=np.asarray(self._rounds, dtype=np.int64),
            flips=flips,
            stride=self.stride,
            meta=dict(meta),
        )


class RingBufferTrace(TraceRecorder):
    """Keep only the most recent ``capacity`` recorded columns.

    Memory is bounded at ``R × capacity`` regardless of run length: the
    buffer is circular over recorded columns, so with stride ``s`` it covers
    the last ``capacity × s`` rounds. Within that window the retained
    columns are *identical* to a :class:`FullTrace`'s — the window is a view
    of the same logical trace, which is what the ring-vs-full equivalence
    tests pin down.
    """

    def __init__(self, capacity: int, *, stride: int = 1, record_flips: bool = False) -> None:
        super().__init__(stride=stride, record_flips=record_flips)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)

    def _allocate(self, replicas: int) -> None:
        self._x = np.zeros((replicas, self.capacity), dtype=float)
        self._flips = (
            np.zeros((replicas, self.capacity), dtype=np.int64) if self.record_flips else None
        )
        self._round_buf = np.zeros(self.capacity, dtype=np.int64)
        self._recorded = 0  # total columns ever stored (cursor = recorded % capacity)

    def _store(self, round_index: int, x: np.ndarray, flips: np.ndarray | None) -> None:
        cursor = self._recorded % self.capacity
        self._x[:, cursor] = x
        if flips is not None and self._flips is not None:
            self._flips[:, cursor] = flips
        self._round_buf[cursor] = round_index
        self._recorded += 1

    def trace(self) -> BatchTrace:
        meta = self._require_bound()
        self._flush_tail()
        kept = min(self._recorded, self.capacity)
        if self._recorded <= self.capacity:
            order = np.arange(kept)
        else:
            # chronological unroll: the oldest retained column sits at cursor
            cursor = self._recorded % self.capacity
            order = (cursor + np.arange(self.capacity)) % self.capacity
        return BatchTrace(
            x=self._x[:, order].copy(),
            rounds=self._round_buf[order].copy(),
            flips=self._flips[:, order].copy() if self._flips is not None else None,
            stride=self.stride,
            meta=dict(meta),
        )
