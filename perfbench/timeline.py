"""The benchmark's own arithmetic: percentiles, span self time, attribution.

Everything here is plain Python over plain data so it can be tested on
hand-built inputs (``test_perfbench_arith.py``):

* :func:`percentile` applies the reporting rule — a percentile is reported
  only when at least ten samples lie beyond it — and treats a failed or
  timed-out request as an infinitely slow sample, so failures always land
  beyond every latency percentile;
* :class:`ClosedLoopTally` is the closed-loop client's ledger of attempted,
  failed and timed-out requests;
* :func:`self_times` is a span's duration minus the part of its interval
  its child spans cover;
* :func:`attribute` shares a measured wall-clock window out among spans:
  an instant covered by ``k`` concurrently running sibling spans gives each
  ``1/k`` of it, recursively, and an instant no span covers is
  *unattributed*. Shares plus the unattributed time sum to the window
  exactly, which is what lets per-layer self times account for the traced
  wall time even when worker processes or threads run in parallel.

A span record is a dict with ``name``, ``start`` and ``end`` (seconds on
one clock), ``parent`` (index into the same list, ``-1`` for a root) and
optional ``labels``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Iterable

__all__ = [
    "ClosedLoopTally",
    "MIN_BEYOND",
    "attribute",
    "layer_totals",
    "percentile",
    "percentile_supported",
    "self_times",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

FAILED = math.inf


def percentile_supported(q: float, count: int, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``count`` samples leave ``min_beyond`` beyond the ``q``-th
    percentile under the nearest-rank definition :func:`percentile` uses."""
    if count <= 0:
        return False
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - rank >= min_beyond


def percentile(samples: Iterable[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-th percentile of ``samples`` (``0 < q < 100``).

    Failed requests enter as ``math.inf`` and therefore rank beyond every
    finite latency. Raises ``ValueError`` when fewer than ``min_beyond``
    samples would lie beyond the result — the caller must measure longer
    instead of reporting an unsupported tail. The result is ``inf`` when
    the percentile itself falls on a failed sample.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(samples)
    if not percentile_supported(q, len(ordered), min_beyond):
        raise ValueError(
            f"p{q:g} needs {min_beyond} samples beyond it; have {len(ordered)} samples"
        )
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class ClosedLoopTally:
    """Outcome ledger of closed-loop requests, keyed by request kind.

    Every attempt is recorded exactly once: :meth:`ok` with its latency,
    :meth:`fail` for a non-2xx reply, a broken connection or a failed
    output check, :meth:`timeout` for a request that did not finish within
    the client's budget. Failed and timed-out requests count in
    ``failed`` and contribute an infinite latency sample, so they sit
    beyond every percentile of :meth:`latencies`.
    """

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = defaultdict(list)
        self.failures: dict[str, int] = defaultdict(int)
        self.timeouts: dict[str, int] = defaultdict(int)

    def ok(self, kind: str, latency_s: float) -> None:
        if not latency_s >= 0.0:
            raise ValueError(f"latency must be a non-negative number, got {latency_s!r}")
        self._samples[kind].append(latency_s)

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1
        self._samples[kind].append(FAILED)

    def timeout(self, kind: str) -> None:
        self.timeouts[kind] += 1
        self._samples[kind].append(FAILED)

    def latencies(self, *kinds: str) -> list[float]:
        """Samples of the given kinds (all kinds when none are named)."""
        selected = kinds or tuple(self._samples)
        return [value for kind in selected for value in self._samples.get(kind, ())]

    @property
    def attempted(self) -> int:
        return sum(len(values) for values in self._samples.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + sum(self.timeouts.values())

    def count(self, kind: str) -> int:
        return len(self._samples.get(kind, ()))


def _children_map(records: list[dict]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for index, record in enumerate(records):
        children[record["parent"]].append(index)
    return children


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(records: list[dict]) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals within it (busy time, not shared among concurrent spans)."""
    children = _children_map(records)
    out = []
    for index, record in enumerate(records):
        lo, hi = record["start"], record["end"]
        kids = [(records[c]["start"], records[c]["end"]) for c in children.get(index, ())]
        out.append(max(0.0, (hi - lo) - _covered(kids, lo, hi)))
    return out


def _split(
    spans: list[tuple[int, float, float]],
    pieces: list[tuple[float, float, float]],
) -> tuple[float, dict[int, list[tuple[float, float, float]]]]:
    """Share weighted ``pieces`` of time among possibly overlapping spans.

    ``pieces`` are disjoint, sorted ``(start, end, weight)`` segments of the
    parent's time. Within them, an elementary interval covered by ``k`` of
    ``spans`` goes to each with weight ``weight / k``; an uncovered one is
    returned as the parent's own (weighted) time.
    """
    points = sorted(
        {p for _, s, e in spans for p in (s, e)} | {p for a, b, _ in pieces for p in (a, b)}
    )
    starts: dict[float, list[int]] = defaultdict(list)
    ends: dict[float, list[int]] = defaultdict(list)
    for span_id, s, e in spans:
        if e > s:
            starts[s].append(span_id)
            ends[e].append(span_id)
    active: set[int] = set()
    shares: dict[int, list[tuple[float, float, float]]] = defaultdict(list)
    uncovered = 0.0
    piece_index = 0
    for left, right in zip(points, points[1:]):
        active.difference_update(ends.get(left, ()))
        active.update(starts.get(left, ()))
        while piece_index < len(pieces) and pieces[piece_index][1] <= left:
            piece_index += 1
        if piece_index == len(pieces):
            break
        a, b, weight = pieces[piece_index]
        if not (a <= left and right <= b):
            continue  # between pieces: not this parent's time
        if not active:
            uncovered += weight * (right - left)
            continue
        share = weight / len(active)
        for span_id in active:
            owned = shares[span_id]
            if owned and owned[-1][1] == left and owned[-1][2] == share:
                owned[-1] = (owned[-1][0], right, share)
            else:
                owned.append((left, right, share))
    return uncovered, shares


def attribute(records: list[dict], window: tuple[float, float]) -> tuple[list[float], float]:
    """Wall-share self time of every span within ``window``.

    Returns ``(shares, unattributed)``: ``shares[i]`` is the part of the
    window span ``i`` owns once its children took theirs, and
    ``sum(shares) + unattributed == window length`` up to rounding.
    Children reaching outside their parent (clock skew between processes)
    are clipped to it.
    """
    children = _children_map(records)
    shares = [0.0] * len(records)
    lo, hi = window
    stack: list[tuple[int, list[tuple[float, float, float]]]] = []
    unattributed, top = _split(
        [(i, records[i]["start"], records[i]["end"]) for i in children.get(-1, ())],
        [(lo, hi, 1.0)] if hi > lo else [],
    )
    stack.extend(top.items())
    while stack:
        index, pieces = stack.pop()
        own, below = _split(
            [(c, records[c]["start"], records[c]["end"]) for c in children.get(index, ())],
            pieces,
        )
        shares[index] = own
        stack.extend(below.items())
    return shares, unattributed


def layer_totals(
    records: list[dict], values: list[float], layer_of: Callable[[dict], str | None]
) -> dict[str, float]:
    """Sum per-span ``values`` by layer; spans mapped to ``None`` are skipped."""
    totals: dict[str, float] = defaultdict(float)
    for record, value in zip(records, values):
        layer = layer_of(record)
        if layer is not None:
            totals[layer] += value
    return dict(totals)
