"""Tests of the benchmark's own arithmetic (``timeline.py``)."""

from __future__ import annotations

import math

import pytest

import timeline


def span(name, start, end, parent=-1):
    return {"name": name, "start": start, "end": end, "parent": parent}


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "q, enough, short",
    [(50, 20, 19), (90, 100, 99), (99, 1000, 999)],
)
def test_percentile_needs_ten_samples_beyond(q, enough, short):
    assert timeline.percentile_supported(q, enough)
    assert not timeline.percentile_supported(q, short)
    timeline.percentile(range(enough), q)
    with pytest.raises(ValueError, match="beyond"):
        timeline.percentile(range(short), q)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert timeline.percentile(samples, 50) == 50
    assert timeline.percentile(samples, 90) == 90
    assert timeline.percentile(reversed(samples), 90) == 90


def test_failed_samples_rank_beyond_every_latency():
    samples = [float(v) for v in range(1, 96)] + [math.inf] * 5
    assert timeline.percentile(samples, 90) == 90.0
    assert timeline.percentile(samples + [math.inf] * 10, 90) == math.inf


# -- self time on nested spans ---------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    records = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a on [3, 4]
        span("g", 2.0, 3.0, parent=1),
    ]
    assert timeline.self_times(records) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_attribution_shares_overlap_and_sums_to_the_window():
    records = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),
        span("g", 2.0, 3.0, parent=1),
    ]
    shares, unattributed = timeline.attribute(records, (0.0, 10.0))
    # a owns [1,3] and half of [3,4], less g's [2,3]; b half of [3,4] and [4,6].
    assert shares == pytest.approx([5.0, 1.5, 2.5, 1.0])
    assert unattributed == pytest.approx(0.0)
    assert sum(shares) + unattributed == pytest.approx(10.0)


def test_parallel_workers_split_wall_time():
    records = [
        span("dispatch", 0.0, 10.0),
        span("cell", 1.0, 9.0, parent=0),
        span("cell", 2.0, 8.0, parent=0),
    ]
    shares, unattributed = timeline.attribute(records, (0.0, 10.0))
    assert shares == pytest.approx([2.0, 5.0, 3.0])
    assert unattributed == 0.0


def test_uncovered_window_time_is_unattributed_and_children_are_clipped():
    records = [
        span("sweep", 2.0, 6.0),
        span("cell", 5.0, 7.5, parent=0),  # outlives its parent by 1.5 s
        span("sweep", 8.0, 9.0),
    ]
    shares, unattributed = timeline.attribute(records, (0.0, 10.0))
    assert shares == pytest.approx([3.0, 1.0, 1.0])
    assert unattributed == pytest.approx(5.0)


def test_layer_totals_group_by_layer():
    records = [span("draw_tier", 0, 1), span("draw_tier", 1, 2), span("x", 2, 3)]
    totals = timeline.layer_totals(
        records, [1.0, 2.0, 4.0], lambda r: "sampling" if r["name"] == "draw_tier" else None
    )
    assert totals == {"sampling": 3.0}


# -- closed-loop accounting --------------------------------------------------


def test_closed_loop_counts_failures_and_timeouts_beyond_percentiles():
    tally = timeline.ClosedLoopTally()
    for value in range(1, 18):
        tally.ok("cached", value / 1000)
    tally.fail("cached")
    tally.timeout("cached")
    tally.timeout("cached")
    tally.ok("fresh", 0.1)
    assert tally.attempted == 21
    assert tally.failed == 3
    assert tally.count("cached") == 20
    cached = tally.latencies("cached")
    assert sorted(cached)[-3:] == [math.inf] * 3
    # 17 successes + 3 failures: the median is the 10th fastest success.
    assert timeline.percentile(cached, 50) == pytest.approx(0.010)
    assert len(tally.latencies()) == 21


def test_closed_loop_rejects_negative_latency():
    with pytest.raises(ValueError):
        timeline.ClosedLoopTally().ok("fresh", -1.0)
