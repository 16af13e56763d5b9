import tracemalloc

import pytest

from orientations import DelayMeter


def test_gap_slicing():
    meter = DelayMeter()
    meter.bfs()
    meter.arcs(5)
    meter.emitted()
    meter.arcs(2)
    meter.emitted()
    meter.finished()
    assert meter.emissions == 2
    # Gaps of 6, 2 and 0 ops have bit lengths 3, 2 and 0.
    assert meter.gap_histogram == [1, 0, 1, 1]
    assert meter.total_ops == 8
    assert meter.max_delay_ops == 6
    assert meter.max_delay_bfs == 1
    assert meter.amortized_ops() == 4.0


def test_zero_emission_run_has_single_gap():
    meter = DelayMeter()
    meter.bfs()
    meter.finished()
    assert meter.emissions == 0
    assert meter.gap_histogram == [0, 1]
    assert meter.max_delay_bfs == 1
    assert meter.amortized_ops() is None


def test_finished_is_single_use():
    meter = DelayMeter()
    meter.finished()
    with pytest.raises(RuntimeError):
        meter.finished()
    with pytest.raises(RuntimeError):
        meter.emitted()


def test_summary_fields():
    meter = DelayMeter()
    meter.arcs(3)
    meter.emitted()
    meter.finished()
    summary = meter.summary()
    assert summary["solutions"] == 1
    assert summary["total_ops"] == 3
    assert summary["max_delay_ops"] == 3
    assert summary["amortized_ops"] == 3.0
    assert summary["gap_histogram"] == [1, 0, 1]


def test_first_gap_is_split_from_the_later_ones():
    meter = DelayMeter()
    meter.arcs(4)
    meter.emitted()
    meter.bfs()
    meter.arcs(8)
    meter.emitted()
    meter.arcs(2)
    meter.finished()
    summary = meter.summary()
    assert (summary["first_gap_ops"], summary["max_later_delay_ops"], summary["max_delay_ops"]) == (4, 9, 9)
    empty = DelayMeter()
    empty.arcs(5)
    empty.finished()
    assert (empty.first_gap_ops, empty.max_later_delay_ops, empty.max_delay_ops) == (5, 0, 5)


def test_memory_stays_bounded_over_many_gaps():
    # The meter keeps running values only, so 10^5 gaps fit in a small
    # fixed budget; one record per gap would take megabytes.
    tracemalloc.start()
    try:
        meter = DelayMeter()
        for i in range(100_000):
            meter.bfs()
            meter.arcs(i % 1_000)
            meter.emitted()
        meter.finished()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert meter.emissions == 100_000
    assert sum(meter.gap_histogram) == 100_001
    assert meter.max_delay_ops == 1_000
