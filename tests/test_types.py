"""Request and statistics types."""

from collections import deque

import pytest

from repro.common.throttle import ForegroundGuard
from repro.common.types import (IoStats, LatencyStats, Op, Request, flush,
                                quantile, read, trim, write)
from repro.common.units import PAGE_SIZE


def test_request_end():
    req = read(4096, 8192)
    assert req.end == 12288


def test_request_pages_aligned():
    req = read(0, 2 * PAGE_SIZE)
    assert list(req.pages()) == [0, 1]


def test_request_pages_unaligned_spans_extra_page():
    req = read(PAGE_SIZE // 2, PAGE_SIZE)
    assert list(req.pages()) == [0, 1]


def test_negative_offset_rejected():
    with pytest.raises(ValueError):
        Request(Op.READ, -1, 4096)


def test_flush_with_length_rejected():
    with pytest.raises(ValueError):
        Request(Op.FLUSH, 0, 4096)


def test_flush_helper():
    req = flush()
    assert req.op is Op.FLUSH
    assert req.length == 0


def test_fua_flag():
    req = write(0, 4096, fua=True)
    assert req.fua


def test_iostats_record_and_totals():
    stats = IoStats()
    stats.record(read(0, 4096))
    stats.record(write(0, 8192))
    stats.record(flush())
    stats.record(trim(0, 4096))
    assert stats.read_bytes == 4096
    assert stats.write_bytes == 8192
    assert stats.total_bytes == 12288
    assert stats.flush_ops == 1
    assert stats.trim_ops == 1
    assert stats.total_ops == 4


def test_iostats_delta():
    stats = IoStats()
    stats.record(write(0, 4096))
    snap = stats.snapshot()
    stats.record(write(0, 4096))
    stats.record(read(0, 4096))
    delta = stats.delta(snap)
    assert delta.write_bytes == 4096
    assert delta.read_bytes == 4096
    assert delta.write_ops == 1


def test_latency_stats():
    lat = LatencyStats()
    for v in (0.1, 0.3, 0.2):
        lat.record(v)
    assert lat.count == 3
    assert lat.max == pytest.approx(0.3)
    assert lat.mean == pytest.approx(0.2)


def test_latency_stats_empty_mean():
    assert LatencyStats().mean == 0.0


def test_percentiles_ordered():
    lat = LatencyStats()
    for i in range(1000):
        lat.record(i / 1000.0)
    assert lat.p50 == pytest.approx(0.5, abs=0.05)
    assert lat.p99 == pytest.approx(0.99, abs=0.02)
    assert lat.p50 <= lat.p99 <= lat.max


def test_percentile_empty_is_zero():
    assert LatencyStats().p99 == 0.0


def test_percentile_validates_range():
    with pytest.raises(ValueError):
        LatencyStats().percentile(1.5)


def test_quantile_is_the_one_percentile_rule():
    """Element ``int(q * n)`` of the sorted samples, capped at the last:
    what ``LatencyStats`` and ``ForegroundGuard`` (past its floor) read."""
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert [quantile(samples, q) for q in (0.0, 0.5, 0.99, 1.0)] == [
        1.0, 3.0, 5.0, 5.0]
    assert quantile(deque(samples), 0.2) == 2.0
    assert quantile([], 0.99) == 0.0
    lat = LatencyStats()
    guard = ForegroundGuard(p99_limit=1.0, min_samples=6)
    for v in samples:
        lat.record(v)
        guard.observe(v)
    assert lat.p99 == quantile(samples, 0.99)
    assert guard.p99() == 0.0                   # under min_samples
    guard.observe(0.5)
    assert guard.p99() == quantile(samples + [0.5], 0.99) == 5.0


def test_reservoir_bounded():
    lat = LatencyStats()
    for i in range(10_000):
        lat.record(float(i))
    assert len(lat._reservoir) <= lat._reservoir_size
    assert lat.count == 10_000
