"""Closed-loop workload engine."""

import pytest

from repro.block.lifecycle import Submission
from repro.common.chunks import empty_chunk, make_chunk
from repro.common.errors import ConfigError
from repro.common.types import read, write
from repro.sim.engine import (Engine, JobStream, run_chunk_streams,
                              run_streams)
from repro.sim.timeline import Timeline


def fixed_latency_issue(latency):
    def issue(req, now):
        return now + latency
    return issue


def repeat(req, count=None):
    issued = 0
    while count is None or issued < count:
        yield req
        issued += 1


def test_single_stream_closed_loop_rate():
    result = run_streams(fixed_latency_issue(0.1),
                         [repeat(write(0, 4096))], duration=10.0)
    # One request every 0.1s for 10s -> ~100 requests.
    assert 95 <= result.completed_ops <= 101


def test_two_streams_double_throughput():
    one = run_streams(fixed_latency_issue(0.1),
                      [repeat(write(0, 4096))], duration=10.0)
    two = run_streams(fixed_latency_issue(0.1),
                      [repeat(write(0, 4096)) for _ in range(2)],
                      duration=10.0)
    assert two.completed_ops == pytest.approx(2 * one.completed_ops, rel=0.05)


def test_exhausted_source_stops_engine():
    result = run_streams(fixed_latency_issue(0.5),
                         [repeat(write(0, 4096), count=3)])
    assert result.completed_ops == 3
    assert result.elapsed == pytest.approx(1.5)


def test_long_run_of_empty_chunks_is_skipped():
    """A source may yield any number of empty chunks in a row (a trace
    filter that drops whole windows); they are skipped in a loop, not
    one stack frame each."""
    chunks = [empty_chunk(0)] * 3000 + [
        make_chunk([0, 4096, 8192, 12288], 4096)]
    result = run_chunk_streams(fixed_latency_issue(0.5), [iter(chunks)])
    assert result.completed_ops == 4
    assert result.elapsed == pytest.approx(2.0)


def test_max_requests_bound():
    result = run_streams(fixed_latency_issue(0.01),
                         [repeat(write(0, 4096))], duration=1e9,
                         max_requests=42)
    assert result.completed_ops == 42


def test_think_time_slows_stream():
    engine = Engine(fixed_latency_issue(0.1))
    engine.add_stream(JobStream(repeat(write(0, 4096)), think_time=0.1))
    result = engine.run(duration=10.0)
    assert result.completed_ops == pytest.approx(50, abs=2)


def test_latency_recorded():
    result = run_streams(fixed_latency_issue(0.25),
                         [repeat(read(0, 4096), count=4)])
    assert result.latency.mean == pytest.approx(0.25)
    assert result.latency.max == pytest.approx(0.25)


def test_throughput_metric():
    result = run_streams(fixed_latency_issue(0.1),
                         [repeat(write(0, 1_000_000))], duration=10.0)
    assert result.throughput_mb_s == pytest.approx(10.0, rel=0.05)


def test_completion_before_issue_is_error():
    def bad_issue(req, now):
        return now - 1.0
    with pytest.raises(AssertionError):
        run_streams(bad_issue, [repeat(write(0, 4096), count=1)])


def test_streams_interleave_in_time_order():
    seen = []

    def issue(req, now):
        seen.append(now)
        return now + 0.1

    run_streams(issue, [repeat(write(0, 4096), 5) for _ in range(3)])
    assert seen == sorted(seen)


# ---------------------------------------------------------------------------
# iodepth (outstanding-I/O budget per stream)
# ---------------------------------------------------------------------------
def test_iodepth_scales_on_parallel_device():
    # A device with unbounded parallelism (fixed latency) lets iodepth=4
    # complete ~4x what one-at-a-time does.
    one = run_streams(fixed_latency_issue(0.1), [repeat(write(0, 4096))],
                      duration=10.0)
    four = run_streams(fixed_latency_issue(0.1), [repeat(write(0, 4096))],
                       duration=10.0, iodepth=4)
    assert four.completed_ops == pytest.approx(4 * one.completed_ops,
                                               rel=0.05)


def test_iodepth_contended_on_serial_device():
    # A serialized device caps throughput at its service rate no matter
    # the depth: extra outstanding requests just wait, so latency grows
    # by roughly the depth while completions stay flat.
    def serial_issue():
        tl = Timeline(1)

        def issue(req, now):
            _, end = tl.acquire(now, 0.1)
            return end
        return issue

    one = run_streams(serial_issue(), [repeat(write(0, 4096))],
                      duration=10.0)
    deep = run_streams(serial_issue(), [repeat(write(0, 4096))],
                       duration=10.0, iodepth=4)
    assert deep.completed_ops == pytest.approx(one.completed_ops, rel=0.05)
    assert deep.latency.mean == pytest.approx(4 * one.latency.mean, rel=0.1)


def test_iodepth_must_be_positive():
    with pytest.raises(ConfigError):
        JobStream(repeat(write(0, 4096)), iodepth=0)


# ---------------------------------------------------------------------------
# Submission-aware issue functions
# ---------------------------------------------------------------------------
def test_submission_result_records_queue_delay():
    def issue(req, now):
        return Submission(req=req, device="dev", issue_t=now,
                          begin_t=now + 0.05, done_t=now + 0.15)

    result = run_streams(issue, [repeat(write(0, 4096), count=4)])
    assert result.queue_delay.mean == pytest.approx(0.05)
    assert result.latency.mean == pytest.approx(0.15)
    assert result.as_dict()["queue_delay"]["mean"] == pytest.approx(0.05)


def test_plain_float_issue_leaves_queue_delay_empty():
    result = run_streams(fixed_latency_issue(0.1),
                         [repeat(write(0, 4096), count=3)])
    assert result.queue_delay.count == 0


# ---------------------------------------------------------------------------
# sampler clamping (samples stay inside the run window)
# ---------------------------------------------------------------------------
class _CaptureSampler:
    def __init__(self):
        self.times = []

    def observe(self, now, stats):
        self.times.append(now)


def test_sampler_never_observes_past_duration():
    sampler = _CaptureSampler()
    # 0.3s latency against a 1.0s window: the request issued at 0.9
    # completes at 1.2, beyond the window; its sample must be clamped.
    run_streams(fixed_latency_issue(0.3), [repeat(write(0, 4096))],
                duration=1.0, sampler=sampler)
    assert sampler.times
    assert max(sampler.times) <= 1.0


# ---------------------------------------------------------------------------
# edge cases the tuple-heap rewrite must preserve
# ---------------------------------------------------------------------------
def test_stream_exhaustion_mid_run_keeps_others_going():
    # One stream dries up after 2 requests; the other runs the full
    # window.  The exhausted stream must drop out of the heap without
    # stalling or double-counting the survivor.
    result = run_streams(fixed_latency_issue(0.1),
                         [repeat(write(0, 4096), count=2),
                          repeat(write(0, 4096))],
                         duration=10.0)
    # survivor completes ~100, exhausted stream adds exactly 2
    assert 97 <= result.completed_ops <= 103
    assert result.elapsed == pytest.approx(10.0)


def test_all_streams_exhausted_truncates_elapsed():
    # Sources dry up at t=1.5 against a 10s window: elapsed reports the
    # actual span, not the requested duration.
    result = run_streams(fixed_latency_issue(0.5),
                         [repeat(write(0, 4096), count=3)],
                         duration=10.0)
    assert result.completed_ops == 3
    assert result.elapsed == pytest.approx(1.5)


def test_max_requests_truncates_elapsed_to_last_completion():
    # Truncation by max_requests reports the time actually covered
    # (last completion), not the (much larger) requested duration.
    result = run_streams(fixed_latency_issue(0.1),
                         [repeat(write(0, 4096))],
                         duration=100.0, max_requests=5)
    assert result.completed_ops == 5
    assert result.elapsed == pytest.approx(0.5)


def test_iodepth_slot_accounting_under_and_at_budget():
    stream = JobStream(repeat(write(0, 4096)), iodepth=2, think_time=0.0)
    # Under budget: next issue is immediate.
    assert stream.slot_free_after(0.0, 1.0) == 0.0
    # At budget: next issue waits for the earliest outstanding
    # completion (t=0.5 here), not the latest.
    assert stream.slot_free_after(0.0, 0.5) == 0.5
    # The popped slot freed; the remaining in-flight completion is 1.0.
    assert stream.slot_free_after(0.5, 2.0) == 1.0


def test_iodepth_slot_accounting_with_think_time():
    stream = JobStream(repeat(write(0, 4096)), iodepth=2, think_time=0.25)
    assert stream.slot_free_after(0.0, 1.0) == 0.0   # under budget
    assert stream.slot_free_after(0.0, 0.5) == 0.75  # 0.5 + think


def test_sampler_clamped_sample_exactly_at_boundary():
    sampler = _CaptureSampler()
    # Latency 0.4 against a 1.0 window: issues at 0.0/0.4/0.8; the last
    # completion (1.2) must be sampled at exactly the boundary.
    run_streams(fixed_latency_issue(0.4), [repeat(write(0, 4096))],
                duration=1.0, sampler=sampler)
    assert sampler.times[-1] == pytest.approx(1.0)
    assert all(t <= 1.0 for t in sampler.times)


def test_equal_time_streams_issue_in_index_order():
    # Streams tied on next_time must issue in add_stream order: the
    # (time, index, stream) heap tuples break ties on the unique index.
    order = []

    def issue(req, now):
        order.append(req.offset)
        return now + 1.0

    engine = Engine(issue)
    for i in range(4):
        engine.add_stream(JobStream(repeat(write(i, 4096), count=2),
                                    name=f"s{i}"))
    engine.run(duration=1.5)
    assert order[:4] == [0, 1, 2, 3]


def test_background_origin_exempt_from_iodepth_budget():
    # A source interleaving foreground and background requests: the
    # background writes are fire-and-forget, so they must neither hold
    # an iodepth slot nor enter the latency reservoirs.
    from repro.common.types import IoOrigin, Request, Op

    def mixed():
        while True:
            yield write(0, 4096)
            yield Request(Op.WRITE, 0, 4096, origin=IoOrigin.DESTAGE)

    fg_only = run_streams(fixed_latency_issue(0.1),
                          [repeat(write(0, 4096))], duration=10.0)
    result = run_streams(fixed_latency_issue(0.1), [mixed()],
                         duration=10.0)
    # Foreground pacing is unchanged: the same ~100 foreground
    # completions land despite a background write between each pair.
    fg_ops = result.latency.count
    assert fg_ops == pytest.approx(fg_only.completed_ops, abs=2)
    # ... and the background ops still complete and are counted.
    assert result.completed_ops == pytest.approx(2 * fg_ops, abs=2)
    assert result.stats.write_ops == result.completed_ops


def test_background_origin_latency_not_recorded():
    from repro.common.types import IoOrigin, Request, Op
    bg = Request(Op.WRITE, 0, 4096, origin=IoOrigin.GC)
    result = run_streams(fixed_latency_issue(5.0),
                         [repeat(bg, count=10)], duration=10.0)
    assert result.completed_ops == 10
    assert result.latency.count == 0
    assert result.queue_delay.count == 0
