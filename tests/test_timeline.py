"""Resource timelines — the simulation core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError, ReproError, TimingError
from repro.sim.timeline import Link, Timeline


def test_single_server_serializes():
    t = Timeline(1)
    b1, e1 = t.acquire(0.0, 1.0)
    b2, e2 = t.acquire(0.0, 1.0)
    assert (b1, e1) == (0.0, 1.0)
    assert (b2, e2) == (1.0, 2.0)


def test_two_servers_run_in_parallel():
    t = Timeline(2)
    _, e1 = t.acquire(0.0, 1.0)
    _, e2 = t.acquire(0.0, 1.0)
    assert e1 == 1.0 and e2 == 1.0


def test_idle_gap_respected():
    t = Timeline(1)
    t.acquire(0.0, 1.0)
    b, e = t.acquire(5.0, 1.0)
    assert b == 5.0 and e == 6.0


def test_busy_time_accumulates():
    t = Timeline(1)
    t.acquire(0.0, 1.5)
    t.acquire(0.0, 0.5)
    assert t.busy_time == pytest.approx(2.0)


def test_drain_time():
    t = Timeline(2)
    t.acquire(0.0, 1.0)
    t.acquire(0.0, 3.0)
    assert t.drain_time() == pytest.approx(3.0)


def test_negative_duration_rejected():
    with pytest.raises(TimingError):
        Timeline(1).acquire(0.0, -1.0)


def test_timing_error_is_repro_and_value_error():
    # In the repo-wide hierarchy so blanket ReproError handlers see it,
    # and a ValueError so pre-hierarchy callers keep working.
    assert issubclass(TimingError, ReproError)
    assert issubclass(TimingError, ValueError)
    with pytest.raises(ReproError):
        Timeline(1).acquire(0.0, -1.0)


def test_zero_servers_rejected():
    with pytest.raises(ConfigError):
        Timeline(0)


def test_reset():
    t = Timeline(2)
    t.acquire(0.0, 5.0)
    t.reset()
    assert t.next_free() == 0.0
    assert t.busy_time == 0.0


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)),
                min_size=1, max_size=50),
       st.integers(1, 4))
def test_acquire_never_starts_before_request(ops, servers):
    t = Timeline(servers)
    for start, duration in ops:
        begin, end = t.acquire(start, duration)
        assert begin >= start
        assert end == pytest.approx(begin + duration)


def test_link_transfer_time():
    link = Link(100.0, latency_s=0.5)   # 100 B/s
    b, e = link.transfer(0.0, 100)
    assert b == 0.0
    assert e == pytest.approx(1.5)
    assert link.bytes_moved == 100


def test_link_serializes_transfers():
    link = Link(100.0)
    _, e1 = link.transfer(0.0, 100)
    _, e2 = link.transfer(0.0, 100)
    assert e2 == pytest.approx(e1 + 1.0)


def test_link_requires_positive_bandwidth():
    with pytest.raises(ConfigError):
        Link(0.0)


def test_link_reset():
    link = Link(100.0)
    link.transfer(0.0, 500)
    link.reset()
    assert link.bytes_moved == 0
    assert link.drain_time() == 0.0


def acquired(line: Timeline) -> tuple:
    return line._free[0], line.busy_time


def primed(free: float, busy: float) -> Timeline:
    line = Timeline(1)
    line._free[0], line.busy_time = free, busy
    return line


# Durations: zero or not; starts: one of five shapes, the ties drawn
# against the loop's own ends so that ``start == end_{i-1}`` happens
# (and ``start`` one ulp past it, an idle arm by the least margin).
durations = st.lists(st.one_of(st.just(0.0), st.floats(0, 5),
                               st.sampled_from([0.1, 0.2, 0.3, 1e-9])),
                     max_size=120)


@st.composite
def scan(draw):
    free = draw(st.floats(0, 20))
    busy = draw(st.floats(0, 1e6))
    ds = draw(durations)
    shape = draw(st.sampled_from(
        ["equal", "gapped", "ties", "blocks", "any"]))
    if shape == "equal":
        starts = [draw(st.floats(0, 30))] * len(ds)
    elif shape == "gapped":        # ascending, gaps past most services
        gaps = draw(st.lists(st.floats(0, 8), min_size=len(ds),
                             max_size=len(ds)))
        starts = np.cumsum(gaps).tolist()
    elif shape == "ties":          # on the end, one ulp past it, or not
        line, starts = primed(free, busy), []
        for d in ds:
            end = line.next_free()
            start = draw(st.sampled_from(
                [end, end, float(np.nextafter(end, np.inf)),
                 draw(st.floats(0, 60))]))
            starts.append(start)
            line.acquire(start, d)
    elif shape == "blocks":        # runs longer than the relaxation's
        size = draw(st.integers(1, 40))
        starts = [float(i // size) * draw(st.sampled_from([1.0, 40.0]))
                  for i in range(len(ds))]
    else:
        starts = draw(st.lists(st.floats(0, 60), min_size=len(ds),
                               max_size=len(ds)))
    return free, busy, starts, ds


@settings(max_examples=300, deadline=None)
@given(scan())
def test_acquire_many_is_the_loop_of_acquire(case):
    free, busy, starts, ds = case
    loop, batch = primed(free, busy), primed(free, busy)
    want = np.array([loop.acquire(s, d)[1] for s, d in zip(starts, ds)],
                    dtype=np.float64)
    got = batch.acquire_many(np.array(starts, dtype=np.float64), ds)
    assert got.tobytes() == want.tobytes()
    assert acquired(batch) == acquired(loop)


def test_acquire_many_ends_a_long_run_one_ulp_past_its_end():
    """A backlog run long enough to be summed, then a piece issued one
    ulp after the run's end: the arm idled, so it begins there."""
    line = Timeline(1)
    ds = [0.1] * 40 + [0.0] + [0.1] * 40
    ends = [line.acquire(0.0, d)[1] for d in ds[:40]]
    starts = [0.0] * 40 + [float(np.nextafter(ends[-1], np.inf))] + [0.0] * 40
    loop, batch = Timeline(1), Timeline(1)
    want = np.array([loop.acquire(s, d)[1] for s, d in zip(starts, ds)])
    got = batch.acquire_many(np.array(starts), ds)
    assert got.tobytes() == want.tobytes()
    assert acquired(batch) == acquired(loop)


def test_acquire_many_takes_a_scalar_start():
    loop, batch = primed(3.0, 1.0), primed(3.0, 1.0)
    ds = np.linspace(0.0, 0.5, 2000)      # one backlog run throughout
    want = [loop.acquire(1.0, d)[1] for d in ds.tolist()]
    assert batch.acquire_many(1.0, ds).tolist() == want
    assert acquired(batch) == acquired(loop)


def test_acquire_many_refuses_negative_durations_untouched():
    line = primed(2.0, 1.0)
    with pytest.raises(TimingError):
        line.acquire_many(np.zeros(3), [1.0, -1.0, 2.0])
    assert acquired(line) == (2.0, 1.0)


def test_acquire_many_refuses_a_multi_server_timeline():
    with pytest.raises(ConfigError):
        Timeline(2).acquire_many(np.zeros(2), [1.0, 1.0])
