"""Split-phase lifecycle: queued devices, submissions, background reclaim."""

import random
from dataclasses import replace

import pytest

from repro.block.device import BlockDevice
from repro.block.lifecycle import QueuedDevice, Submission
from repro.chaos import CrashPointExplorer
from repro.chaos.rig import TORTURE_CONFIG, TORTURE_SSD
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import GIB, PAGE_SIZE
from repro.core.src import SrcCache
from repro.faults.injector import FaultInjector
from repro.faults.policy import RetryPolicy, submit_with_retry
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.obs.events import BackpressureStall, Destage, GcEnd
from repro.obs.recorder import ObsRecorder, attach
from repro.ssd.device import SSDDevice


class ParallelQueuedDevice(QueuedDevice, BlockDevice):
    """Fixed-latency device with unbounded internal parallelism.

    Every admitted request takes exactly ``latency``, so the only thing
    shaping completion times is the queue-depth limit under test.
    """

    def __init__(self, depth: int, latency: float = 0.1):
        super().__init__(1 << 30, "toy")
        self.init_queue(depth)
        self.latency = latency

    def _service(self, req: Request, now: float) -> float:
        return now + self.latency


def _write(lba: int = 0) -> Request:
    return Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)


# ---------------------------------------------------------------------------
# QueuedDevice admission under contention
# ---------------------------------------------------------------------------
def test_queue_depth_honored_under_contention():
    dev = ParallelQueuedDevice(depth=2, latency=0.1)
    subs = [dev.submit_request(_write(i), 0.0) for i in range(8)]
    # Pairs drain in lockstep: two begin at 0.0, two at 0.1, ...
    assert [s.begin_t for s in subs] == pytest.approx(
        [0.0, 0.0, 0.1, 0.1, 0.2, 0.2, 0.3, 0.3])
    assert [s.done_t for s in subs] == pytest.approx(
        [0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.4, 0.4])
    assert dev.qstats.max_outstanding == 2
    assert dev.qstats.submissions == 8
    assert dev.qstats.queued_ops == 6
    assert dev.outstanding(0.05) == 2


def test_queue_drains_between_bursts():
    dev = ParallelQueuedDevice(depth=2, latency=0.1)
    dev.submit(_write(0), 0.0)
    dev.submit(_write(1), 0.0)
    # Past both completions the queue is empty again: no delay.
    sub = dev.submit_request(_write(2), 0.5)
    assert sub.queue_delay == 0.0
    assert sub.done_t == pytest.approx(0.6)


def test_zero_depth_keeps_synchronous_fast_path():
    dev = ParallelQueuedDevice(depth=0, latency=0.1)
    subs = [dev.submit_request(_write(i), 0.0) for i in range(16)]
    assert all(s.queue_delay == 0.0 for s in subs)
    assert dev.qstats.submissions == 0   # no bookkeeping at all


def test_submission_phase_arithmetic():
    dev = ParallelQueuedDevice(depth=1, latency=0.1)
    first = dev.submit_request(_write(0), 0.0)
    second = dev.submit_request(_write(1), 0.0)
    assert first.queue_delay == 0.0
    assert second.queue_delay == pytest.approx(0.1)
    assert second.service_time == pytest.approx(0.1)
    assert second.latency == pytest.approx(0.2)
    assert second.origin is IoOrigin.FOREGROUND
    data = second.as_dict()
    assert data["queue_delay"] == pytest.approx(0.1)
    assert data["origin"] == "fg"


def test_submit_and_submit_request_agree():
    a = ParallelQueuedDevice(depth=2, latency=0.1)
    b = ParallelQueuedDevice(depth=2, latency=0.1)
    ends = [a.submit(_write(i), 0.0) for i in range(5)]
    subs = [b.submit_request(_write(i), 0.0) for i in range(5)]
    assert ends == pytest.approx([s.done_t for s in subs])


def test_real_devices_are_queued():
    ssd = SSDDevice(TORTURE_SSD, name="q0")
    disk = DiskDevice(DiskSpec(capacity=2 * GIB))
    assert isinstance(ssd, QueuedDevice) and ssd.queue_depth == 32
    assert isinstance(disk, QueuedDevice) and disk.queue_depth == 32
    assert isinstance(ssd.submit_request(_write(0), 0.0), Submission)


# ---------------------------------------------------------------------------
# retries re-enter the queue
# ---------------------------------------------------------------------------
def test_retry_reenters_queue_behind_new_traffic():
    toy = ParallelQueuedDevice(depth=1, latency=0.1)
    injector = FaultInjector(toy)
    injector.plan.transient_window(0.0, 1e-4, 1.0)  # first try always fails
    # Competing traffic lands while the failed request backs off.
    toy.submit(_write(9), 5e-5)
    policy = RetryPolicy(max_attempts=4, backoff=2e-4, timeout=0.05)
    end = submit_with_retry(injector, _write(0), 0.0, policy)
    # The retry passed admission again: it queued behind the competing
    # request instead of keeping its original slot.
    assert end == pytest.approx(5e-5 + 0.1 + 0.1)
    assert toy.qstats.queued_ops == 1


# ---------------------------------------------------------------------------
# SRC background reclaim: overlap, backpressure, attribution
# ---------------------------------------------------------------------------
def _small_src():
    # TWAIT is pushed out of reach so every segment write in the driver
    # is caused by the driver itself (deterministic overlap accounting).
    config = replace(TORTURE_CONFIG, t_wait=10.0)
    ssds = [SSDDevice(TORTURE_SSD, name=f"s{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=2,
                            disk_spec=DiskSpec(capacity=2 * GIB))
    cache = SrcCache(ssds, origin, config)
    attach(cache, ObsRecorder())
    return cache, ssds, origin


def _drive(cache, ops: int = 1500, seed: int = 11, span: int = 1500):
    # ``span`` exceeds the torture cache's ~1176-block data capacity so
    # utilization crosses UMAX and Sel-GC destages (S2D) as well as
    # copying (S2S) — both background paths get exercised.
    """Seeded closed loop; returns (write latencies, overlap counts)."""
    rng = random.Random(seed)
    trace = cache.obs.trace
    now = 0.0
    write_lat = []
    overlaps = {"destage": 0, "gc": 0}
    for _ in range(ops):
        lba = rng.randrange(span)
        if rng.random() < 0.8:
            req = Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE)
        else:
            req = Request(Op.READ, lba * PAGE_SIZE, PAGE_SIZE)
        before = len(trace.events)
        end = cache.submit(req, now)
        if req.op is Op.WRITE:
            write_lat.append(end - now)
            # Background work whose device I/O completes after this
            # write was acknowledged = reclaim in flight past the ack.
            for event in trace.events[before:]:
                if event.t <= end:
                    continue
                if isinstance(event, Destage):
                    overlaps["destage"] += 1
                elif isinstance(event, GcEnd):
                    overlaps["gc"] += 1
        now = max(now, end) + 1e-5
    return write_lat, overlaps


def test_foreground_write_completes_while_destage_in_flight():
    cache, _, _ = _small_src()
    _, overlaps = _drive(cache)
    # The acceptance property of the split-phase refactor: a destage's
    # device I/O is still running when the triggering write is acked.
    assert overlaps["destage"] >= 1
    assert overlaps["gc"] >= 1
    assert cache.srcstats.background_reclaims > 0


def test_backpressure_accounting_consistent():
    cache, _, _ = _small_src()
    _drive(cache)
    stalls = cache.srcstats.throttle_stalls
    events = cache.obs.trace.of_type(BackpressureStall)
    assert len(events) == stalls
    assert cache.srcstats.throttle_wait_s == pytest.approx(
        sum(e.waited for e in events))
    if stalls:
        assert all(e.waited > 0 for e in events)


def test_origin_bytes_attributed_by_origin():
    cache, ssds, origin = _small_src()
    _drive(cache)
    for dev in ssds + [origin]:
        stats = dev.stats
        assert sum(stats.bytes_by_origin.values()) == \
            stats.read_bytes + stats.write_bytes
        assert stats.foreground_bytes + stats.background_bytes == \
            stats.read_bytes + stats.write_bytes
    # Reclaim traffic is visible and separated on the SSDs...
    assert sum(s.stats.background_bytes for s in ssds) > 0
    assert sum(s.stats.foreground_bytes for s in ssds) > 0
    # ...and destage writes are what the origin sees in the background.
    assert origin.stats.bytes_by_origin.get("destage", 0) > 0
    assert origin.stats.foreground_bytes > 0


# ---------------------------------------------------------------------------
# crash safety: async destage loses nothing that was acknowledged
# ---------------------------------------------------------------------------
def test_acked_dirty_blocks_survive_crash_points():
    # Destage runs behind the ack: cut power just before and just after
    # the first, a middle and the last destage write reaches the origin.
    explorer = CrashPointExplorer(seed=3, ops=800)
    acks = [p for p in explorer.discover("src")
            if p.startswith("destage-ack#")]
    assert acks
    for point in acks[:2] + acks[len(acks) // 2:][:2] + acks[-2:]:
        result = explorer.explore_point("src", point)
        assert result.crashed, point
        assert result.violations == [], (point, result.violations)
