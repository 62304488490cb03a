"""SRC resilience policies: retry, fail-slow conversion, origin-bypass."""

from dataclasses import replace

import pytest

from repro.block.device import NullDevice
from repro.common.errors import ConfigError, DeviceFailedError
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import FaultConfig
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.obs import ObsRecorder
from repro.obs.recorder import attach
from repro.raid.array import Raid0Device, Raid1Device
from repro.ssd.device import SSDDevice

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD


def make_faulty_src(plans, config=TINY_SRC, recorder=None):
    """An SRC stack with every SSD behind a fault injector.

    ``plans`` maps SSD index -> FaultPlan; unmapped SSDs get a benign
    injector so the wrapper itself is exercised everywhere.
    """
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"t{i}"),
                          plans.get(i), name=f"fault{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    cache = SrcCache(ssds, origin, config)
    if recorder is not None:
        cache = attach(cache, recorder)
    return cache


def fill_one_dirty_segment(cache, start=0, now=0.0):
    cap = cache.layout.dirty_segment_capacity()
    for i in range(cap):
        now = max(now, cache.write((start + i) * PAGE_SIZE, PAGE_SIZE, now))
    return now, cap


# ------------------------------------------------------------------
# transient errors: retried transparently inside the budget
# ------------------------------------------------------------------
def test_transient_errors_are_retried_transparently():
    # Every SSD fails every READ/WRITE before t=100us; the first
    # backoff (200us) lands each retry outside the window.
    plan = {i: FaultPlan().transient_window(0.0, 1e-4, 1.0)
            for i in range(4)}
    cache = make_faulty_src(plan)
    cap = cache.layout.dirty_segment_capacity()
    for i in range(cap):
        cache.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)   # segment write at t~0
    assert cache.srcstats.retries > 0
    assert cache.srcstats.retry_give_ups == 0
    assert cache.srcstats.failstop_conversions == 0
    assert all(not ssd.failed for ssd in cache.ssds)
    # The data survived the turbulence.
    hits = cache.cstats.read_hits
    cache.read(0, PAGE_SIZE, 1.0)
    assert cache.cstats.read_hits == hits + 1


def test_retry_attempts_emit_events():
    rec = ObsRecorder()
    plan = {i: FaultPlan().transient_window(0.0, 1e-4, 1.0)
            for i in range(4)}
    cache = make_faulty_src(plan, recorder=rec)
    cap = cache.layout.dirty_segment_capacity()
    for i in range(cap):
        cache.write(i * PAGE_SIZE, PAGE_SIZE, 0.0)
    counts = rec.trace.counts()
    assert counts.get("FaultInjected", 0) > 0
    assert counts.get("RetryAttempt", 0) > 0


# ------------------------------------------------------------------
# retry exhaustion: the drive is converted to fail-stop
# ------------------------------------------------------------------
def test_retry_exhaustion_converts_ssd_to_fail_stop():
    # SSD 1 never stops erroring: the retry budget runs out and SRC
    # treats it as dead; RAID-5 tolerates the loss, so no bypass.
    cache = make_faulty_src(
        {1: FaultPlan().transient_window(0.0, 1e9, 1.0)})
    fill_one_dirty_segment(cache)
    assert cache.srcstats.retry_give_ups >= 1
    assert cache.srcstats.failstop_conversions == 1
    assert cache.ssds[1].failed
    assert not cache.bypass
    # Later segments simply skip the dead drive (degraded writes).
    fill_one_dirty_segment(cache, start=1000, now=1.0)
    assert cache.srcstats.failstop_conversions == 1


# ------------------------------------------------------------------
# fail-slow: a limping SSD is detected and fail-stopped
# ------------------------------------------------------------------
def test_limping_ssd_is_detected_and_converted():
    rec = ObsRecorder()
    config = replace(TINY_SRC, faults=FaultConfig(failslow_p99=5e-3,
                                                  failslow_window=4))
    cache = make_faulty_src(
        {2: FaultPlan().limp_window(0.0, 1e9, 100.0)},
        config=config, recorder=rec)
    now = 0.0
    for segment in range(6):
        now, _ = fill_one_dirty_segment(cache, start=segment * 1000,
                                        now=now + 1e-3)
        if cache.srcstats.limping_detected:
            break
    assert cache.srcstats.limping_detected == 1
    assert cache.ssds[2].failed
    assert cache.srcstats.failstop_conversions == 1
    assert not cache.bypass                      # RAID-5 absorbs the loss
    assert rec.trace.counts().get("DeviceLimping") == 1
    # The healthy drives were never flagged.
    assert all(not cache.ssds[i].failed for i in (0, 1, 3))


def test_failslow_disabled_by_default():
    cache = make_faulty_src(
        {2: FaultPlan().limp_window(0.0, 1e9, 100.0)})
    now = 0.0
    for segment in range(4):
        now, _ = fill_one_dirty_segment(cache, start=segment * 1000,
                                        now=now + 1e-3)
    assert cache.members.failslow is None
    assert cache.srcstats.limping_detected == 0
    assert not cache.ssds[2].failed


# ------------------------------------------------------------------
# origin-bypass: graceful degradation when the array is lost
# ------------------------------------------------------------------
def test_array_loss_enters_origin_bypass_with_loss_accounting():
    rec = ObsRecorder()
    config = replace(TINY_SRC, raid_level=0)     # tolerates zero failures
    # Healthy until t=0.5, then SSD 0 errors forever: the segment
    # write at t>=0.5 exhausts the budget and the RAID-0 array is lost.
    cache = make_faulty_src(
        {0: FaultPlan().transient_window(0.5, 1e9, 1.0)},
        config=config, recorder=rec)
    _, cap = fill_one_dirty_segment(cache)       # durable dirty data
    fill_one_dirty_segment(cache, start=1000, now=1.0)
    assert cache.bypass
    assert cache.srcstats.failstop_conversions == 1
    assert cache.srcstats.bypass_lost_dirty >= cap
    events = [e for e in rec.trace.events if e.kind == "BypassEntered"]
    assert len(events) == 1
    assert events[0].lost_dirty == cache.srcstats.bypass_lost_dirty

    # All subsequent traffic goes straight to the origin.
    origin_writes = cache.origin.stats.write_ops
    origin_reads = cache.origin.stats.read_ops
    cache.write(0, PAGE_SIZE, 2.0)
    cache.read(0, PAGE_SIZE, 2.1)
    assert cache.srcstats.bypass_writes == 1
    assert cache.srcstats.bypass_reads == 1
    assert cache.origin.stats.write_ops > origin_writes
    assert cache.origin.stats.read_ops > origin_reads
    # Nothing counts as cached any more: a re-read goes round again.
    cache.read(0, PAGE_SIZE, 2.2)
    assert cache.srcstats.bypass_reads == 2
    assert cache.cstats.read_hits == 0


def test_bypass_disabled_keeps_strict_semantics():
    config = replace(TINY_SRC, raid_level=0,
                     faults=FaultConfig(bypass_on_failure=False))
    cache = make_faulty_src(
        {0: FaultPlan().transient_window(0.5, 1e9, 1.0)}, config=config)
    fill_one_dirty_segment(cache)
    fill_one_dirty_segment(cache, start=1000, now=1.0)
    assert cache.srcstats.failstop_conversions == 1
    assert not cache.bypass
    assert cache.srcstats.bypass_lost_dirty == 0
    # The cache keeps serving (degraded), it just never degrades to
    # pass-through on its own.
    cache.write(5000 * PAGE_SIZE, PAGE_SIZE, 2.0)
    cache.read(5000 * PAGE_SIZE, PAGE_SIZE, 2.1)
    assert cache.cstats.read_hits == 1 and cache.srcstats.bypass_reads == 0
    assert cache.srcstats.bypass_writes == 0


def test_hand_failed_drive_does_not_trigger_bypass():
    cache = make_faulty_src({}, config=replace(TINY_SRC, raid_level=0))
    fill_one_dirty_segment(cache)
    cache.ssds[0].fail()                         # staged by a test harness
    fill_one_dirty_segment(cache, start=1000, now=1.0)
    assert not cache.bypass                      # only *detected* failures
    assert cache.srcstats.failstop_conversions == 0


# ------------------------------------------------------------------
# RAID layer: member retry and mirror fallback
# ------------------------------------------------------------------
def test_raid1_read_falls_back_to_healthy_mirror():
    bad = FaultInjector(NullDevice(1 * MIB, latency=1e-4, name="bad"),
                        FaultPlan().transient_window(0.0, 1e9, 1.0))
    good = NullDevice(1 * MIB, latency=1e-4, name="good")
    raid = Raid1Device([bad, good])
    # Two reads: the toggle guarantees one of them starts on the flaky
    # mirror, exhausts its budget and falls back to the healthy one.
    raid.read(0, 4096, 0.0)
    raid.read(0, 4096, 1.0)
    assert raid.member_retries >= raid.retry_policy.max_attempts
    assert raid.member_failstops == 1
    assert bad.failed
    raid.read(0, 4096, 2.0)                      # degraded but serving


def test_raid0_member_loss_after_retries_is_fatal():
    bad = FaultInjector(NullDevice(1 * MIB, latency=1e-4, name="bad"),
                        FaultPlan().transient_window(0.0, 1e9, 1.0))
    good = NullDevice(1 * MIB, latency=1e-4, name="good")
    raid = Raid0Device([bad, good])
    with pytest.raises(DeviceFailedError):
        raid.write(0, 16384, 0.0)
    assert raid.member_failstops == 1


# ------------------------------------------------------------------
# configuration validation
# ------------------------------------------------------------------
@pytest.mark.parametrize("bad", [
    {"failslow_p99": -1.0},
    {"failslow_window": 1},
    {"failslow_flush_p99": -1.0},
])
def test_resilience_config_validation(bad):
    with pytest.raises(ConfigError):
        replace(TINY_SRC, faults=FaultConfig(**bad))
