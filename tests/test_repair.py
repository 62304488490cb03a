"""Online repair: health machine, hot-spare rebuild, background scrub."""

from dataclasses import replace

import numpy as np
import pytest

from repro.chaos.rig import TORTURE_CONFIG, build_origin, build_shard
from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.config import CleanRedundancy, FaultConfig, RepairConfig
from repro.core.recovery import recover
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.obs import ObsRecorder
from repro.obs.recorder import attach
from repro.repair import (DeviceHealth, ForegroundGuard, HealthTracker,
                          RebuildJob, RepairStateError, TokenBucket)
from repro.ssd.device import SSDDevice

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD

FAIL_AT = 0.05


def make_repair_src(plans=None, config=TINY_SRC, n_spares=1, recorder=None):
    """An SRC stack with fault injectors and a hot-spare pool."""
    plans = plans or {}
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"t{i}"), plans.get(i),
                          name=f"fault{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    spares = [SSDDevice(TINY_SSD, name=f"spare{i}")
              for i in range(n_spares)]
    cache = SrcCache(ssds, origin, config, spares=spares or None)
    if recorder is not None:
        cache = attach(cache, recorder)
    return cache


def fill_segments(cache, n=1, start=0, now=0.0):
    """Write ``n`` segments' worth of distinct dirty blocks."""
    cap = cache.layout.dirty_segment_capacity()
    for i in range(n * cap):
        now = max(now, cache.write((start + i) * PAGE_SIZE, PAGE_SIZE, now))
    return now


def mapped_entries(cache):
    for sg in range(cache.layout.groups):
        yield from cache.mapping.sg_blocks(sg)


def drain_rebuild(cache, now, max_steps=10_000):
    """Advance simulated time until the active rebuild completes."""
    repair = cache.repair
    while repair.jobs and max_steps > 0:
        max_steps -= 1
        ready = repair.rebuild_bucket.ready_time(repair.unit_bytes, now)
        now = max(now + 1e-6, ready)
        repair.pump(now)
    assert not repair.jobs, "rebuild failed to finish"
    return now


def fail_member(cache, now):
    """Touch the armed injector past its fail_at so SRC converts it."""
    return fill_segments(cache, n=1, start=50_000, now=max(now, FAIL_AT * 2))


# ------------------------------------------------------------------
# the health state machine
# ------------------------------------------------------------------
def test_health_cycle_accounts_mttr_and_degraded_window():
    h = HealthTracker(2, device="arr")
    h.transition(0, DeviceHealth.DEGRADED, 1.0, "fail-stop")
    assert h.state(0) is DeviceHealth.DEGRADED
    assert h.degraded_window_s == 0.0 and h.last_mttr is None   # clock runs
    assert not h.all_healthy()
    h.transition(0, DeviceHealth.REBUILDING, 2.0, "spare attached")
    h.transition(0, DeviceHealth.HEALTHY, 5.0, "rebuild complete")
    assert h.last_mttr == pytest.approx(4.0)
    assert h.degraded_window_s == pytest.approx(4.0)
    assert h.all_healthy()
    assert [t.new for t in h.history] == [
        DeviceHealth.DEGRADED, DeviceHealth.REBUILDING, DeviceHealth.HEALTHY]


def test_health_terminal_states_stop_the_clock_without_mttr():
    h = HealthTracker(1)
    h.transition(0, DeviceHealth.DEGRADED, 1.0)
    h.transition(0, DeviceHealth.FAILED, 3.0)
    assert h.degraded_window_s == pytest.approx(2.0)
    assert h.last_mttr is None


def test_health_illegal_transitions_raise():
    h = HealthTracker(1, device="arr")
    with pytest.raises(RepairStateError):      # self-transition
        h.transition(0, DeviceHealth.HEALTHY, 0.0)
    h.transition(0, DeviceHealth.DEGRADED, 1.0)
    with pytest.raises(RepairStateError):      # must rebuild first
        h.transition(0, DeviceHealth.HEALTHY, 2.0)
    h.transition(0, DeviceHealth.FAILED, 3.0)
    with pytest.raises(RepairStateError):      # FAILED only exits to BYPASS
        h.transition(0, DeviceHealth.REBUILDING, 4.0)
    h.transition(0, DeviceHealth.BYPASS, 5.0)
    with pytest.raises(RepairStateError):      # BYPASS is the end
        h.transition(0, DeviceHealth.FAILED, 6.0)


# ------------------------------------------------------------------
# throttle primitives
# ------------------------------------------------------------------
def test_token_bucket_rates_and_burst():
    b = TokenBucket(100.0, 200.0)
    assert b.ready_time(150, 0.0) == 0.0       # inside the burst
    b.consume(150, 0.0)
    assert b.ready_time(150, 0.0) == pytest.approx(1.0)   # 100-token debt
    assert b.ready_time(150, 2.0) == 2.0       # refilled by then
    unlimited = TokenBucket(0.0, 1.0)
    assert unlimited.ready_time(10 ** 9, 5.0) == 5.0
    unlimited.consume(10 ** 9, 5.0)            # free


def test_foreground_guard_windows_and_cooling():
    assert not ForegroundGuard(0.0).hot()      # disabled when limit is 0
    g = ForegroundGuard(1e-3, window=16, min_samples=4)
    for _ in range(3):
        g.observe(1.0)
    assert g.p99() == 0.0 and not g.hot()      # below min_samples
    g.observe(1.0)
    assert g.hot()
    for _ in range(16):                        # window rolls over; cools
        g.observe(1e-5)
    assert not g.hot()


@pytest.mark.parametrize("n", [5, 16, 40])
def test_foreground_guard_observe_many_is_the_per_row_loop(n):
    """Shorter than, equal to and longer than the window; and a no-op
    on a disabled guard."""
    latencies = np.random.default_rng(n).random(n)
    bulk = ForegroundGuard(1e-3, window=16)
    loop = ForegroundGuard(1e-3, window=16)
    for guard in (bulk, loop):
        guard.observe(7.0)                     # something to roll out
    bulk.observe_many(latencies)
    for latency in latencies.tolist():
        loop.observe(latency)
    assert list(bulk._samples) == list(loop._samples)
    off = ForegroundGuard(0.0)
    off.observe_many(latencies)
    assert not off._samples


def test_rebuild_job_queue_semantics():
    job = RebuildJob(member=1, units=[(0, 0), (0, 1), (1, 0)])
    assert job.total == 3 and job.pending() == 3 and not job.complete
    job.promote((1, 0))
    assert job.next_unit() == (1, 0)           # promoted to the front
    job.mark_done((1, 0), 2.0)
    job.drop([(0, 1)])                         # GC reclaimed the group
    assert job.next_unit() == (0, 0)
    job.mark_done((0, 0), 3.0)
    assert job.complete and job.last_io_end == 3.0
    assert not job.covers((0, 0))


# ------------------------------------------------------------------
# hot-spare rebuild, end to end
# ------------------------------------------------------------------
def test_fail_stop_attaches_spare_and_rebuild_completes():
    rec = ObsRecorder()
    config = replace(TINY_SRC,
                     repair=RepairConfig(rebuild_rate=0.0))   # unthrottled
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            config=config, recorder=rec)
    now = fill_segments(cache, n=3)
    now = fail_member(cache, now)
    drain_rebuild(cache, now)

    stats = cache.srcstats
    assert stats.spares_attached == 1
    assert stats.rebuilds_started == 1
    assert stats.rebuilds_completed == 1
    assert stats.rebuild_units > 0
    assert stats.mttr_s > 0
    assert stats.degraded_window_s > 0
    assert cache.repair.health.state(1) is DeviceHealth.HEALTHY
    assert cache.ssds[1].name == "spare0"          # the spare holds the slot
    assert not cache.repair.spares                 # pool is spent
    assert not cache.bypass
    counts = rec.trace.counts()
    assert counts.get("RebuildStarted") == 1
    assert counts.get("RebuildCompleted") == 1
    assert counts.get("HealthTransition", 0) >= 3  # DEGRADED/REBUILDING/HEALTHY


def test_rebuilt_data_is_readable_without_degradation():
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_rate=0.0))
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            config=config)
    now = fill_segments(cache, n=3)
    victims = [lba for lba, e in mapped_entries(cache)
               if e.location.ssd == 1]
    now = fail_member(cache, now)
    now = drain_rebuild(cache, now)
    before = cache.srcstats.snapshot()
    for lba in victims[:10]:
        if cache.mapping.lookup(lba) is None:
            continue                    # superseded/GC'd during the run
        now = max(now, cache.read(lba * PAGE_SIZE, PAGE_SIZE, now))
    delta = cache.srcstats.delta(before)
    assert delta.degraded_reads == 0    # rebuilt units serve directly


def test_reads_of_unrebuilt_units_are_served_degraded_and_promoted():
    # 1 byte/s: after the 2-unit burst the rebuild is effectively frozen.
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_rate=1.0))
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            config=config)
    now = fill_segments(cache, n=4)
    now = fail_member(cache, now)
    job = cache.repair.active_job
    assert job is not None and job.pending() > 0
    cache.repair.pump(now)         # spend the burst; now truly frozen
    assert job.pending() > 0

    target, unit = None, None
    for lba, entry in mapped_entries(cache):
        loc = entry.location
        if loc.ssd == 1 and not cache.repair.unit_ready(1, loc.sg,
                                                        loc.segment):
            target, unit = lba, (loc.sg, loc.segment)
            break
    assert target is not None
    before = cache.srcstats.snapshot()
    cache.read(target * PAGE_SIZE, PAGE_SIZE, now + 1e-3)
    delta = cache.srcstats.delta(before)
    assert delta.degraded_reads == 1
    assert delta.parity_reconstructions == 1
    assert delta.unrecoverable_errors == 0
    # The degraded read promoted its unit to the front of the queue —
    # unless the read's reinsertion already superseded (and dropped) it.
    if job.covers(unit):
        assert job._queue[0] == unit


def test_foreground_guard_defers_rebuild_io():
    # An absurdly low p99 limit: the guard is hot from the first window,
    # so the pump defers every rebuild unit while foreground runs.
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_fg_p99=1e-9))
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            config=config)
    now = fill_segments(cache, n=2)
    now = fail_member(cache, now)
    assert cache.repair.active_job is not None
    # Keep the foreground busy: every pump must defer to it.
    fill_segments(cache, n=1, start=80_000, now=now)
    assert cache.srcstats.rebuild_throttle_defers > 0
    assert cache.srcstats.rebuild_units == 0


def test_a_source_dying_under_a_rebuild_read_drops_the_unit():
    """The rebuild reads a unit as one stripe read; a source that
    fail-stops under it leaves the stripe unreconstructable, so the
    spare is written nothing and the slot's blocks in the unit are
    dropped (dirty ones counted lost), with bypass off."""
    config = replace(TINY_SRC, faults=FaultConfig(bypass_on_failure=False),
                     repair=RepairConfig(rebuild_rate=0.0))
    cache = make_repair_src({3: FaultPlan().fail_stop(at=1.0)},
                            config=config)
    now = fill_segments(cache, n=2)
    assert now < 1.0
    cache.ssds[1].fail()
    assert cache.members.submit(1, Request(Op.READ, 0, PAGE_SIZE),
                                now) is None
    spare, job = cache.ssds[1], cache.repair.active_job
    sg, segment = job.next_unit()
    lost = [lba for lba, entry in cache.mapping.sg_blocks(sg)
            if entry.location.segment == segment and entry.location.ssd == 1]
    assert lost and all(cache.mapping.lookup(lba).dirty for lba in lost)

    cache.repair.pump(1.0)      # member 3 dies on its read of the unit
    assert cache.ssds[3].failed and not cache.bypass
    assert spare.stats.write_ops == 0
    assert cache.srcstats.rebuild_units == 0
    assert all(cache.mapping.lookup(lba) is None for lba in lost)
    assert cache.srcstats.rebuild_dropped_blocks >= len(lost)
    assert cache.srcstats.unrecoverable_errors >= len(lost)


# ------------------------------------------------------------------
# bypass is the last resort
# ------------------------------------------------------------------
def test_bypass_waits_while_spare_rebuild_is_in_flight():
    # Regression: _maybe_bypass must not fire while a hot spare holds
    # the slot; the transition order is DEGRADED -> REBUILDING with no
    # bypass in between, and bypass only comes once coverage runs out.
    # 1 byte/s: frozen after the burst.
    config = replace(TINY_SRC, repair=RepairConfig(rebuild_rate=1.0))
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT),
                             2: FaultPlan().fail_stop(at=10.0)},
                            config=config)
    now = fill_segments(cache, n=2)
    now = fail_member(cache, now)
    assert not cache.bypass
    assert cache.repair.health.state(1) is DeviceHealth.REBUILDING
    moves = [(t.old, t.new) for t in cache.repair.health.history
             if t.member == 1]
    assert moves == [(DeviceHealth.HEALTHY, DeviceHealth.DEGRADED),
                     (DeviceHealth.DEGRADED, DeviceHealth.REBUILDING)]

    # Second failure mid-rebuild: 1 dead + 1 rebuilding > RAID-5
    # tolerance, so NOW bypass fires and every slot's story ends.
    fill_segments(cache, n=1, start=90_000, now=10.5)
    assert cache.bypass
    states = cache.repair.health.states()
    assert all(s is DeviceHealth.BYPASS for s in states)
    assert cache.repair.active_job is None


def test_single_failure_without_spare_stays_degraded():
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            n_spares=0)
    now = fill_segments(cache, n=2)
    fail_member(cache, now)
    assert not cache.bypass
    assert cache.repair.health.state(1) is DeviceHealth.DEGRADED
    assert cache.srcstats.spares_attached == 0


# ------------------------------------------------------------------
# background scrub
# ------------------------------------------------------------------
def test_scrub_repairs_latent_corruption_before_foreground_sees_it():
    rec = ObsRecorder()
    cache = make_repair_src(n_spares=0, recorder=rec)
    now = fill_segments(cache, n=2)
    lba, entry = next(iter(mapped_entries(cache)))
    loc = entry.location
    cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)

    report = cache.repair.scrub_now(now)
    assert report.corrupt_found == 1
    assert report.repaired == 1
    assert report.unrepairable == 0
    assert report.checked_blocks > 0
    assert not cache.ssds[loc.ssd].corrupted_in(loc.offset, PAGE_SIZE)
    counts = rec.trace.counts()
    assert counts.get("CorruptionDetected") == 1
    assert counts.get("CorruptionRepaired") == 1

    # The foreground read after the scrub never hits the slow
    # read-path corruption repair.
    cache.read(lba * PAGE_SIZE, PAGE_SIZE, now + report.duration_s + 1e-3)
    assert cache.srcstats.corruption_repairs == 0
    assert cache.srcstats.scrub_repairs == 1


def test_scrub_double_fault_is_unrepairable_and_dropped():
    rec = ObsRecorder()
    cache = make_repair_src(n_spares=0, recorder=rec)
    now = fill_segments(cache, n=1)
    lba, entry = next(iter(mapped_entries(cache)))
    loc = entry.location
    assert entry.dirty
    cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)
    # Kill another involved member: no parity source, dirty data ->
    # a genuine double fault.
    other = next(i for i in cache.repair._involved(
        loc.sg, loc.segment, True) if i != loc.ssd)
    cache.ssds[other].fail()

    report = cache.repair.scrub_now(now)
    assert report.unrepairable == 1
    assert cache.mapping.lookup(lba) is None       # never served again
    assert cache.srcstats.unrecoverable_errors >= 1
    assert rec.trace.counts().get("ScrubUnrepairable") == 1


def test_periodic_scrub_runs_from_the_pump():
    config = replace(TINY_SRC, repair=RepairConfig(scrub_interval=1.0))
    cache = make_repair_src(n_spares=0, config=config)
    now = fill_segments(cache, n=1)
    assert now < 1.0                    # the fill ends before the due time
    lba, entry = next(iter(mapped_entries(cache)))
    loc = entry.location
    cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)
    cache.repair.pump(1.5)              # idle tick past the scrub period
    assert cache.srcstats.scrub_passes == 1
    assert cache.srcstats.scrub_repairs == 1
    assert cache.srcstats.scrub_checked_blocks > 0


@pytest.mark.parametrize("raid_level, dead", [(0, (1,)), (5, (1, 2))])
def test_scrub_pass_stops_when_its_read_sends_the_cache_to_bypass(
        raid_level, dead):
    """A scrub READ that fail-stops one member too many hands the array
    to the origin mid-pass; the pass ends there instead of scanning on."""
    config = replace(TORTURE_CONFIG, raid_level=raid_level,
                     repair=RepairConfig(scrub_interval=0.5))
    cache, injectors = build_shard(build_origin(), config)
    now = 0.0
    for block in range(300):
        now = cache.submit(Request(Op.WRITE, block * PAGE_SIZE, PAGE_SIZE),
                           now)
    assert now < 1.0 and cache.srcstats.scrub_passes == 0
    for member in dead:
        injectors[member].plan = FaultPlan().fail_stop(at=0.0)
    cache.submit(Request(Op.WRITE, 0, PAGE_SIZE), 1.0)
    assert cache.bypass
    assert cache.srcstats.scrub_passes == 0


# ------------------------------------------------------------------
# FLUSH fail-slow observation
# ------------------------------------------------------------------
def test_flush_latencies_feed_their_own_failslow_detector():
    rec = ObsRecorder()
    config = replace(TINY_SRC,
                     faults=FaultConfig(failslow_flush_p99=50e-3))
    cache = make_repair_src(
        {3: FaultPlan().limp_window(0.0, 1e9, 100.0)},
        config=config, n_spares=0, recorder=rec)
    now = 0.0
    # The detector evaluates once per 32-sample window, so drive at
    # least a full window of FLUSH completions through each device.
    for i in range(40):
        now = max(now, cache.write(i * PAGE_SIZE, PAGE_SIZE, now))
        now = max(now, cache.submit(Request(Op.FLUSH), now)) + 1e-3
        if cache.srcstats.limping_detected:
            break
    assert cache.srcstats.limping_detected == 1
    assert cache.ssds[3].failed
    assert not cache.bypass
    assert cache.repair.health.state(3) is DeviceHealth.DEGRADED
    limps = [e for e in rec.trace.events if e.kind == "DeviceLimping"]
    assert limps and limps[0].threshold == config.faults.failslow_flush_p99
    # The healthy drives were never flagged.
    assert all(not cache.ssds[i].failed for i in (0, 1, 2))


# ------------------------------------------------------------------
# recovery after repair
# ------------------------------------------------------------------
def test_recover_after_mid_run_rebuild_is_clean():
    # PC clean redundancy: every segment carries parity, so every
    # degraded read reconstructs -- DegradedRead event counts must
    # match parity_reconstructions exactly.
    rec = ObsRecorder()
    config = replace(TINY_SRC, clean_redundancy=CleanRedundancy.PC,
                     repair=RepairConfig(rebuild_rate=1.0))
    cache = make_repair_src({1: FaultPlan().fail_stop(at=FAIL_AT)},
                            config=config, recorder=rec)
    now = fill_segments(cache, n=3)
    now = fail_member(cache, now)
    cache.repair.pump(now)          # spend the burst; rebuild now frozen

    # Degraded reads while the rebuild is still in flight: pick blocks
    # whose units the (frozen) rebuild has not reconstructed yet.
    victims = [lba for lba, e in mapped_entries(cache)
               if e.location.ssd == 1
               and not cache.repair.unit_ready(1, e.location.sg,
                                               e.location.segment)]
    assert victims
    for lba in victims[:5]:
        if cache.mapping.lookup(lba) is not None:
            now = max(now, cache.read(lba * PAGE_SIZE, PAGE_SIZE, now))
    now = drain_rebuild(cache, now)
    assert cache.srcstats.rebuilds_completed == 1

    # More writes after the repair, then recover over the post-swap
    # array (the slot holds the spare now).
    now = fill_segments(cache, n=1, start=70_000, now=now)
    recovered, report = recover(list(cache.ssds), cache.origin,
                                cache.config, cache.metadata, now=now)
    assert report.checksum_failures == 0
    recovered.mapping.check_invariants()
    # No stale segment resurrected: every recovered entry points at a
    # live summary and agrees with the surviving cache's view.
    for lba, entry in mapped_entries(recovered):
        loc = entry.location
        summary = cache.metadata.read_summary(loc.sg, loc.segment)
        assert summary is not None
        live = cache.mapping.lookup(lba)
        assert live is not None
        assert live.version == entry.version
    # The degraded-read ledger balances.
    assert (rec.trace.counts().get("DegradedRead", 0)
            == cache.srcstats.parity_reconstructions)
    assert cache.srcstats.degraded_reads >= 1
