"""Mechanical disk and the RAID-10 backend."""

import random

import numpy as np
import pytest

from repro import obs
from repro.common.errors import ConfigError, RaidDegradedError
from repro.common.types import IoOrigin, Op
from repro.common.units import GIB, KIB, MIB, mb_per_sec
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.obs.events import HealthTransition
from repro.raid.array import Raid1Device
from repro.repair import DeviceHealth


def test_random_read_pays_positioning():
    disk = DiskDevice()
    t1 = disk.read(0, 4096, 0.0)
    # Far-away read from idle: seek+rotation (discounted) + transfer.
    expected_min = (disk.spec.avg_seek + disk.spec.avg_rotation) * \
        disk.spec.read_positioning_factor
    assert t1 >= expected_min


def test_sequential_read_skips_positioning():
    disk = DiskDevice()
    t1 = disk.read(0, 1 * MIB, 0.0)
    t2 = disk.read(1 * MIB, 1 * MIB, t1)
    assert (t2 - t1) == pytest.approx(1 * MIB / disk.spec.transfer_bw,
                                      rel=0.01)


def test_write_positioning_cheaper_than_read():
    d1, d2 = DiskDevice(), DiskDevice()
    tw = d1.write(4 * 1024 * MIB, 4096, 0.0)
    tr = d2.read(4 * 1024 * MIB, 4096, 0.0)
    assert tw < tr


def test_flush_waits_for_arm():
    disk = DiskDevice()
    end = disk.write(0, 1 * MIB, 0.0)
    flushed = disk.flush(0.0)
    assert flushed >= end


def test_trim_is_noop():
    disk = DiskDevice()
    assert disk.trim(0, 1 * MIB, 5.0) == 5.0


def test_disk_spec_validation():
    with pytest.raises(ConfigError):
        DiskSpec(rpm=0)
    with pytest.raises(ConfigError):
        DiskSpec(read_positioning_factor=0)


def test_rotation_latency():
    spec = DiskSpec(rpm=7200)
    assert spec.avg_rotation == pytest.approx(60.0 / 7200 / 2)


# ------------------------------------------------------------------
# RAID-10: the md striped mirror over disks (capacity, both halves
# written, one half read and odd counts are tests/test_raid.py's)
# ------------------------------------------------------------------
def make_array(n=4):
    disks = [DiskDevice(DiskSpec(capacity=1024 * MIB)) for _ in range(n)]
    return Raid1Device(disks, chunk_size=64 * KIB), disks


def test_raid10_reads_balance_between_mirrors():
    """Reads alternate halves, the first of a run the even one."""
    array, disks = make_array(2)
    array.read(0, 64 * KIB, 0.0)
    assert (disks[0].stats.read_ops, disks[1].stats.read_ops) == (1, 0)
    for i in range(1, 10):
        array.read(0, 64 * KIB, float(i))
    assert disks[0].stats.read_ops == disks[1].stats.read_ops == 5


def test_raid10_stripes_across_pairs():
    array, disks = make_array(4)
    array.write(0, 128 * KIB, 0.0)   # two chunks -> two pairs
    assert [d.stats.write_ops for d in disks] == [1, 1, 1, 1]


def test_primary_storage_link_serializes():
    storage = PrimaryStorage(n_disks=4)
    t1 = storage.write(0, 10 * MIB, 0.0)
    assert t1 >= 10 * MIB / storage.link.bandwidth


def test_primary_storage_sequential_rate_capped_by_network():
    storage = PrimaryStorage(n_disks=8)
    now = 0.0
    total = 64 * MIB
    for off in range(0, total, 1 * MIB):
        now = storage.write(off, 1 * MIB, now)
    rate = mb_per_sec(total, now)
    assert rate <= 126   # 1 Gbps iSCSI ceiling
    assert rate >= 80


def test_primary_storage_flush_propagates():
    storage = PrimaryStorage(n_disks=2)
    end = storage.write(0, 1 * MIB, 0.0)
    assert storage.flush(0.0) > 0.0


# ------------------------------------------------------------------
# the origin's degraded mode: one disk per pair may go
# ------------------------------------------------------------------
def fail_stop(origin: PrimaryStorage, index: int) -> None:
    """The array finds the disk dead on its next I/O to it."""
    members = origin.array.members
    members[index] = FaultInjector(members[index],
                                   FaultPlan().fail_stop(at=0.0))


def test_origin_serves_from_the_surviving_half():
    origin = PrimaryStorage(n_disks=4)
    recorder = obs.ObsRecorder()
    obs.attach(origin, recorder)
    fail_stop(origin, 0)
    survivor = origin.disks[1]
    end = origin.write(0, 64 * KIB, 0.0)          # chunk 0: pair 0
    assert survivor.stats.write_ops == 1
    assert origin.array.health.state(0) is DeviceHealth.DEGRADED
    for i in range(4):          # the even half would take reads 1 and 3
        origin.read(0, 4 * KIB, end + i)
    assert survivor.stats.read_ops == 4
    assert [(e.device, e.member, e.old, e.new) for e in recorder.trace
            if isinstance(e, HealthTransition)] == [
        ("primary-raid10", 0, "healthy", "degraded")]


def test_origin_losing_both_halves_of_a_pair_raises():
    origin = PrimaryStorage(n_disks=4)
    fail_stop(origin, 0)
    fail_stop(origin, 1)
    origin.write(64 * KIB, 4 * KIB, 0.0)          # pair 1 still serves
    with pytest.raises(RaidDegradedError):
        origin.write(0, 4 * KIB, 0.0)
    with pytest.raises(RaidDegradedError):
        origin.read(0, 4 * KIB, 1.0)
    assert origin.array.health.state(1) is DeviceHealth.FAILED


def test_a_disk_failed_before_the_read_degrades_its_slot():
    """``fail()`` outside any I/O: the read that meets the dead disk
    records it, once, and is served by the other half."""
    origin = PrimaryStorage(n_disks=4)
    recorder = obs.ObsRecorder()
    obs.attach(origin, recorder)
    origin.disks[0].fail()
    origin.read(0, 4 * KIB, 0.0)                  # chunk 0: pair 0
    origin.read(0, 4 * KIB, 1.0)
    assert origin.disks[1].stats.read_ops == 2
    assert [origin.array.health.state(i) for i in range(4)] == [
        DeviceHealth.DEGRADED, DeviceHealth.HEALTHY,
        DeviceHealth.HEALTHY, DeviceHealth.HEALTHY]
    assert [(e.member, e.old, e.new) for e in recorder.trace
            if isinstance(e, HealthTransition)] == [
        (0, "healthy", "degraded")]


def test_a_pair_failed_before_the_read_fails_both_slots():
    origin = PrimaryStorage(n_disks=4)
    origin.disks[0].fail()
    origin.disks[1].fail()
    with pytest.raises(RaidDegradedError):
        origin.read(0, 4 * KIB, 0.0)
    assert [origin.array.health.state(i) for i in range(4)] == [
        DeviceHealth.FAILED, DeviceHealth.FAILED,
        DeviceHealth.HEALTHY, DeviceHealth.HEALTHY]


def near_oracle(disk: DiskDevice, offset: int) -> bool:
    """The locality verdict by definition: a recent head position
    within the sequential window of the offset."""
    window = disk.spec.sequential_window
    return any(abs(offset - pos) <= window for pos in disk._recent)


def test_positioning_matches_the_scan_oracle():
    """The bisect over the sorted view answers as a scan of the deque:
    seeded positions probed at exactly the window's edges and one past
    them, through hundreds of evictions, per-request and batched
    writes alike."""
    rng = random.Random(26)
    disk = DiskDevice()
    window = disk.spec.sequential_window
    space = 256 * window                  # sparse: edges decide alone
    verdicts, now = {True: 0, False: 0}, 0.0
    for step in range(400):
        if disk._recent:
            pos = rng.choice(list(disk._recent))
            for offset in (pos - window - 1, pos - window, pos + window,
                           pos + window + 1, rng.randrange(space)):
                if offset < 0:
                    continue
                near = near_oracle(disk, offset)
                verdicts[near] += 1
                cost = disk._positioning(offset, False)
                assert (cost == 0.0) == near, (step, offset)
        if step % 16 == 15:
            offs = np.array([rng.randrange(space) for _ in range(20)])
            lens = np.array([rng.choice([512, 4096, 64 * KIB])
                             for _ in range(20)])
            now = float(disk.submit_extents(Op.WRITE, offs, lens, now,
                                            IoOrigin.DESTAGE).max())
        else:
            now = disk.write(rng.randrange(space), rng.choice([512, 4096]),
                             now)
        assert disk._recent_sorted == sorted(disk._recent)
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_an_evicted_duplicate_leaves_its_twin_near():
    """Two writes ending at one position, the older evicted: the
    younger still counts as near until it is evicted too."""
    disk = DiskDevice()
    window, depth = disk.spec.sequential_window, disk.spec.recent_positions
    twin = 10 * GIB
    far = [(i + 1) * 50 * GIB for i in range(depth)]
    disk.write(twin - 4096, 4096, 0.0)
    disk.write(twin - 4096, 4096, 0.0)
    for offset in far[:depth - 1]:        # evicts the first twin only
        disk.write(offset, 4096, 0.0)
    assert list(disk._recent).count(twin) == 1
    probe = twin + window
    assert disk._positioning(probe, False) == 0.0
    disk.write(far[-1], 4096, 0.0)        # and now the second
    assert twin not in disk._recent_sorted
    assert disk._positioning(probe, False) > 0.0
