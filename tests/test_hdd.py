"""Mechanical disk and RAID-10 backend."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, mb_per_sec
from repro.hdd.backend import PrimaryStorage, Raid10Array
from repro.hdd.disk import DiskDevice, DiskSpec


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
# RAID-10
# ------------------------------------------------------------------
def make_array(n=4):
    disks = [DiskDevice(DiskSpec(capacity=1024 * MIB)) for _ in range(n)]
    return Raid10Array(disks, chunk_size=64 * KIB), disks


def test_raid10_capacity_is_half():
    array, disks = make_array(4)
    assert array.size == 2 * disks[0].size


def test_raid10_write_hits_both_mirrors():
    array, disks = make_array(2)
    array.write(0, 64 * KIB, 0.0)
    assert disks[0].stats.write_bytes == 64 * KIB
    assert disks[1].stats.write_bytes == 64 * KIB


def test_raid10_reads_balance_between_mirrors():
    array, disks = make_array(2)
    for i in range(10):
        array.read(0, 64 * KIB, float(i))
    assert disks[0].stats.read_ops > 0
    assert disks[1].stats.read_ops > 0


def test_raid10_stripes_across_pairs():
    array, disks = make_array(4)
    array.write(0, 128 * KIB, 0.0)   # two chunks -> two pairs
    assert disks[0].stats.write_ops == 1
    assert disks[2].stats.write_ops == 1


def test_raid10_odd_disk_count_rejected():
    disks = [DiskDevice() for _ in range(3)]
    with pytest.raises(ConfigError):
        Raid10Array(disks)


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


def test_positioning_scans_newest_position_first():
    """A sorted stream lands near the deque's newest entry: that hit
    costs one comparison, and every verdict equals an oldest-first
    scan's (``any`` does not care about order)."""
    from repro.common.types import Op, Request

    class Counted(int):
        subtractions = 0

        def __rsub__(self, other):
            Counted.subtractions += 1
            return int(other) - int(self)

    disk = DiskDevice()
    window = disk.spec.sequential_window
    disk._recent.extend(Counted(i * 100 * MIB) for i in range(32))
    newest = 31 * 100 * MIB
    assert disk._positioning(Request(Op.WRITE, newest + 4096, 4096)) == 0.0
    assert Counted.subtractions == 1
    for offset in (0, window, window + 1, 50 * MIB, 1500 * MIB + window,
                   newest - window - 1, newest + 2 * window):
        near = any(abs(offset - int(pos)) <= window for pos in disk._recent)
        cost = disk._positioning(Request(Op.READ, offset, 4096))
        assert (cost == 0.0) == near
