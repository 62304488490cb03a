"""Software RAID levels: geometry, small-write behaviour, failures."""

import pytest

from repro.block.device import NullDevice
from repro.common.errors import ConfigError, RaidDegradedError
from repro.common.units import KIB
from repro.faults import FaultInjector, FaultPlan
from repro.raid.array import (Raid0Device, Raid1Device, Raid4Device,
                              Raid5Device, make_raid)
from repro.repair import DeviceHealth


class FailableNull(NullDevice):
    """Null device with a fail-stop flag, standing in for an SSD."""

    def __init__(self, size, name="m"):
        super().__init__(size, name=name)
        self.failed = False


def members(n=4, size=1024 * KIB):
    return [FailableNull(size, name=f"m{n_}") for n_ in range(n)]


# ------------------------------------------------------------------
# capacities
# ------------------------------------------------------------------
def test_raid0_capacity():
    assert Raid0Device(members(4)).size == 4 * 1024 * KIB


def test_raid1_capacity():
    assert Raid1Device(members(4)).size == 2 * 1024 * KIB


def test_raid5_capacity():
    assert Raid5Device(members(4)).size == 3 * 1024 * KIB


def test_member_minimums():
    with pytest.raises(ConfigError):
        Raid0Device(members(1))
    with pytest.raises(ConfigError):
        Raid1Device(members(3))
    with pytest.raises(ConfigError):
        Raid5Device(members(2))


def test_make_raid_factory():
    for level, cls in ((0, Raid0Device), (1, Raid1Device),
                       (4, Raid4Device), (5, Raid5Device)):
        assert isinstance(make_raid(level, members(4)), cls)
    with pytest.raises(ConfigError):
        make_raid(6, members(4))


# ------------------------------------------------------------------
# striping
# ------------------------------------------------------------------
def test_raid0_spreads_chunks():
    devs = members(4)
    array = Raid0Device(devs, chunk_size=4 * KIB)
    array.write(0, 16 * KIB, 0.0)   # 4 chunks -> one per member
    assert all(d.stats.write_ops == 1 for d in devs)


def test_raid1_mirrors_writes():
    devs = members(2)
    array = Raid1Device(devs, chunk_size=4 * KIB)
    array.write(0, 4 * KIB, 0.0)
    assert devs[0].stats.write_bytes == devs[1].stats.write_bytes == 4 * KIB


def test_raid1_read_goes_to_one_mirror():
    devs = members(2)
    array = Raid1Device(devs, chunk_size=4 * KIB)
    array.read(0, 4 * KIB, 0.0)
    assert devs[0].stats.read_ops + devs[1].stats.read_ops == 1


# ------------------------------------------------------------------
# parity small writes
# ------------------------------------------------------------------
def test_raid5_small_write_does_rmw():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    array.write(0, 4 * KIB, 0.0)
    total_reads = sum(d.stats.read_ops for d in devs)
    total_writes = sum(d.stats.write_ops for d in devs)
    assert total_reads == 2    # old data + old parity
    assert total_writes == 2   # new data + new parity
    assert array.rmw_reads == 2
    assert array.parity_writes == 1


def test_raid5_full_stripe_write_skips_rmw():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    array.write(0, 12 * KIB, 0.0)   # 3 data chunks = full stripe
    assert sum(d.stats.read_ops for d in devs) == 0
    assert sum(d.stats.write_ops for d in devs) == 4   # 3 data + parity


def test_raid5_reconstruct_write_when_cheaper():
    devs = members(6)   # 5 data + parity per stripe
    array = Raid5Device(devs, chunk_size=4 * KIB)
    # Writing 4 of 5 chunks: reconstruct-write reads the single
    # untouched chunk instead of 4 olds + parity.
    array.write(0, 16 * KIB, 0.0)
    assert sum(d.stats.read_ops for d in devs) == 1


def test_raid4_parity_fixed_on_last_member():
    devs = members(4)
    array = Raid4Device(devs, chunk_size=4 * KIB)
    for stripe in range(3):
        array.write(stripe * 12 * KIB, 12 * KIB, 0.0)
    # All parity writes landed on the last member.
    assert devs[3].stats.write_ops == 3


def test_raid5_parity_rotates():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    assert len({array._parity_member(s) for s in range(4)}) == 4


# ------------------------------------------------------------------
# degraded operation
# ------------------------------------------------------------------
def test_raid5_degraded_read_reconstructs():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    array.write(0, 12 * KIB, 0.0)
    victim = array._data_member(0, 0)
    devs[victim].failed = True
    array.read(0, 4 * KIB, 1.0)
    reads = sum(d.stats.read_ops for d in devs if d is not devs[victim])
    assert reads >= 3   # all survivors contribute


def test_raid5_two_failures_fatal():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    devs[0].failed = True
    devs[1].failed = True
    with pytest.raises(RaidDegradedError):
        array.read(0, 4 * KIB, 0.0)


def test_raid1_survives_one_mirror():
    devs = members(2)
    array = Raid1Device(devs, chunk_size=4 * KIB)
    array.write(0, 4 * KIB, 0.0)
    devs[0].failed = True
    array.read(0, 4 * KIB, 1.0)
    array.write(0, 4 * KIB, 2.0)


def test_raid1_both_mirrors_down_fatal():
    devs = members(2)
    array = Raid1Device(devs, chunk_size=4 * KIB)
    devs[0].failed = True
    devs[1].failed = True
    with pytest.raises(RaidDegradedError):
        array.read(0, 4 * KIB, 0.0)


def test_flush_skips_failed_members():
    devs = members(4)
    array = Raid5Device(devs, chunk_size=4 * KIB)
    devs[0].failed = True
    array.flush(0.0)
    assert devs[0].stats.flush_ops == 0
    assert devs[1].stats.flush_ops == 1


# ------------------------------------------------------------------
# slot health: HEALTHY -> DEGRADED -> FAILED
# ------------------------------------------------------------------
@pytest.mark.parametrize("cls", [Raid5Device, Raid1Device],
                         ids=["second-parity-member", "both-mirror-halves"])
def test_losing_the_covering_copy_fails_the_slot(cls):
    array = cls(members(4), chunk_size=4 * KIB)

    def fail_stop(index):   # the array finds out on its next I/O
        array.members[index] = FaultInjector(
            array.members[index], FaultPlan().fail_stop(at=0.0),
            name=f"f{index}")

    fail_stop(0)
    array.write(0, 12 * KIB, 1.0)           # absorbed: degraded write
    assert array.health.state(0) is DeviceHealth.DEGRADED
    fail_stop(1)                            # RAID-1: the other half of 0
    with pytest.raises(RaidDegradedError):
        array.write(0, 12 * KIB, 2.0)
    # Nothing covers slot 1 any more: it passes through DEGRADED.
    assert [(t.member, t.new) for t in array.health.history] == [
        (0, DeviceHealth.DEGRADED),
        (1, DeviceHealth.DEGRADED), (1, DeviceHealth.FAILED)]
    assert array.health.state(2) is DeviceHealth.HEALTHY
