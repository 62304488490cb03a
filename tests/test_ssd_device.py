"""Timed SSD device: calibration envelopes, flush, TRIM, failures."""

import numpy as np
import pytest

from repro.common.errors import AddressError, DeviceFailedError
from repro.common.types import Op, Request
from repro.common.units import KIB, MIB, mb_per_sec
from repro.raid.array import Raid0Device
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.spec import SATA_MLC_128, SATA_TLC_128, NVME_MLC_400

from _stacks import TINY_SSD


def small_ssd(scale=1 / 256):
    return SSDDevice(SATA_MLC_128.scaled(scale))


def test_sequential_write_near_interface_bandwidth():
    ssd = small_ssd()
    now = 0.0
    total = 64 * MIB
    for offset in range(0, total, 512 * KIB):
        now = ssd.write(offset % ssd.size, 512 * KIB, now)
    rate = mb_per_sec(total, now)
    assert 300 <= rate <= 400   # spec SW = 390 MB/s


def test_sequential_read_near_interface_bandwidth():
    ssd = small_ssd()
    now = 0.0
    for offset in range(0, 16 * MIB, 512 * KIB):
        ssd.write(offset, 512 * KIB, now)
    start = 100.0
    now = start
    for offset in range(0, 16 * MIB, 512 * KIB):
        now = ssd.read(offset, 512 * KIB, now)
    rate = mb_per_sec(16 * MIB, now - start)
    assert 400 <= rate <= 540   # spec SR = 530 MB/s


def test_flush_costs_milliseconds():
    ssd = small_ssd()
    t1 = ssd.write(0, 4096, 0.0)
    t2 = ssd.flush(t1)
    assert t2 - t1 >= ssd.spec.flush_latency


def test_flush_waits_for_backlog_drain():
    ssd = small_ssd()
    now = 0.0
    for i in range(64):
        now = ssd.write(i * 512 * KIB, 512 * KIB, now)
    drain = ssd.nand.drain_time()
    done = ssd.flush(now)
    assert done >= drain


def test_fua_write_slower_than_buffered():
    ssd_a = small_ssd()
    ssd_b = small_ssd()
    buffered = ssd_a.write(0, 4096, 0.0)
    fua = ssd_b.write(0, 4096, 0.0, fua=True)
    assert fua > buffered


def test_steady_random_writes_slower_than_sequential():
    rng = np.random.default_rng(0)
    ssd = small_ssd()
    precondition(ssd, fill_fraction=1.0)
    now, total = 0.0, 0
    while total < ssd.size:
        off = int(rng.integers(0, ssd.size // 32768)) * 32768
        now = ssd.write(off, 32768, now)
        total += 32768
    random_rate = mb_per_sec(total, now)
    assert random_rate < 200   # far below the 390 MB/s sequential rate
    assert ssd.write_amplification > 1.5


def test_trim_restores_performance_headroom():
    ssd = small_ssd()
    precondition(ssd, fill_fraction=1.0)
    ssd.trim(0, ssd.size // 2, 0.0)
    assert ssd.ftl.utilization() < 0.6


def test_fail_stop():
    ssd = small_ssd()
    ssd.fail()
    with pytest.raises(DeviceFailedError):
        ssd.write(0, 4096, 0.0)
    ssd.repair()
    ssd.write(0, 4096, 0.0)   # works again


def test_repair_wipes_by_default():
    ssd = small_ssd()
    ssd.write(0, 4096, 0.0)
    ssd.fail()
    ssd.repair()
    assert ssd.ftl.read(0, 1).mapped_pages == 0


def test_corruption_injection_and_scrub():
    ssd = small_ssd()
    ssd.write(0, 16 * KIB, 0.0)
    ssd.inject_corruption(4096, 4096)
    assert ssd.corrupted_in(0, 16 * KIB) == {1}
    # Overwriting scrubs the corruption.
    ssd.write(4096, 4096, 1.0)
    assert not ssd.corrupted_in(0, 16 * KIB)


def test_corrupted_in_answers_by_range():
    """Every read hit asks; a clean drive answers without looking."""
    ssd = small_ssd()
    assert ssd.corrupted_in(0, 16 * KIB) == set()
    ssd.inject_corruption(4096, 8192)           # pages 1 and 2
    assert ssd.corrupted_in(0, 16 * KIB) == {1, 2}
    assert ssd.corrupted_in(0, 4096) == set()
    assert ssd.corrupted_in(6000, 100) == {1}   # unaligned, inside page 1
    assert ssd.corrupted_in(12 * KIB, 1 * MIB) == set()
    ssd.corrupted_in(0, 16 * KIB).clear()       # the caller's own set
    assert ssd.corrupted_in(0, 16 * KIB) == {1, 2}
    ssd.clear_corruption(0, 16 * KIB)
    mine = ssd.corrupted_in(0, 16 * KIB)
    mine.add(7)
    assert ssd.corrupted_in(0, 16 * KIB) == set()


def test_trim_clears_corruption():
    ssd = small_ssd()
    ssd.write(0, 4096, 0.0)
    ssd.inject_corruption(0, 4096)
    ssd.trim(0, 4096, 1.0)
    assert not ssd.corrupted_in(0, 4096)


def test_trim_unmaps_only_whole_pages():
    ssd = small_ssd()
    ssd.write(0, 12 * KIB, 0.0)                 # pages 0, 1, 2
    ssd.inject_corruption(0, 4096)
    done = ssd.trim(512, 512, 1.0)              # inside page 0: no page
    assert done > 1.0                           # the command still costs
    assert ssd.ftl.mapped_page_count == 3
    assert ssd.corrupted_in(0, 4096)            # page 0 is untouched
    ssd.trim(2048, 8192, 2.0)                   # [2 KiB, 10 KiB): page 1
    assert [ssd.ftl.read(p, 1).mapped_pages for p in range(3)] == [1, 0, 1]
    assert ssd.stats.trim_ops == 2


@pytest.mark.parametrize("through_raid0", [False, True],
                         ids=["bare", "raid0"])
def test_zero_length_request_is_command_only(through_raid0):
    """A zero-length READ / WRITE moves no data: no flash page is
    programmed, mapped, read or scrubbed, at any offset <= size."""
    ssds = [small_ssd(), small_ssd()]
    target = (Raid0Device(ssds, chunk_size=4 * KIB) if through_raid0
              else ssds[0])
    target.write(0, 8 * KIB, 0.0)               # one page per member
    ssds[0].inject_corruption(0, 4096)
    before = [(s.ftl.l2p.copy(), s.ftl.counters.host_pages_written,
               s.ftl.counters.host_pages_read) for s in ssds]
    for op in (Op.WRITE, Op.READ):
        for offset in (0, 4096, 100, target.size):
            assert target.submit(Request(op, offset, 0), 1.0) >= 1.0
    for ssd, (l2p, written, read) in zip(ssds, before):
        assert np.array_equal(ssd.ftl.l2p, l2p)
        assert ssd.ftl.counters.host_pages_written == written
        assert ssd.ftl.counters.host_pages_read == read
    assert ssds[0].corrupted_in(0, 4096)        # not an overwrite
    if not through_raid0:
        assert target.submit(Request(Op.WRITE, 0, 0), 2.0) > 2.0
    with pytest.raises(AddressError):
        target.submit(Request(Op.WRITE, target.size + 1, 0), 3.0)


def test_bytes_programmed_tracks_wear():
    ssd = small_ssd()
    ssd.write(0, 1 * MIB, 0.0)
    assert ssd.bytes_programmed >= 1 * MIB


def test_nvme_faster_than_sata():
    sata = SSDDevice(SATA_MLC_128.scaled(1 / 256))
    nvme = SSDDevice(NVME_MLC_400.scaled(1 / 256))
    t_sata = sata.write(0, 4 * MIB, 0.0)
    t_nvme = nvme.write(0, 4 * MIB, 0.0)
    assert t_nvme < t_sata


def test_tlc_program_bandwidth_below_mlc():
    assert SATA_TLC_128.nand_prog_bw < SATA_MLC_128.nand_prog_bw


def test_spec_scaling_preserves_bandwidth():
    scaled = SATA_MLC_128.scaled(1 / 64)
    assert scaled.interface_write_bw == SATA_MLC_128.interface_write_bw
    assert scaled.capacity == SATA_MLC_128.capacity // 64
    assert scaled.superblock_size == SATA_MLC_128.superblock_size // 64


def test_spec_scaling_rejects_bad_factor():
    with pytest.raises(Exception):
        SATA_MLC_128.scaled(0)
    with pytest.raises(Exception):
        SATA_MLC_128.scaled(2.0)


def test_precondition_fills_requested_fraction():
    ssd = SSDDevice(TINY_SSD)
    precondition(ssd, fill_fraction=0.5)
    assert ssd.ftl.mapped_page_count == pytest.approx(
        ssd.spec.logical_pages * 0.5, rel=0.02)
