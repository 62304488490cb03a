"""Timed SSD device: calibration envelopes, flush, TRIM, failures, and
``submit_chunk`` against a per-request ``submit`` loop."""

import numpy as np
import pytest

from repro.common.chunks import make_chunk
from repro.common.errors import AddressError, DeviceFailedError
from repro.common.types import Op, Request
from repro.common.units import KIB, MIB, mb_per_sec
from repro.raid.array import Raid0Device
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.ftl import NO_PAGE
from repro.ssd.spec import SATA_MLC_128, SATA_TLC_128, NVME_MLC_400

from _stacks import TINY_SSD
from test_write_extents import ftl_state


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
    assert ssd.ftl.mapped_page_count == 0


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
    assert (ssd.ftl.l2p[:3] != NO_PAGE).tolist() == [True, False, True]
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


# ----------------------------------------------------------------------
# SSDDevice.submit_chunk vs per-request submit (timed device layer)
# ----------------------------------------------------------------------
def _make_ssd(fill: float = 0.9) -> SSDDevice:
    ssd = SSDDevice(TINY_SSD)
    precondition(ssd, fill_fraction=fill)
    return ssd


def _drive_scalar(ssd: SSDDevice, offsets, start=0.0, think=0.0,
                  deadline=float("inf")):
    page = ssd.spec.page_size
    t, issues, dones = start, [], []
    for off in offsets.tolist():
        if t >= deadline:
            break
        done = ssd.submit(Request(Op.WRITE, off, page), t)
        issues.append(t)
        dones.append(done)
        t = done + think
    return np.array(issues), np.array(dones)


def _drive_batched(ssd: SSDDevice, offsets, start=0.0, think=0.0,
                   deadline=float("inf")):
    page = ssd.spec.page_size
    rows = make_chunk(offsets, page)
    issues, dones = [], []
    t, pos, n = start, 0, rows.shape[0]
    while pos < n and t < deadline:
        i, d, k = ssd.submit_chunk(rows[pos:], t, think, deadline, 0)
        if k:
            issues.append(i)
            dones.append(d)
            pos += k
            t = float(d[-1]) + think
        else:          # declined: the scalar oracle serves the head row
            off = int(rows[pos]["offset"])
            done = ssd.submit(Request(Op.WRITE, off, page), t)
            issues.append(np.array([t]))
            dones.append(np.array([done]))
            pos += 1
            t = done + think
    if not issues:
        return np.array([]), np.array([])
    return np.concatenate(issues), np.concatenate(dones)


def _assert_ssd_state_equal(a: SSDDevice, b: SSDDevice):
    assert ftl_state(a.ftl) == ftl_state(b.ftl)
    assert a.stats == b.stats
    assert a.link.bytes_moved == b.link.bytes_moved
    assert a.link._timeline._free == b.link._timeline._free
    assert a.link._timeline.busy_time == b.link._timeline.busy_time
    assert a.nand._free == b.nand._free
    assert a.nand.busy_time == b.nand.busy_time
    assert a.qstats.submissions == b.qstats.submissions


def _random_page_offsets(ssd: SSDDevice, n: int, seed: int):
    rng = np.random.default_rng(seed)
    page = ssd.spec.page_size
    slots = int(ssd.size * 0.9) // page
    return rng.integers(0, slots, size=n) * page


def test_ssd_submit_chunk_bit_identical_through_gc_storm():
    """Preconditioned drive + uniform overwrites: every batched window
    crosses superblock rolls, so victim picks, relocation costs and the
    link/NAND recurrence must all replay the scalar path exactly."""
    scalar, batched = _make_ssd(), _make_ssd()
    offsets = _random_page_offsets(scalar, 20000, seed=51)
    i_s, d_s = _drive_scalar(scalar, offsets)
    i_b, d_b = _drive_batched(batched, offsets)
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    assert scalar.ftl.counters.superblock_erases > 0, "GC never ran"
    _assert_ssd_state_equal(scalar, batched)
    scalar.ftl.check_invariants()
    batched.ftl.check_invariants()


def test_ssd_submit_chunk_bit_identical_with_wear_leveling():
    scalar, batched = _make_ssd(), _make_ssd()
    for ssd in (scalar, batched):
        ssd.ftl.wear_level_threshold = 4
    rng = np.random.default_rng(52)
    page = scalar.spec.page_size
    offsets = rng.integers(0, 256, size=16000) * page   # tight hot range
    i_s, d_s = _drive_scalar(scalar, offsets)
    i_b, d_b = _drive_batched(batched, offsets)
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_ssd_state_equal(scalar, batched)
    assert scalar.ftl.wear_level_moves == batched.ftl.wear_level_moves
    assert scalar.ftl.wear_level_moves > 0


def test_ssd_submit_chunk_finite_deadline_identical():
    """A deadline that cuts windows mid-prefix drives the row-by-row FTL
    branch; the served prefix must still match the scalar loop."""
    scalar, batched = _make_ssd(), _make_ssd()
    offsets = _random_page_offsets(scalar, 4000, seed=53)
    page_cost = scalar.spec.page_size / scalar.spec.nand_prog_bw
    deadline = 700 * page_cost      # lands mid-run, mid-superblock
    i_s, d_s = _drive_scalar(scalar, offsets, deadline=deadline)
    i_b, d_b = _drive_batched(batched, offsets, deadline=deadline)
    assert 0 < i_s.size < offsets.size, "deadline never cut the run"
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_ssd_state_equal(scalar, batched)


def test_ssd_submit_chunk_mid_run_fail_stop_identical():
    """Fault injected mid-run: both paths serve the same prefix, raise
    the same error on the faulted op, and resume identically after
    repair (no wipe, so the mapping survives)."""
    scalar, batched = _make_ssd(), _make_ssd()
    offsets = _random_page_offsets(scalar, 6000, seed=54)
    head, tail = offsets[:3000], offsets[3000:]
    i_s, d_s = _drive_scalar(scalar, head)
    i_b, d_b = _drive_batched(batched, head)
    assert np.array_equal(d_s, d_b)
    for ssd in (scalar, batched):
        ssd.fail()
    # The batched window declines on a failed drive; the scalar oracle
    # it falls back to raises — exactly what per-request submission does.
    _, _, n = batched.submit_chunk(make_chunk(tail[:8],
                                              batched.spec.page_size),
                                   1.0, 0.0, float("inf"), 0)
    assert n == 0
    page = scalar.spec.page_size
    for ssd in (scalar, batched):
        with pytest.raises(DeviceFailedError):
            ssd.submit(Request(Op.WRITE, int(tail[0]), page), 1.0)
    for ssd in (scalar, batched):
        ssd.repair(wipe=False)
    t0 = float(d_s[-1])
    i_s2, d_s2 = _drive_scalar(scalar, tail, start=t0)
    i_b2, d_b2 = _drive_batched(batched, tail, start=t0)
    assert np.array_equal(i_s2, i_b2)
    assert np.array_equal(d_s2, d_b2)
    _assert_ssd_state_equal(scalar, batched)


def test_ssd_submit_chunk_scrubs_armed_corruption():
    """A chunk over latent-corrupted pages is per-request submission:
    every row is served and each overwrite scrubs its page."""
    scalar, batched = _make_ssd(), _make_ssd()
    page = scalar.spec.page_size
    offsets = _random_page_offsets(scalar, 2000, seed=55)
    for ssd in (scalar, batched):
        for off in offsets[::7].tolist():
            ssd.inject_corruption(off, page)
    i_s, d_s = _drive_scalar(scalar, offsets)
    i_b, d_b, n = batched.submit_chunk(make_chunk(offsets, page), 0.0, 0.0,
                                       float("inf"), 0)
    assert n == offsets.size
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_ssd_state_equal(scalar, batched)
    assert not batched.corrupted_in(0, batched.size)


def test_ssd_submit_chunk_inflight_queue_at_window_start_identical():
    """A burst still outstanding when the window opens fills the
    command queue, so admission delays rows mid-window; the chunk
    serves them all and queues exactly as per-request submission."""
    scalar, batched = _make_ssd(), _make_ssd()
    page = scalar.spec.page_size
    offsets = _random_page_offsets(scalar, 3000, seed=56)
    depth = scalar.queue_depth
    burst, rest = offsets[:2 * depth], offsets[2 * depth:]
    for ssd in (scalar, batched):
        for off in burst.tolist():
            ssd.submit(Request(Op.WRITE, off, page), 0.0)
        assert ssd.outstanding(0.0) == depth
    i_s, d_s = _drive_scalar(scalar, rest)
    i_b, d_b, n = batched.submit_chunk(make_chunk(rest, page), 0.0, 0.0,
                                       float("inf"), 0)
    assert n == rest.size
    assert np.array_equal(i_s, i_b)
    assert np.array_equal(d_s, d_b)
    _assert_ssd_state_equal(scalar, batched)
    assert scalar.qstats.as_dict() == batched.qstats.as_dict()
    assert batched.qstats.queued_ops > depth, "no window row waited"
    assert scalar._inflight == batched._inflight


# ----------------------------------------------------------------------
# submit_read_fast: the lean READ entry against submit(Request(READ))
# ----------------------------------------------------------------------
def _read_state(ssd) -> dict:
    """Everything a READ touches, as plain values."""
    return {"stats": ssd.stats.as_dict(), "qstats": ssd.qstats.as_dict(),
            "inflight": sorted(ssd._inflight),
            "ftl": ftl_state(ssd.ftl)["counters"],
            "nand_reads": (ssd.nand_reads._free, ssd.nand_reads.busy_time),
            "nand": (ssd.nand._free, ssd.nand.busy_time),
            "read_link": (ssd.read_link._timeline._free,
                          ssd.read_link._timeline.busy_time,
                          ssd.read_link.bytes_moved)}


def _read_twins():
    """Two identical drives holding the same data, writes still draining
    (the program backlog shares nothing with host reads but the queue)."""
    twins = SSDDevice(TINY_SSD), SSDDevice(TINY_SSD)
    for ssd in twins:
        for block in range(256):
            ssd.submit_write_fast(block * 4 * KIB, 4 * KIB, block * 1e-6)
    return twins


def test_submit_read_fast_is_submit():
    """Reads of every size, aligned or not, at rising times, as one
    ``submit`` each and as ``submit_read_fast``: the same done times,
    counters, queue and pipelines."""
    generic, lean = _read_twins()
    rng = np.random.default_rng(7)
    now = 0.0
    for _ in range(500):
        offset = int(rng.integers(0, 1 * MIB))
        length = int(rng.choice([0, 512, 4 * KIB, 4 * KIB, 16 * KIB,
                                 9000, 128 * KIB]))
        done = generic.submit(Request(Op.READ, offset, length), now)
        assert lean.submit_read_fast(offset, length, now) == done
        now += float(rng.exponential(20e-6))
    assert _read_state(lean) == _read_state(generic)
    assert lean.stats.read_ops == 500


def test_submit_read_fast_queues_as_submit():
    """A burst past the queue depth at one instant: admission waits for
    the earliest completion, exactly as ``submit`` queues."""
    generic, lean = _read_twins()
    depth, queued = generic.queue_depth, generic.qstats.queued_ops
    for i in range(3 * depth):
        offset = (i * 37 % 256) * 4 * KIB
        done = generic.submit(Request(Op.READ, offset, 4 * KIB), 1e-3)
        assert lean.submit_read_fast(offset, 4 * KIB, 1e-3) == done
        assert lean.outstanding(1e-3) == generic.outstanding(1e-3)
    assert _read_state(lean) == _read_state(generic)
    assert lean.qstats.queued_ops - queued >= 2 * depth


def test_submit_read_fast_on_a_failed_drive_is_submit():
    """A failed drive counts and admits the read, then raises."""
    generic, lean = _read_twins()
    for ssd in (generic, lean):
        ssd.fail()
    with pytest.raises(DeviceFailedError):
        generic.submit(Request(Op.READ, 0, 4 * KIB), 1e-3)
    with pytest.raises(DeviceFailedError):
        lean.submit_read_fast(0, 4 * KIB, 1e-3)
    assert _read_state(lean) == _read_state(generic)


def test_submit_write_fast_on_a_failed_drive_is_submit():
    """A failed drive counts and admits the write, then raises."""
    generic, lean = _read_twins()
    for ssd in (generic, lean):
        ssd.fail()
    with pytest.raises(DeviceFailedError):
        generic.submit(Request(Op.WRITE, 0, 4 * KIB), 1e-3)
    with pytest.raises(DeviceFailedError):
        lean.submit_write_fast(0, 4 * KIB, 1e-3)
    assert _read_state(lean) == _read_state(generic)
    assert lean.stats.write_ops == 257


def test_submit_flush_fast_on_a_failed_drive_is_submit():
    """A failed drive counts and admits the FLUSH, then raises."""
    generic, lean = _read_twins()
    for ssd in (generic, lean):
        ssd.fail()
    with pytest.raises(DeviceFailedError):
        generic.submit(Request(Op.FLUSH, 0, 0), 1e-3)
    with pytest.raises(DeviceFailedError):
        lean.submit_flush_fast(1e-3)
    assert _read_state(lean) == _read_state(generic)
    assert lean.stats.flush_ops == 1


# ----------------------------------------------------------------------
# _write's inline link and NAND timing against the Timeline calls
# ----------------------------------------------------------------------
def _write_by_acquire(ssd, offset, length, fua, now):
    """``SSDDevice._write`` through ``Link.transfer`` and
    ``Timeline.acquire``, with ``_nand_cost`` for every write."""
    if not length:
        return ssd._command_only(now)
    page = ssd.spec.page_size
    first = offset // page
    result = ssd.ftl.write(first,
                           (offset + length + page - 1) // page - first)
    if ssd._corrupted_pages:
        ssd.clear_corruption(offset, length)
    xfer_begin, xfer_end = ssd.link.transfer(now, length)
    _, nand_end = ssd.nand.acquire(xfer_begin, ssd._nand_cost(
        result.host_pages, result.gc_read_pages, result.gc_prog_pages,
        result.erases))
    nand_end = max(nand_end, xfer_end)
    if fua:
        return ssd.nand.acquire(nand_end, ssd.spec.flush_latency)[1]
    return max(xfer_end, nand_end - ssd._buffer_slack)


def _timing_state(ssd) -> dict:
    return {"link": (ssd.link._timeline._free, ssd.link._timeline.busy_time,
                     ssd.link.bytes_moved),
            "nand": (ssd.nand._free, ssd.nand.busy_time),
            "ftl": ftl_state(ssd.ftl),
            "corrupted": sorted(ssd._corrupted_pages)}


def test_write_timing_is_link_transfer_and_nand_acquire():
    """Writes of every size, FUA and zero-length ones among them, over a
    preconditioned drive until GC rolls superblocks, onto injected
    corruption: the same done times, timelines and bytes as the calls."""
    inline, reference = SSDDevice(TINY_SSD), SSDDevice(TINY_SSD)
    for ssd in (inline, reference):
        precondition(ssd)
        ssd.inject_corruption(8 * KIB, 64 * KIB)
    rng = np.random.default_rng(11)
    now, fua_writes, empty = 0.0, 0, 0
    for i in range(3000):
        length = int(rng.choice([0, 512, 4 * KIB, 4 * KIB, 9000, 64 * KIB,
                                 rng.integers(1, 64 * KIB)]))
        offset = int(rng.integers(0, inline.size - 64 * KIB))
        if i == 0:                      # onto the corrupted range
            offset, length = 4 * KIB, 32 * KIB
        fua = rng.random() < 0.05
        fua_writes += fua and length > 0
        empty += not length
        done = inline._write(offset, length, fua, now)
        assert _write_by_acquire(reference, offset, length, fua, now) == done
        if i == 0:                      # pages 2-8 scrubbed, 9-17 kept
            assert inline._corrupted_pages == set(range(9, 18))
        # Mostly a backlog; now and then the NAND idles, so the link's
        # begin decides when programming starts.
        now += float(rng.exponential(30e-6 if i % 8 else 3e-3))
    assert _timing_state(inline) == _timing_state(reference)
    assert inline.ftl.counters.gc_pages_copied > 0, "no GC roll"
    assert fua_writes and empty
