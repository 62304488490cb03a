"""Differential test: the FTL's scalar and vector paths are identical.

Drives the same operation sequence through two FTLs — one forced onto
the element-wise scalar path, one forced onto the numpy vector path —
and asserts bit-identical mapping tables, counters and GC decisions
after every operation.  This is the contract that lets the scalar
fast path exist at all: it is an implementation detail, never a
behaviour change.

The second half extends the same contract one layer up: the batched
device submission path (``PageMappedFtl.write_batch`` and
``SSDDevice.submit_chunk``) against a per-request scalar loop, through
GC-heavy fills, wear leveling, finite deadlines and injected faults.
"""

import numpy as np
import pytest

from repro.common.chunks import make_chunk
from repro.common.errors import AddressError, DeviceFailedError
from repro.common.types import Op, Request
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.ftl import PageMappedFtl

from _stacks import TINY_SSD

LOGICAL = 2048
PHYSICAL = 3072
SB_PAGES = 128

ALWAYS_VECTOR = 0          # npages <= 0 never holds
ALWAYS_SCALAR = 10 ** 9    # npages <= 1e9 always holds


def make_pair(**kwargs):
    scalar = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                           scalar_threshold=ALWAYS_SCALAR, **kwargs)
    vector = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                           scalar_threshold=ALWAYS_VECTOR, **kwargs)
    return scalar, vector


def assert_same_state(scalar: PageMappedFtl, vector: PageMappedFtl):
    assert np.array_equal(scalar.l2p, vector.l2p), "l2p diverged"
    assert np.array_equal(scalar.p2l, vector.p2l), "p2l diverged"
    assert np.array_equal(scalar.valid_count, vector.valid_count)
    assert np.array_equal(scalar.is_closed, vector.is_closed)
    assert np.array_equal(scalar.erase_count, vector.erase_count)
    assert scalar._free == vector._free, "free lists diverged"
    assert scalar._open_sb == vector._open_sb
    assert scalar._wp == vector._wp
    assert scalar.mapped_page_count == vector.mapped_page_count
    c_s, c_v = scalar.counters, vector.counters
    assert c_s.host_pages_written == c_v.host_pages_written
    assert c_s.host_pages_read == c_v.host_pages_read
    assert c_s.gc_pages_copied == c_v.gc_pages_copied
    assert c_s.superblock_erases == c_v.superblock_erases
    assert c_s.trimmed_pages == c_v.trimmed_pages


def random_ops(seed: int, count: int):
    """Mixed op sequence: small/large writes, trims, reads.

    Sizes cross the scalar threshold in both directions and overwrite
    hot ranges so GC runs (the GC-heavy fill the differential must
    cover: identical victim picks and relocations).
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        kind = rng.choice(["write", "write", "write", "trim", "read"])
        if rng.random() < 0.7:
            npages = int(rng.integers(1, 9))            # 1-8 page ops
        else:
            npages = int(rng.integers(9, 2 * SB_PAGES))  # spans SBs
        # Hot range: 0..LOGICAL//4 gets most traffic, so lifetimes mix
        # within superblocks and GC finds partially-valid victims.
        if rng.random() < 0.6:
            lpn = int(rng.integers(0, LOGICAL // 4 - npages))
        else:
            lpn = int(rng.integers(0, LOGICAL - npages))
        ops.append((kind, lpn, npages))
    return ops


def apply_op(ftl: PageMappedFtl, op):
    kind, lpn, npages = op
    if kind == "write":
        return ftl.write(lpn, npages)
    if kind == "trim":
        return ftl.trim(lpn, npages)
    return ftl.read(lpn, npages)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scalar_and_vector_paths_identical(seed):
    scalar, vector = make_pair()
    for op in random_ops(seed, 400):
        res_s = apply_op(scalar, op)
        res_v = apply_op(vector, op)
        assert res_s == res_v, f"op results diverged on {op}"
        assert_same_state(scalar, vector)
    # Invariants hold on both ends (mapped counter, p2l inverse, ...).
    scalar.check_invariants()
    vector.check_invariants()


def test_gc_heavy_fill_identical():
    # Sequential fill then tight hot-range overwrites: forces repeated
    # GC with relocations; victim choice and log-head moves must match.
    scalar, vector = make_pair()
    scalar.write(0, LOGICAL)
    vector.write(0, LOGICAL)
    assert_same_state(scalar, vector)
    rng = np.random.default_rng(99)
    for _ in range(600):
        npages = int(rng.integers(1, 17))
        lpn = int(rng.integers(0, 256 - npages))
        res_s = scalar.write(lpn, npages)
        res_v = vector.write(lpn, npages)
        assert res_s == res_v
        assert_same_state(scalar, vector)
    assert scalar.counters.superblock_erases > 0, "GC never ran"
    scalar.check_invariants()
    vector.check_invariants()


def test_trim_then_rewrite_identical():
    scalar, vector = make_pair()
    for ftl in (scalar, vector):
        ftl.write(0, 512)
        ftl.trim(100, 5)       # scalar-size trim
        ftl.trim(200, 200)     # vector-size trim
        ftl.write(100, 5)
        ftl.write(150, 300)
    assert_same_state(scalar, vector)
    scalar.check_invariants()
    vector.check_invariants()


def test_wear_leveling_identical():
    scalar, vector = make_pair(wear_level_threshold=4)
    scalar.write(0, LOGICAL)
    vector.write(0, LOGICAL)
    rng = np.random.default_rng(5)
    for _ in range(800):
        npages = int(rng.integers(1, 9))
        lpn = int(rng.integers(0, 128 - npages))
        scalar.write(lpn, npages)
        vector.write(lpn, npages)
    assert_same_state(scalar, vector)
    assert scalar.wear_level_moves == vector.wear_level_moves
    scalar.check_invariants()
    vector.check_invariants()


def test_default_threshold_routes_small_ops_scalar():
    # Sanity on the dispatch itself: a default-threshold FTL matches
    # both forced paths on a mixed sequence.
    default = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES)
    scalar, vector = make_pair()
    for op in random_ops(7, 300):
        res_d = apply_op(default, op)
        res_s = apply_op(scalar, op)
        res_v = apply_op(vector, op)
        assert res_d == res_s == res_v
    assert_same_state(scalar, vector)
    assert np.array_equal(default.l2p, vector.l2p)
    assert np.array_equal(default.p2l, vector.p2l)
    assert default.mapped_page_count == vector.mapped_page_count
    default.check_invariants()


# ----------------------------------------------------------------------
# write_batch: the batched device path's FTL entry vs a scalar loop
# ----------------------------------------------------------------------
def _scalar_write_loop(ftl: PageMappedFtl, lpns: np.ndarray):
    """The oracle: one write(lp, 1) per element, costs collected."""
    gc_read = np.zeros(lpns.size, dtype=np.int64)
    gc_prog = np.zeros(lpns.size, dtype=np.int64)
    erases = np.zeros(lpns.size, dtype=np.int64)
    for i, lp in enumerate(lpns.tolist()):
        res = ftl.write(lp, 1)
        gc_read[i] = res.gc_read_pages
        gc_prog[i] = res.gc_prog_pages
        erases[i] = res.erases
    return gc_read, gc_prog, erases


def _hot_batches(seed: int, count: int, size: int, span: int):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, span, size=size).astype(np.int64)
            for _ in range(count)]


@pytest.mark.parametrize("threshold", [ALWAYS_SCALAR, ALWAYS_VECTOR])
def test_write_batch_matches_scalar_write_loop(threshold):
    """GC-heavy fill: write_batch (both of its internal run paths) must
    replay the scalar per-page loop exactly, including which op in the
    batch pays each GC bill."""
    oracle = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES)
    batched = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                            scalar_threshold=threshold)
    fill = np.arange(LOGICAL, dtype=np.int64)
    _scalar_write_loop(oracle, fill)
    batched.write_batch(fill)
    for lpns in _hot_batches(21, 10, 512, LOGICAL // 4):
        costs_s = _scalar_write_loop(oracle, lpns)
        costs_b = batched.write_batch(lpns)
        for arr_s, arr_b in zip(costs_s, costs_b):
            assert np.array_equal(arr_s, arr_b), "GC costs diverged"
    assert oracle.counters.superblock_erases > 0, "GC never ran"
    assert_same_state(oracle, batched)
    oracle.check_invariants()
    batched.check_invariants()


def test_write_batch_duplicate_lpns_in_run_identical():
    """Heavy duplication inside a single superblock run exercises the
    first/last-occurrence handling (last write wins the mapping, the
    earlier programs are immediately dead)."""
    oracle = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES)
    batched = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                            scalar_threshold=ALWAYS_VECTOR)
    rng = np.random.default_rng(31)
    for _ in range(30):
        lpns = rng.integers(0, 48, size=100).astype(np.int64)
        _scalar_write_loop(oracle, lpns)
        batched.write_batch(lpns)
        assert_same_state(oracle, batched)
    oracle.check_invariants()
    batched.check_invariants()


def test_write_batch_wear_leveling_identical():
    oracle = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                           wear_level_threshold=4)
    batched = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES,
                            scalar_threshold=ALWAYS_VECTOR,
                            wear_level_threshold=4)
    fill = np.arange(LOGICAL, dtype=np.int64)
    _scalar_write_loop(oracle, fill)
    batched.write_batch(fill)
    for lpns in _hot_batches(37, 16, 400, 128):
        _scalar_write_loop(oracle, lpns)
        batched.write_batch(lpns)
    assert_same_state(oracle, batched)
    assert oracle.wear_level_moves == batched.wear_level_moves
    assert oracle.wear_level_moves > 0, "wear leveling never triggered"
    oracle.check_invariants()
    batched.check_invariants()


def test_write_batch_out_of_range_raises_without_mutation():
    """Mid-batch address fault: the whole range is validated up front,
    so a bad LPN anywhere in the batch leaves the FTL untouched."""
    ftl = PageMappedFtl(LOGICAL, PHYSICAL, SB_PAGES)
    ftl.write_batch(np.arange(256, dtype=np.int64))
    l2p = ftl.l2p.copy()
    p2l = ftl.p2l.copy()
    written = ftl.counters.host_pages_written
    bad = np.array([1, 2, LOGICAL + 5, 3], dtype=np.int64)
    with pytest.raises(AddressError):
        ftl.write_batch(bad)
    with pytest.raises(AddressError):
        ftl.write_batch(np.array([-1, 0], dtype=np.int64))
    assert np.array_equal(ftl.l2p, l2p)
    assert np.array_equal(ftl.p2l, p2l)
    assert ftl.counters.host_pages_written == written
    ftl.check_invariants()


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
    assert_same_state(a.ftl, b.ftl)
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
