"""WRITE batches: ``PageMappedFtl.write_extents`` and the SSD's
``submit_extents(Op.WRITE, ...)`` against the loops they replace.

``write`` per extent is the FTL's oracle and ``BlockDevice.submit_extents``
(the loop over ``submit``) the device's.  Twins take the same batches,
one through the batch and one through the loop, and must agree on every
cost, completion time and piece of state — the maps included, since a
write moves them.
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.block.device import BlockDevice
from repro.common.errors import AddressError, DeviceFailedError
from repro.common.types import IoOrigin, Op
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.ssd.device import SSDDevice
from repro.ssd.ftl import PageMappedFtl

from _stacks import TINY_SSD

SBP = 64                       # pages per superblock
UNIT = 256 * KIB


# ----------------------------------------------------------------------
# PageMappedFtl.write_extents
# ----------------------------------------------------------------------
def aged_ftl(seed: int = 0) -> PageMappedFtl:
    """Every logical page written once, then churned by small random
    writes, so each roll collects a partly valid victim."""
    ftl = PageMappedFtl(logical_pages=2048, physical_pages=2560,
                        superblock_pages=SBP)
    for lpn in range(0, 2048, 128):
        ftl.write(lpn, 128)
    rng = np.random.default_rng(seed)
    for lpn in rng.integers(0, 2040, size=600).tolist():
        ftl.write(lpn, int(rng.integers(1, 8)))
    return ftl


def ftl_state(ftl: PageMappedFtl) -> dict:
    return {"l2p": ftl.l2p.tolist(), "p2l": ftl.p2l.tolist(),
            "valid": ftl.valid_count.tolist(),
            "closed": ftl.is_closed.tolist(),
            "erases": ftl.erase_count.tolist(), "free": list(ftl._free),
            "head": (ftl._open_sb, ftl._wp, ftl._mapped),
            "counters": asdict(ftl.counters)}


def per_extent(ftl: PageMappedFtl, lpns, npages) -> list:
    """The oracle: ``write`` per extent, its costs as columns."""
    costs = [ftl.write(int(lpn), int(n)) for lpn, n in zip(lpns, npages)]
    return [[c.gc_read_pages for c in costs], [c.gc_prog_pages for c in costs],
            [c.erases for c in costs]]


def twins(lpns, npages, trim=None, seed=0):
    """Batch and loop on twin aged FTLs; both sides' costs."""
    lpns, npages = np.asarray(lpns), np.asarray(npages)
    fast, loop = aged_ftl(seed), aged_ftl(seed)
    for ftl in (fast, loop):
        if trim is not None:
            ftl.trim(*trim)
    got = fast.write_extents(lpns, npages)
    want = per_extent(loop, lpns, npages)
    assert got.tolist() == want
    assert ftl_state(fast) == ftl_state(loop)
    fast.check_invariants()
    return got, fast


def units(first: int, sizes, gaps=None) -> tuple:
    """Ascending extents from ``first``: ``sizes`` pages each, ``gaps``
    pages apart."""
    gaps = gaps or [0] * len(sizes)
    starts = first + np.cumsum([0] + [s + g for s, g in
                                      zip(sizes[:-1], gaps[:-1])])
    return starts, sizes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 3),
       sizes=st.lists(st.integers(1, 80), min_size=1, max_size=12),
       gaps=st.lists(st.integers(0, 3), min_size=12, max_size=12),
       first=st.integers(0, 600), trimmed=st.booleans())
def test_write_extents_matches_write_per_extent(seed, sizes, gaps, first,
                                                trimmed):
    """Trimmed first: one append; otherwise the per-extent loop."""
    lpns, npages = units(first, sizes, gaps)
    span = int(lpns[-1] + npages[-1] - first)
    twins(lpns, npages, trim=(first, span) if trimmed else None, seed=seed)


def test_an_unmapped_batch_is_one_append():
    """SRC's unit writes into a TRIMmed group: no ``write`` call, many
    rolls (each running GC), the whole range mapped in order."""
    lpns, npages = units(256, [62] * 12)
    fast = aged_ftl()
    fast.trim(256, 62 * 12)
    fast.write = None                 # the loop would call it
    costs = fast.write_extents(np.asarray(lpns), np.asarray(npages))
    assert costs[2].sum() >= 10       # a roll, with an erase, per SBP pages
    assert np.array_equal(fast.p2l[fast.l2p[256:256 + 62 * 12]],
                          np.arange(256, 256 + 62 * 12))
    twins(lpns, npages, trim=(256, 62 * 12))


def head_room() -> int:
    return SBP - aged_ftl()._wp


def test_a_roll_at_an_extent_boundary_is_the_next_extents():
    """The first extent fills the open superblock exactly: the roll and
    its GC belong to the extent that needs the next page."""
    room = head_room()
    lpns, npages = units(400, [room, 5, 5])
    got, _ = twins(lpns, npages, trim=(400, room + 10))
    assert got[2, 0] == got[2, 2] == 0 < got[2, 1]
    assert got[1, 1] > 0              # the victims were partly valid


def test_a_roll_mid_extent_is_that_extents():
    room = head_room()
    lpns, npages = units(400, [room + 5, 5])
    got, _ = twins(lpns, npages, trim=(400, room + 10))
    assert got[2, 0] > 0 == got[2, 1]


def test_mapped_targets_take_the_loop():
    """Rewriting mapped pages across rolls: each extent's old copies die
    only at its turn, so an earlier roll's GC still relocates them."""
    lpns, npages = units(0, [48] * 8)
    got, _ = twins(lpns, npages)
    assert got[1].sum() > 0
    # And mapped pages anywhere in an otherwise trimmed batch.
    lpns, npages = units(700, [40, 40, 40])
    twins(lpns, npages, trim=(700, 80))


def test_overlapping_and_descending_extents_take_the_loop():
    twins([500, 520, 510], [30, 4, 30], trim=(500, 60))
    twins([900, 800, 700], [20, 20, 20], trim=(700, 220))


def test_a_partial_unit():
    """A unit under ``SCALAR_THRESHOLD`` pages — ``write``'s scalar
    path — beside full ones."""
    room = head_room()
    lpns, npages = units(1000, [room - 3, 3, 5, 64])
    twins(lpns, npages, trim=(1000, room + 72))


def test_a_bad_batch_leaves_the_ftl_untouched():
    ftl = aged_ftl()
    before = ftl_state(ftl)
    for lpns, npages in (([0, 2040], [8, 9]), ([-1, 8], [1, 1]),
                         ([0, 8], [4, 0])):
        with pytest.raises(AddressError):
            ftl.write_extents(np.asarray(lpns), np.asarray(npages))
        assert ftl_state(ftl) == before


# ----------------------------------------------------------------------
# SSDDevice.submit_extents(Op.WRITE, ...)
# ----------------------------------------------------------------------
def build(spec=TINY_SSD) -> SSDDevice:
    """An SSD with a 10 MiB burst backed up behind its 4 MiB buffer,
    all 32 command slots taken and corruption seeded in written and
    unwritten pages."""
    ssd = SSDDevice(spec)
    for i in range(40):
        ssd.write(i * UNIT, UNIT, 0.0)
    for i in range(40):
        ssd.read(i * 2 * PAGE_SIZE, PAGE_SIZE, 0.0)
    ssd.inject_corruption(3 * UNIT + 5 * PAGE_SIZE, 3 * PAGE_SIZE)
    ssd.inject_corruption(50 * UNIT, PAGE_SIZE)
    assert ssd.outstanding(1e-3) == spec.queue_depth == 32
    return ssd


def timeline_state(line) -> tuple:
    return list(line._free), line.busy_time


def ssd_state(ssd: SSDDevice) -> dict:
    return {"stats": ssd.stats.as_dict(), "queue": ssd.qstats.as_dict(),
            "inflight": sorted(ssd._inflight),
            "nand": timeline_state(ssd.nand),
            "nand_reads": timeline_state(ssd.nand_reads),
            "link": (ssd.link.bytes_moved,
                     timeline_state(ssd.link._timeline)),
            "read_link": (ssd.read_link.bytes_moved,
                          timeline_state(ssd.read_link._timeline)),
            "corrupted": sorted(ssd._corrupted_pages),
            "ftl": ftl_state(ssd.ftl)}


def columns(extents):
    offs = np.array([o for o, _ in extents], dtype=np.int64)
    lens = np.array([n for _, n in extents], dtype=np.int64)
    return offs, lens


offsets = st.integers(0, (TINY_SSD.capacity - UNIT) // 512).map(
    lambda s: s * 512)
lengths = st.one_of(st.sampled_from([PAGE_SIZE, UNIT, 3 * PAGE_SIZE, 512]),
                    st.integers(1, 16 * PAGE_SIZE))
scattered = st.lists(st.tuples(offsets, lengths), min_size=1, max_size=40)
# Unit-shaped: ascending, back to back, over a range TRIMmed first.
contiguous = st.tuples(st.integers(0, 200).map(lambda u: u * UNIT),
                       st.lists(st.sampled_from([UNIT, UNIT, 3 * PAGE_SIZE]),
                                min_size=2, max_size=40))
origins = st.sampled_from([IoOrigin.GC, IoOrigin.FOREGROUND])


@settings(max_examples=80, deadline=None)
@given(steps=st.lists(st.tuples(st.one_of(scattered, contiguous),
                                st.floats(0.0, 0.05), st.booleans(),
                                origins), min_size=1, max_size=3))
def test_the_write_override_matches_the_loop(steps):
    fast, loop = build(), build()
    for shape, now, as_column, origin in steps:
        if isinstance(shape, tuple):
            base, sizes = shape
            extents = list(zip(base + np.cumsum([0] + sizes[:-1]), sizes))
            for ssd in (fast, loop):
                ssd.trim(base, sum(sizes), now)
        else:
            extents = shape
        offs, lens = columns(extents)
        nows = (now + np.linspace(0.0, 2e-3, len(extents)) if as_column
                else now)
        got = fast.submit_extents(Op.WRITE, offs, lens, nows, origin)
        want = BlockDevice.submit_extents(loop, Op.WRITE, offs, lens, nows,
                                          origin)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert ssd_state(fast) == ssd_state(loop)
        assert fast.write(UNIT, PAGE_SIZE, now) == loop.write(
            UNIT, PAGE_SIZE, now)


def test_a_members_units_at_one_now():
    """The shape copy-forward sends: ~30 full units back to back into a
    TRIMmed group, all issued at one ``now`` — queue-full admission
    from the first, the buffer's backlog holding every ack back."""
    fast, loop = build(), build()
    base = 48 * UNIT
    offs = base + np.arange(30) * UNIT
    lens = np.full(30, UNIT)
    for ssd in (fast, loop):
        ssd.trim(base, 30 * UNIT, 0.0)
    before = fast.qstats.queued_ops
    got = fast.submit_extents(Op.WRITE, offs, lens, 1e-3, IoOrigin.GC)
    want = BlockDevice.submit_extents(loop, Op.WRITE, offs, lens, 1e-3,
                                      IoOrigin.GC)
    assert got.tolist() == want.tolist()
    assert ssd_state(fast) == ssd_state(loop)
    assert fast.qstats.queued_ops - before == 30
    assert not fast._corrupted_pages & set(range(48 * 64, 78 * 64))


ODD_SSD = replace(TINY_SSD, capacity=64 * MIB + 2 * KIB)   # half a page over


@pytest.mark.parametrize("spec,last,error,match", [
    (TINY_SSD, (TINY_SSD.capacity - PAGE_SIZE, 2 * PAGE_SIZE),
     AddressError, "beyond device size"),
    (TINY_SSD, (PAGE_SIZE, -1), ValueError, "negative"),
    (ODD_SSD, (64 * MIB, 2 * KIB), AddressError, "beyond logical space"),
])
def test_a_bad_last_write_extent_leaves_the_device_untouched(spec, last,
                                                             error, match):
    ssd = build(spec)
    before = ssd_state(ssd)
    offs, lens = columns([(0, PAGE_SIZE), (5 * UNIT, 3 * PAGE_SIZE), last])
    with pytest.raises(error, match=match):
        ssd.submit_extents(Op.WRITE, offs, lens, 0.5, IoOrigin.GC)
    assert ssd_state(ssd) == before


def test_a_failed_device_refuses_the_batch_untouched():
    ssd = build()
    ssd.fail()
    before = ssd_state(ssd)
    offs, lens = columns([(0, PAGE_SIZE), (5 * UNIT, 3 * PAGE_SIZE)])
    with pytest.raises(DeviceFailedError, match=ssd.name):
        ssd.submit_extents(Op.WRITE, offs, lens, 0.5, IoOrigin.GC)
    assert ssd_state(ssd) == before
