"""WRITE batches in the FTL: ``PageMappedFtl.write_extents`` against
``write`` per extent, the loop it replaces.

The oracle runs element by element (a ``SCALAR_THRESHOLD`` no range
reaches) so it shares no code with the batch's page loop.  Twins take
the same batches, one through the batch and one through the loop, and
must agree on every cost and piece of state — the maps included, since
a write moves them.  The SSD's WRITE batch is in test_ssd_extents.py,
all but its bad-last-extent case.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ssd.ftl as ftl_module
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import AddressError
from repro.common.types import Op
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.ssd.ftl import PageMappedFtl

from _stacks import ODD_SSD, TINY_SSD

SBP = 64                       # pages per superblock


# ----------------------------------------------------------------------
# PageMappedFtl.write_extents
# ----------------------------------------------------------------------
def aged_ftl(seed: int = 0, wear: int = 0) -> PageMappedFtl:
    """Every logical page written once, then churned by small random
    writes, so each roll collects a partly valid victim."""
    ftl = PageMappedFtl(logical_pages=2048, physical_pages=2560,
                        superblock_pages=SBP, wear_level_threshold=wear)
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
    """The oracle: ``write`` per extent, element by element, its costs
    as columns."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ftl_module, "SCALAR_THRESHOLD", 10 ** 9)
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
    got = np.array(fast.write_extents(lpns, npages))
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
    """Ascending extents, onto a TRIMmed range or onto mapped pages."""
    lpns, npages = units(first, sizes, gaps)
    span = int(lpns[-1] + npages[-1] - first)
    twins(lpns, npages, trim=(first, span) if trimmed else None, seed=seed)


def random_extents(rng, n: int) -> tuple:
    """``n`` extents of 1 page (half), 2–16 or 17–130 pages (longer than
    a superblock), most on a hot head, some exact repeats: they overlap,
    repeat and land on mapped pages."""
    npages = np.where(rng.random(n) < 0.5, 1,
                      np.where(rng.random(n) < 0.7, rng.integers(2, 17, n),
                               rng.integers(17, 131, n)))
    span = np.where(rng.random(n) < 0.6, 256, 2048)
    lpns = (rng.random(n) * (span - npages)).astype(np.int64)
    again = np.flatnonzero(rng.random(n) < 0.1)
    again = again[again > 0]
    lpns[again], npages[again] = lpns[again - 1], npages[again - 1]
    return lpns, npages


@pytest.mark.parametrize("wear", [0, 2])
@pytest.mark.parametrize("threshold", [0, SCALAR_THRESHOLD, 10 ** 9])
def test_write_extents_matches_a_write_loop(threshold, wear):
    """Seeded batches through rolls, GC and wear levelling, with the
    batch's runs as arrays, by the default or element by element."""
    rng = np.random.default_rng([threshold, wear])
    fast, loop = aged_ftl(wear=wear), aged_ftl(wear=wear)
    for _ in range(12):
        lpns, npages = random_extents(rng, 60)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ftl_module, "SCALAR_THRESHOLD", threshold)
            got = np.array(fast.write_extents(lpns, npages))
        assert got.tolist() == per_extent(loop, lpns, npages)
        assert ftl_state(fast) == ftl_state(loop)
    fast.check_invariants()
    assert loop.counters.gc_pages_copied > 0
    assert (loop.wear_level_moves > 0) == bool(wear)


def test_write_batch_is_write_extents_of_ones():
    lpns = np.random.default_rng(7).integers(0, 300, size=500)
    batch, extents = aged_ftl(), aged_ftl()
    assert np.array_equal(batch.write_batch(lpns), extents.write_extents(
        lpns, np.ones_like(lpns)))
    assert ftl_state(batch) == ftl_state(extents)
    for bad in ([1, 2, 2048 + 5, 3], [-1, 0]):     # checked before a write
        with pytest.raises(AddressError):
            batch.write_batch(np.asarray(bad))
    assert ftl_state(batch) == ftl_state(extents)


def test_an_unmapped_batch_is_one_append():
    """SRC's unit writes into a TRIMmed group: many rolls (each running
    GC), the whole range mapped, as the loop maps it."""
    lpns, npages = units(256, [62] * 12)
    got, fast = twins(lpns, npages, trim=(256, 62 * 12))
    assert got[2].sum() >= 10         # a roll, with an erase, per SBP pages
    assert np.array_equal(fast.p2l[fast.l2p[256:256 + 62 * 12]],
                          np.arange(256, 256 + 62 * 12))


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


def test_mapped_targets_die_at_their_extents_turn():
    """Rewriting mapped pages across rolls: each extent's old copies die
    only at its turn, so an earlier roll's GC still relocates them."""
    lpns, npages = units(0, [48] * 8)
    got, _ = twins(lpns, npages)
    assert got[1].sum() > 0
    # And mapped pages anywhere in an otherwise trimmed batch.
    lpns, npages = units(700, [40, 40, 40])
    twins(lpns, npages, trim=(700, 80))


def test_overlapping_and_descending_extents_match_the_loop():
    """Pages written twice in one batch: the loop's maps, where each
    page's last copy is live and the earlier ones are dead."""
    twins([500, 520, 510], [30, 4, 30], trim=(500, 60))
    twins([900, 800, 700], [20, 20, 20], trim=(700, 220))


def test_a_partial_unit():
    """A unit under ``SCALAR_THRESHOLD`` pages beside full ones."""
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
# SSDDevice.submit_extents(WRITE)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec,last,error,match", [
    (TINY_SSD, (TINY_SSD.capacity - PAGE_SIZE, 2 * PAGE_SIZE),
     AddressError, "beyond device size"),
    (TINY_SSD, (PAGE_SIZE, -1), ValueError, "negative"),
    (ODD_SSD, (64 * MIB, 2 * KIB), AddressError, "beyond logical space"),
])
def test_a_bad_last_write_extent_leaves_the_device_untouched(spec, last,
                                                             error, match):
    # Imported here: test_ssd_extents imports this module at its top.
    from test_ssd_extents import bad_last_extent
    bad_last_extent(Op.WRITE, spec, last, error, match)
