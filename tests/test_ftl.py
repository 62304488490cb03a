"""Page-mapped FTL: mapping correctness, GC behaviour, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import AddressError, ConfigError
from repro.ssd.ftl import NO_PAGE, PageMappedFtl


def make_ftl(logical=1024, spare_sbs=4, sb_pages=128):
    return PageMappedFtl(logical_pages=logical,
                         physical_pages=logical + spare_sbs * sb_pages,
                         superblock_pages=sb_pages)


def test_write_then_read_mapped():
    ftl = make_ftl()
    ftl.write(0, 10)
    result = ftl.read(0, 10)
    assert result.mapped_pages == 10


def test_unwritten_read_unmapped():
    ftl = make_ftl()
    assert ftl.read(0, 10).mapped_pages == 0


def test_overwrite_invalidates_old_location():
    ftl = make_ftl()
    ftl.write(0, 1)
    first = int(ftl.l2p[0])
    ftl.write(0, 1)
    second = int(ftl.l2p[0])
    assert first != second
    assert ftl.p2l[first] == NO_PAGE


def test_trim_unmaps():
    ftl = make_ftl()
    ftl.write(0, 8)
    ftl.trim(0, 8)
    assert ftl.read(0, 8).mapped_pages == 0
    assert ftl.counters.trimmed_pages == 8


def test_out_of_range_write_rejected():
    ftl = make_ftl()
    with pytest.raises(AddressError):
        ftl.write(1020, 10)


def test_zero_page_write_rejected():
    ftl = make_ftl()
    with pytest.raises(AddressError):
        ftl.write(0, 0)


def test_too_little_spare_rejected():
    with pytest.raises(ConfigError):
        PageMappedFtl(logical_pages=1024, physical_pages=1024 + 128,
                      superblock_pages=128)


def test_page_maps_are_int32_and_refuse_what_they_cannot_index():
    """NO_PAGE = -1 and every page number fit 32 bits (a full-scale
    ``SATA_MLC_128`` has 33.5 M pages): half the memory of ``int64``
    maps.  A device past 2**31 pages fails before anything is allocated."""
    ftl = make_ftl(logical=2048, spare_sbs=4)
    assert ftl.l2p.dtype == ftl.p2l.dtype == np.int32
    with pytest.raises(ConfigError, match="int32"):
        PageMappedFtl(logical_pages=2 ** 31 - 4096, physical_pages=2 ** 31,
                      superblock_pages=128)


def test_sequential_fill_has_wa_one():
    ftl = make_ftl(logical=2048, spare_sbs=4)
    for lpn in range(0, 2048, 128):
        ftl.write(lpn, 128)
    # Overwrite everything sequentially: GC victims are fully invalid.
    for lpn in range(0, 2048, 128):
        ftl.write(lpn, 128)
    assert ftl.counters.write_amplification == pytest.approx(1.0, abs=0.01)


def test_random_small_writes_cause_amplification():
    ftl = make_ftl(logical=2048, spare_sbs=3)
    rng = np.random.default_rng(0)
    for lpn in range(0, 2048, 128):
        ftl.write(lpn, 128)
    for _ in range(4000):
        ftl.write(int(rng.integers(0, 2047)), 1)
    assert ftl.counters.write_amplification > 1.2


def test_gc_reclaims_space():
    ftl = make_ftl(logical=1024, spare_sbs=3)
    for _ in range(5):
        for lpn in range(0, 1024, 128):
            ftl.write(lpn, 128)
    assert ftl.free_superblocks >= 1
    ftl.check_invariants()


def test_utilization():
    ftl = make_ftl()
    assert ftl.utilization() == 0.0
    ftl.write(0, 512)
    assert 0 < ftl.utilization() < 1


def test_write_larger_than_superblock():
    ftl = make_ftl(logical=1024, sb_pages=128)
    result = ftl.write(0, 512)
    assert result.host_pages == 512
    assert ftl.read(0, 512).mapped_pages == 512
    ftl.check_invariants()


def test_erase_counts_tracked():
    ftl = make_ftl(logical=1024, spare_sbs=3)
    for _ in range(4):
        for lpn in range(0, 1024, 128):
            ftl.write(lpn, 128)
    assert ftl.counters.superblock_erases > 0
    assert int(ftl.erase_count.sum()) == ftl.counters.superblock_erases


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["w", "t"]),
                          st.integers(0, 1000), st.integers(1, 64)),
                min_size=1, max_size=120))
def test_ftl_invariants_under_random_ops(ops):
    """l2p/p2l stay inverse and accounting stays exact under any mix."""
    ftl = make_ftl(logical=1024, spare_sbs=3, sb_pages=64)
    for op, lpn, npages in ops:
        npages = min(npages, 1024 - lpn)
        if npages <= 0:
            continue
        if op == "w":
            ftl.write(lpn, npages)
        else:
            ftl.trim(lpn, npages)
    ftl.check_invariants()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ftl_matches_reference_model(seed):
    """The FTL's visible mapping equals a trivial dict reference."""
    rng = np.random.default_rng(seed)
    ftl = make_ftl(logical=512, spare_sbs=3, sb_pages=64)
    reference = set()
    for _ in range(200):
        lpn = int(rng.integers(0, 511))
        npages = int(rng.integers(1, min(16, 512 - lpn) + 1))
        if rng.random() < 0.8:
            ftl.write(lpn, npages)
            reference.update(range(lpn, lpn + npages))
        else:
            ftl.trim(lpn, npages)
            reference.difference_update(range(lpn, lpn + npages))
    mapped = set(int(x) for x in np.where(ftl.l2p != NO_PAGE)[0])
    assert mapped == reference
