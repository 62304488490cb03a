"""Page-mapped FTL: mapping correctness, GC behaviour, invariants, and
the scalar / vector contract: the element-wise form below
``SCALAR_THRESHOLD`` pages is an implementation detail, never a
behaviour change."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ssd.ftl as ftl_module
from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import AddressError, ConfigError
from repro.ssd.ftl import NO_PAGE, PageMappedFtl


def make_ftl(logical=1024, spare_sbs=4, sb_pages=128, **kwargs):
    return PageMappedFtl(logical_pages=logical,
                         physical_pages=logical + spare_sbs * sb_pages,
                         superblock_pages=sb_pages, **kwargs)


def test_write_then_read_mapped():
    ftl = make_ftl()
    ftl.write(0, 10)
    ftl.read(0, 10)
    assert (ftl.l2p[:10] != NO_PAGE).all()
    assert ftl.counters.host_pages_read == 10


def test_unwritten_read_unmapped():
    ftl = make_ftl()
    ftl.read(0, 10)
    assert ftl.mapped_page_count == 0


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
    assert ftl.mapped_page_count == 0
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
    assert ftl.mapped_page_count == 512
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


# ----------------------------------------------------------------------
# SCALAR_THRESHOLD: element-wise and array updates agree bit for bit
# ----------------------------------------------------------------------
# Every page as arrays, the default, every page element by element.
THRESHOLDS = (0, SCALAR_THRESHOLD, 10 ** 9)


def ftl_state(ftl: PageMappedFtl) -> tuple:
    return (ftl.l2p.tobytes(), ftl.p2l.tobytes(), ftl.valid_count.tobytes(),
            ftl.is_closed.tobytes(), ftl.erase_count.tobytes(),
            tuple(ftl._free), ftl._open_sb, ftl._wp, ftl._mapped,
            astuple(ftl.counters), ftl.wear_level_moves)


def replay(ops, threshold: int, **kwargs):
    """Each op's result and the FTL's state after it, under
    ``threshold``; the FTL at the end."""
    ftl = make_ftl(logical=2048, spare_sbs=8, **kwargs)
    trace = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ftl_module, "SCALAR_THRESHOLD", threshold)
        for kind, lpn, npages in ops:
            result = getattr(ftl, kind)(lpn, npages)
            trace.append((repr(result), hash(ftl_state(ftl))))
    ftl.check_invariants()
    return trace, ftl


def assert_thresholds_agree(ops, **kwargs):
    traces = [replay(ops, t, **kwargs) for t in THRESHOLDS]
    assert traces[0][0] == traces[1][0] == traces[2][0]
    return traces[0][1]


def random_ops(seed: int, count: int):
    """Writes, trims and reads of 1–8 pages and of up to two
    superblocks, most of them on a hot quarter, so lifetimes mix and GC
    collects partly valid victims."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        kind = rng.choice(["write", "write", "write", "trim", "read"])
        if rng.random() < 0.7:
            npages = int(rng.integers(1, 9))
        else:
            npages = int(rng.integers(9, 256))
        span = 512 if rng.random() < 0.6 else 2048
        ops.append((str(kind), int(rng.integers(0, span - npages)), npages))
    return ops


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scalar_and_vector_paths_identical(seed):
    assert_thresholds_agree(random_ops(seed, 400))


def test_gc_heavy_fill_identical():
    rng = np.random.default_rng(99)
    ops = [("write", 0, 2048)]
    for _ in range(600):
        npages = int(rng.integers(1, 17))
        ops.append(("write", int(rng.integers(0, 256 - npages)), npages))
    assert assert_thresholds_agree(ops).counters.superblock_erases > 0


def test_trim_then_rewrite_identical():
    assert_thresholds_agree([("write", 0, 512), ("trim", 100, 5),
                             ("trim", 200, 200), ("write", 100, 5),
                             ("write", 150, 300)])


def test_wear_leveling_identical():
    rng = np.random.default_rng(5)
    ops = [("write", 0, 2048)]
    for _ in range(800):
        npages = int(rng.integers(1, 9))
        ops.append(("write", int(rng.integers(0, 128 - npages)), npages))
    ftl = assert_thresholds_agree(ops, wear_level_threshold=2)
    assert ftl.wear_level_moves > 0


# ----------------------------------------------------------------------
# fill: the preconditioning loop as array fills
# ----------------------------------------------------------------------
def superblock_loop(ftl: PageMappedFtl, npages: int) -> None:
    """What ``precondition`` did before ``fill``: one ``write`` per
    superblock from page 0."""
    for lpn in range(0, npages, ftl.superblock_pages):
        ftl.write(lpn, min(ftl.superblock_pages, npages - lpn))


@pytest.mark.parametrize("fraction", [None, 3, 0.5, 0.985, 1.0])
@pytest.mark.parametrize("logical,sb_pages", [(2048, 128), (1000, 64),
                                              (4096, 20)])
def test_fill_leaves_the_superblock_loops_state(fraction, logical, sb_pages):
    """1 page, exactly 3 superblocks, and fractions of the logical
    pages: the same maps, counts, free list, log head and counters."""
    npages = (1 if fraction is None
              else fraction * sb_pages if isinstance(fraction, int)
              else int(logical * fraction))
    loop, fill = (make_ftl(logical=logical, sb_pages=sb_pages)
                  for _ in range(2))
    superblock_loop(loop, npages)
    fill.fill(npages)
    fill.check_invariants()
    assert ftl_state(fill) == ftl_state(loop)
    # And the two go on alike: overwrites, a GC-heavy churn, TRIMs.
    rng = np.random.default_rng(npages)
    for lpn in rng.integers(0, logical - 8, 3 * logical).tolist():
        loop.write(lpn, 8)
        fill.write(lpn, 8)
    loop.trim(0, logical // 2)
    fill.trim(0, logical // 2)
    assert ftl_state(fill) == ftl_state(loop)
    assert fill.counters.superblock_erases > 0


def test_fill_refuses_a_written_ftl():
    ftl = make_ftl()
    ftl.write(5, 1)
    with pytest.raises(ConfigError, match="blank"):
        ftl.fill(10)
    with pytest.raises(AddressError):
        make_ftl(logical=1024).fill(1025)
