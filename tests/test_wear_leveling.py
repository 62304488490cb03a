"""Static wear leveling in the FTL (optional feature)."""

import numpy as np

from repro.ssd.ftl import PageMappedFtl


def make_ftl(threshold, logical=2048, spare_sbs=6, sb_pages=64):
    return PageMappedFtl(logical_pages=logical,
                         physical_pages=logical + spare_sbs * sb_pages,
                         superblock_pages=sb_pages,
                         wear_level_threshold=threshold)


def skewed_workload(ftl, rounds=300, seed=0):
    """Hot updates to a small region; a large cold region sits still."""
    rng = np.random.default_rng(seed)
    for lpn in range(0, 2048, 64):
        ftl.write(lpn, 64)               # cold fill
    for _ in range(rounds):
        lpn = int(rng.integers(0, 256))   # hot head only
        ftl.write(lpn, 8)


def test_disabled_by_default():
    ftl = make_ftl(0)
    skewed_workload(ftl)
    assert ftl.wear_level_moves == 0


def test_wear_leveling_bounds_spread():
    plain = make_ftl(0)
    leveled = make_ftl(3)
    skewed_workload(plain, rounds=800)
    skewed_workload(leveled, rounds=800)
    spread_plain = int(plain.erase_count.max() - plain.erase_count.min())
    spread_leveled = int(leveled.erase_count.max()
                         - leveled.erase_count.min())
    assert leveled.wear_level_moves > 0
    assert spread_leveled <= spread_plain


def test_invariants_hold_with_wear_leveling():
    ftl = make_ftl(2)
    skewed_workload(ftl, rounds=600, seed=3)
    ftl.check_invariants()


def test_mapping_correct_after_forced_moves():
    ftl = make_ftl(2)
    skewed_workload(ftl, rounds=400, seed=5)
    # Every logical page is still mapped and readable.
    assert ftl.mapped_page_count == 2048
