"""SRC geometry: segment groups, segments, slots, parity rotation."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.core.config import CleanRedundancy, SrcConfig
from repro.core.layout import SegmentLayout

CFG = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB)


def make_layout(config=CFG, capacity=64 * MIB):
    return SegmentLayout(config, capacity)


def test_paper_geometry():
    """§4.1's numbers: 4 SSDs, 256MB erase group, 512KB units."""
    config = SrcConfig()
    assert config.segment_group_size == 1 * GIB
    assert config.segment_size == 2 * MIB
    assert config.segments_per_group == 512


def test_group_count():
    layout = make_layout()
    assert layout.groups == 16            # 64 MiB / 4 MiB
    assert layout.usable_groups == 15     # SG 0 is the superblock


def test_cache_space_limits_groups():
    config = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB,
                       cache_space=4 * 32 * MIB)
    layout = SegmentLayout(config, 64 * MIB)
    assert layout.groups == 8


def test_too_small_space_rejected():
    with pytest.raises(ConfigError):
        make_layout(capacity=8 * MIB)


def test_segment_capacities():
    layout = make_layout()
    unit_blocks = 256 * KIB // PAGE_SIZE          # 64
    assert layout.data_blocks_per_unit == unit_blocks - 2
    # RAID-5 dirty segment: 3 data units.
    assert layout.dirty_segment_capacity() == 3 * 62
    # NPC clean segment: 4 data units.
    assert layout.clean_segment_capacity() == 4 * 62


def test_pc_clean_capacity_matches_dirty():
    config = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB,
                       clean_redundancy=CleanRedundancy.PC)
    layout = SegmentLayout(config, 64 * MIB)
    assert layout.clean_segment_capacity() == layout.dirty_segment_capacity()


def test_raid0_uses_all_units():
    config = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB,
                       raid_level=0)
    layout = SegmentLayout(config, 64 * MIB)
    assert layout.dirty_segment_capacity() == 4 * 62


def test_unit_offsets_progress():
    layout = make_layout()
    assert layout.unit_offset(1, 0) == 4 * MIB
    assert layout.unit_offset(1, 1) == 4 * MIB + 256 * KIB
    assert layout.unit_offset(2, 0) == 8 * MIB


def test_unit_offset_bounds():
    layout = make_layout()
    with pytest.raises(ConfigError):
        layout.unit_offset(999, 0)
    with pytest.raises(ConfigError):
        layout.unit_offset(0, 999)


def test_raid5_parity_rotates_per_segment():
    layout = make_layout()
    parities = {layout.parity_ssd(1, s) for s in range(4)}
    assert parities == {0, 1, 2, 3}


def test_raid4_parity_fixed():
    config = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB,
                       raid_level=4)
    layout = SegmentLayout(config, 64 * MIB)
    assert {layout.parity_ssd(1, s) for s in range(8)} == {3}


def test_raid0_has_no_parity():
    config = SrcConfig(erase_group_size=4 * MIB, segment_unit=256 * KIB,
                       raid_level=0)
    layout = SegmentLayout(config, 64 * MIB)
    assert layout.parity_ssd(1, 0) == -1


def test_slot_location_skips_parity_ssd():
    layout = make_layout()
    parity = layout.parity_ssd(1, 0)
    ssds_used = {layout.slot_location(1, 0, slot, True).ssd
                 for slot in range(layout.dirty_segment_capacity())}
    assert parity not in ssds_used
    assert len(ssds_used) == 3


def test_slot_location_offsets_within_unit():
    layout = make_layout()
    loc = layout.slot_location(1, 0, 0, True)
    base = layout.unit_offset(1, 0)
    assert loc.offset == base + PAGE_SIZE   # after MS


def test_slot_location_beyond_capacity_rejected():
    layout = make_layout()
    with pytest.raises(ConfigError):
        layout.slot_location(1, 0, layout.dirty_segment_capacity(), True)


def test_metadata_offsets_bracket_unit():
    layout = make_layout()
    ms, me = layout.metadata_offsets(1, 0)
    base = layout.unit_offset(1, 0)
    assert ms == base
    assert me == base + 256 * KIB - PAGE_SIZE


def test_slots_fill_units_in_order():
    layout = make_layout()
    per_unit = layout.data_blocks_per_unit
    first_unit_ssd = layout.slot_location(1, 0, 0, True).ssd
    assert layout.slot_location(1, 0, per_unit - 1, True).ssd == \
        first_unit_ssd
    assert layout.slot_location(1, 0, per_unit, True).ssd != first_unit_ssd
