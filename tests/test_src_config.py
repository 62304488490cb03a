"""SrcConfig validation and scaling (the Table 7 design space)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB
from repro.core.config import (CleanRedundancy, FlushPoint, GcScheme,
                               ReclaimConfig, SrcConfig, VictimPolicy)


def test_defaults_match_table7_bold_entries():
    config = SrcConfig()
    assert config.erase_group_size == 256 * MIB
    assert config.reclaim.gc_scheme is GcScheme.SEL_GC
    assert config.reclaim.u_max == pytest.approx(0.90)
    assert config.reclaim.victim_policy is VictimPolicy.FIFO
    assert config.clean_redundancy is CleanRedundancy.NPC
    assert config.raid_level == 5
    assert config.flush_point is FlushPoint.PER_SEGMENT_GROUP


def test_geometry_properties():
    config = SrcConfig()
    assert config.segment_size == 2 * MIB
    assert config.segment_group_size == 1 * GIB
    assert config.segments_per_group == 512
    assert config.data_ssds == 3


def test_raid0_uses_all_ssds_for_data():
    config = SrcConfig(raid_level=0)
    assert config.data_ssds == 4


def test_invalid_raid_level_rejected():
    with pytest.raises(ConfigError):
        SrcConfig(raid_level=6)


def test_parity_needs_three_ssds():
    with pytest.raises(ConfigError):
        SrcConfig(n_ssds=2, raid_level=5)
    SrcConfig(n_ssds=2, raid_level=0)   # fine without parity


def test_single_ssd_raid0_allowed():
    config = SrcConfig(n_ssds=1, raid_level=0)
    assert config.segment_size == config.segment_unit


def test_umax_bounds():
    with pytest.raises(ConfigError):
        ReclaimConfig(u_max=0.0)
    with pytest.raises(ConfigError):
        ReclaimConfig(u_max=1.5)
    ReclaimConfig(u_max=1.0)


def test_erase_group_must_align_to_segment_unit():
    with pytest.raises(ConfigError):
        SrcConfig(erase_group_size=300 * KIB, segment_unit=256 * KIB)


def test_segment_unit_must_be_page_aligned():
    with pytest.raises(ConfigError):
        SrcConfig(segment_unit=255 * KIB, erase_group_size=2550 * KIB)


def test_gc_watermarks_ordered():
    with pytest.raises(ConfigError):
        ReclaimConfig(gc_free_low=5, gc_free_high=2)


def test_scaled_preserves_ratios_and_floors():
    config = SrcConfig(cache_space=18 * GIB)
    scaled = config.scaled(1 / 32)
    assert scaled.segment_unit >= 256 * KIB
    assert scaled.erase_group_size >= 4 * scaled.segment_unit
    assert scaled.erase_group_size % scaled.segment_unit == 0
    assert scaled.cache_space == pytest.approx(18 * GIB / 32, rel=0.01)


def test_scaled_rejects_bad_factor():
    with pytest.raises(ConfigError):
        SrcConfig().scaled(0)
    with pytest.raises(ConfigError):
        SrcConfig().scaled(1.5)


def test_scaled_identity_at_factor_one():
    config = SrcConfig()
    scaled = config.scaled(1.0)
    assert scaled.erase_group_size == config.erase_group_size
    assert scaled.segment_unit == config.segment_unit
