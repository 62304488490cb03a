"""Property-based checks on SRC layout arithmetic."""

from hypothesis import given, settings, strategies as st

from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.config import SrcConfig
from repro.core.layout import SegmentLayout


def layout_for(n_ssds=4, raid_level=5):
    config = SrcConfig(n_ssds=n_ssds, raid_level=raid_level,
                       erase_group_size=4 * MIB, segment_unit=256 * KIB)
    return SegmentLayout(config, 64 * MIB)


@given(st.integers(1, 15), st.integers(0, 15), st.booleans())
@settings(max_examples=60, deadline=None)
def test_slot_locations_unique_within_segment(sg, segment, with_parity):
    """No two slots of one segment may share a physical page."""
    layout = layout_for()
    capacity = layout.segment_data_capacity(with_parity)
    _, ssds, offsets = layout.slot_locations_array(sg, segment, capacity,
                                                   with_parity)
    assert len(set(zip(ssds.tolist(), offsets.tolist()))) == capacity


@given(st.integers(1, 15), st.integers(0, 15), st.booleans())
@settings(max_examples=60, deadline=None)
def test_slots_stay_inside_their_unit(sg, segment, with_parity):
    """Data slots never touch the MS/ME blocks or leave the unit."""
    layout = layout_for()
    base = layout.unit_offset(sg, segment)
    unit = layout.config.segment_unit
    _, _, offsets = layout.slot_locations_array(
        sg, segment, layout.segment_data_capacity(with_parity), with_parity)
    within = offsets - base
    assert (PAGE_SIZE <= within).all() and (within < unit - PAGE_SIZE).all()


@given(st.integers(1, 15), st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_parity_never_holds_data(sg, segment):
    layout = layout_for()
    parity = layout.parity_ssd(sg, segment)
    _, ssds, _ = layout.slot_locations_array(
        sg, segment, layout.dirty_segment_capacity(), True)
    assert parity not in ssds.tolist()


@given(st.integers(3, 8))
@settings(max_examples=12, deadline=None)
def test_raid5_parity_balanced_across_ssds(n_ssds):
    """Rotating parity spreads evenly over any array width."""
    layout = layout_for(n_ssds=n_ssds)
    counts = {}
    total = layout.segments_per_group * 4
    for index in range(total):
        sg, seg = divmod(index, layout.segments_per_group)
        parity = layout.parity_ssd(sg + 1, seg)
        counts[parity] = counts.get(parity, 0) + 1
    assert len(counts) == n_ssds
    assert max(counts.values()) - min(counts.values()) <= total // n_ssds


@given(st.integers(1, 15), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_units_do_not_overlap_across_segments(sg, segment):
    layout = layout_for()
    base = layout.unit_offset(sg, segment)
    unit = layout.config.segment_unit
    if segment + 1 < layout.segments_per_group:
        assert layout.unit_offset(sg, segment + 1) == base + unit
