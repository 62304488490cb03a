"""Segment-group / segment / stripe geometry (paper §4.1, Figure 3).

Cache space is divided into N Segment Groups (SG); an SG spans the
erase group on every SSD (4 x 256 MB = 1 GB by default).  Each SG is
divided into segments; a segment spans ``segment_unit`` (512 KB) on
every SSD, i.e. 2 MB.  Within a segment each SSD's unit starts with a
metadata block (MS) and ends with one (ME); the blocks in between hold
data, or parity on the segment's parity SSD.

Segment group 0 holds the superblock and is read-only (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import PAGE_SIZE
from repro.core.config import CleanRedundancy, SrcConfig


@dataclass(frozen=True)
class BlockLocation:
    """Physical position of one cached 4 KiB block."""

    sg: int          # segment group index
    segment: int     # segment index within the SG
    ssd: int         # SSD index within the array
    offset: int      # byte offset within that SSD's address space


class SegmentLayout:
    """Geometry calculator for one SRC instance."""

    def __init__(self, config: SrcConfig, ssd_capacity: int,
                 region_start: int = 0):
        self.config = config
        self.region_start = region_start
        usable = ssd_capacity - region_start
        if config.cache_space:
            per_ssd_space = config.cache_space // config.n_ssds
            usable = min(usable, per_ssd_space)
        self.groups = usable // config.erase_group_size
        if self.groups < 4:
            raise ConfigError(
                f"cache space yields only {self.groups} segment groups; "
                "need >= 4 (superblock SG + active + GC headroom)")
        self.unit_blocks = config.segment_unit // PAGE_SIZE
        if self.unit_blocks < 3:
            raise ConfigError("segment unit too small for MS + data + ME")
        self.data_blocks_per_unit = self.unit_blocks - 2  # minus MS, ME
        self.segments_per_group = config.segments_per_group

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    def segment_data_capacity(self, with_parity: bool) -> int:
        """Data blocks one segment can hold.

        With parity, one SSD's unit carries parity instead of data.
        """
        data_units = (self.config.n_ssds - 1 if with_parity
                      else self.config.n_ssds)
        return data_units * self.data_blocks_per_unit

    def dirty_segment_capacity(self) -> int:
        return self.segment_data_capacity(
            with_parity=self.config.raid_level in (4, 5))

    def clean_segment_capacity(self) -> int:
        with_parity = (self.config.raid_level in (4, 5)
                       and self.config.clean_redundancy is CleanRedundancy.PC)
        return self.segment_data_capacity(with_parity)

    @property
    def usable_groups(self) -> int:
        """SGs available for data (SG 0 is the superblock)."""
        return self.groups - 1

    def cache_data_capacity_blocks(self) -> int:
        """Upper bound of cacheable blocks (dirty-layout segments)."""
        return (self.usable_groups * self.segments_per_group
                * self.dirty_segment_capacity())

    # ------------------------------------------------------------------
    # address arithmetic
    # ------------------------------------------------------------------
    def unit_offset(self, sg: int, segment: int) -> int:
        """Byte offset of a segment's unit within each SSD."""
        if not 0 <= sg < self.groups:
            raise ConfigError(f"segment group {sg} out of range")
        if not 0 <= segment < self.segments_per_group:
            raise ConfigError(f"segment {segment} out of range")
        return (self.region_start + sg * self.config.erase_group_size
                + segment * self.config.segment_unit)

    def parity_ssd(self, sg: int, segment: int) -> int:
        """Which SSD holds parity for this segment (-1 if none).

        RAID-4 dedicates the last SSD; RAID-5 rotates per segment so
        parity traffic is spread across the array (Table 10).
        """
        level = self.config.raid_level
        if level == 0:
            return -1
        if level == 4:
            return self.config.n_ssds - 1
        index = sg * self.segments_per_group + segment
        return index % self.config.n_ssds

    def data_ssds(self, sg: int, segment: int,
                  with_parity: bool) -> List[int]:
        """SSDs carrying data blocks for this segment, in slot order."""
        if not with_parity:
            return list(range(self.config.n_ssds))
        parity = self.parity_ssd(sg, segment)
        return [i for i in range(self.config.n_ssds) if i != parity]

    def slot_location(self, sg: int, segment: int, slot: int,
                      with_parity: bool) -> BlockLocation:
        """Physical location of the ``slot``-th data block of a segment.

        Blocks fill SSD units one after another: slots 0..d-1 land on
        the first data SSD, d..2d-1 on the second, and so on — so a
        single 512 KB unit write per SSD persists them all.
        """
        ssds = self.data_ssds(sg, segment, with_parity)
        per_unit = self.data_blocks_per_unit
        unit_index = slot // per_unit
        if unit_index >= len(ssds):
            raise ConfigError(f"slot {slot} beyond segment capacity")
        within = slot % per_unit
        offset = self.unit_offset(sg, segment) + (1 + within) * PAGE_SIZE
        return BlockLocation(sg, segment, ssds[unit_index], offset)

    def slot_locations_array(self, sg: int, segment: int, n: int,
                             with_parity: bool):
        """Vector :meth:`slot_location` for slots ``0..n-1`` of the
        segments from ``segment`` on, each full but the last: ``(segments,
        ssds, offsets)`` int columns in slot order (``segments`` the index
        itself when the slots fit one), parity rotating per segment, so
        the sealer installs a batch of segments in one call."""
        per_unit = self.data_blocks_per_unit
        order = self.data_ssds(sg, segment, with_parity)
        span = len(order) * per_unit               # a segment's slots
        last = segment + (n - 1) // span
        slots = np.arange(n)
        unit = slots // per_unit
        offsets = ((slots % per_unit) * PAGE_SIZE
                   + (self.unit_offset(sg, segment) + PAGE_SIZE))
        if last == segment:
            return segment, np.array(order, dtype=np.int32)[unit], offsets
        self.unit_offset(sg, last)                   # range-checks the last
        for s in range(segment + 1, last + 1):
            order += self.data_ssds(sg, s, with_parity)
        segments = slots // span
        offsets += segments * self.config.segment_unit
        return (segment + segments, np.array(order, dtype=np.int32)[unit],
                offsets)

    def metadata_offsets(self, sg: int, segment: int) -> Tuple[int, int]:
        """(MS offset, ME offset) of this segment, on every SSD."""
        base = self.unit_offset(sg, segment)
        return base, base + (self.unit_blocks - 1) * PAGE_SIZE
