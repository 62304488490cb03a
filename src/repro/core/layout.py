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

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.common.units import PAGE_SIZE
from repro.core.config import CleanRedundancy, SrcConfig


class BlockLocation(NamedTuple):
    """Physical position of one cached 4 KiB block (a tuple: every
    read hit's lookup builds one, at a quarter of a frozen dataclass's
    cost)."""

    sg: int          # segment group index
    segment: int     # segment index within the SG
    ssd: int         # SSD index within the array
    offset: int      # byte offset within that SSD's address space


class SegmentLayout:
    """Geometry calculator for one SRC instance."""

    def __init__(self, config: SrcConfig, ssd_capacity: int):
        self.config = config
        usable = ssd_capacity
        if config.cache_space:
            usable = min(usable, config.cache_space // config.n_ssds)
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
        # Per parity member (-1: none): slot columns, unit writes.
        self._slots: dict = {}
        self._units: dict = {}

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
        return (sg * self.config.erase_group_size
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

    def slot_locations_array(self, sg: int, segment: int, n: int,
                             with_parity: bool):
        """Where slots ``0..n-1`` of the segments from ``segment`` on,
        each full but the last, live: ``(segments, ssds, offsets)`` int
        columns in slot order (``segments`` the index itself when the
        slots fit one), parity rotating per segment, so the sealer
        installs a batch of segments in one call.

        Blocks fill a segment's data units one after another: slots
        0..d-1 land on the first data SSD, d..2d-1 on the second, each
        past its unit's MS block — so one unit write per SSD persists
        them all.
        """
        span = self.segment_data_capacity(with_parity)
        full = max(n - 1, 0) // span            # segments before the last
        return self.locations(sg, segment, [span] * full + [n - full * span],
                              with_parity)

    def locations(self, sg: int, first: int, counts: List[int],
                  with_parity: bool):
        """:meth:`slot_locations_array` of segments ``first + j`` of
        ``counts[j]`` slots each (full or not), off a read-only template
        of a full segment's columns derived once per parity member."""
        ssds, offsets, per_unit = [], [], self.data_blocks_per_unit
        for segment, n in enumerate(counts, first):
            parity = self.parity_ssd(sg, segment) if with_parity else -1
            if parity not in self._slots:
                order = self.data_ssds(sg, segment, with_parity)
                unit, row = np.divmod(np.arange(len(order) * per_unit),
                                      per_unit)
                self._slots[parity] = (np.array(order, dtype=np.int32)[unit],
                                       (row + 1) * PAGE_SIZE)
                for column in self._slots[parity]:
                    column.setflags(write=False)
            ssd_column, offset_column = self._slots[parity]
            ssds.append(ssd_column[:n])
            offsets.append(offset_column[:n] + self.unit_offset(sg, segment))
        if len(counts) == 1:            # one segment: its index, no column
            return first, ssds[0], offsets[0]
        return (np.repeat(np.arange(first, first + len(counts)), counts),
                np.concatenate(ssds), np.concatenate(offsets))

    def units(self, sg: int, segment: int, n_blocks: int,
              with_parity: bool) -> Tuple[Tuple[int, int], ...]:
        """A segment's unit writes, ``(member, length)``, one per member:
        MS + its rows + ME from the unit start.  Blocks fill the data
        units in order; parity covers the stripe's written rows (the
        first unit's).  Derived once per size and parity member."""
        parity = self.parity_ssd(sg, segment) if with_parity else -1
        units = self._units.get((n_blocks, parity))
        if units is None:
            per_unit = self.data_blocks_per_unit
            order = self.data_ssds(sg, segment, with_parity)
            units = [(idx, (min(per_unit, n_blocks - k) + 2) * PAGE_SIZE)
                     for k, idx in zip(range(0, n_blocks, per_unit), order)]
            if with_parity:
                units.append((parity, (min(per_unit, n_blocks) + 2)
                              * PAGE_SIZE))
            units = self._units[(n_blocks, parity)] = tuple(units)
        return units

    def metadata_offsets(self, sg: int, segment: int) -> Tuple[int, int]:
        """(MS offset, ME offset) of this segment, on every SSD."""
        base = self.unit_offset(sg, segment)
        return base, base + (self.unit_blocks - 1) * PAGE_SIZE
