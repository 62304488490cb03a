"""Persisted segment metadata (paper §4.1, "Metadata management").

Every segment stores summary blocks at its start (MS) and end (ME) on
each SSD.  The summary is an extension of the LFS segment summary: it
carries a signature, a version/generation number, the LBA and checksum
of every data block, and is itself checksummed.  MS/ME generation
agreement is the crash-consistency criterion: a torn segment write
leaves ME behind MS and the segment is discarded at recovery.

The simulator cannot store real bytes on the simulated SSDs, so this
module is the model of what *is* durably on flash: SRC writes summaries
here exactly when it issues the corresponding segment writes, and the
recovery path reads only this store (plus simulated read I/O charged to
the devices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.checksum import metadata_checksum

SRC_MAGIC = 0x5352_4331  # "SRC1"


@dataclass
class Superblock:
    """SG 0 content: written at format time, never modified (§4.1)."""

    magic: int
    create_time: float
    device_size: int
    n_ssds: int
    erase_group_size: int
    segment_unit: int

    def checksum(self) -> int:
        return metadata_checksum((
            self.magic, int(self.create_time * 1e6), self.device_size,
            self.n_ssds, self.erase_group_size, self.segment_unit,
        ))


@dataclass
class SegmentSummary:
    """Durable description of one written segment."""

    sg: int
    segment: int
    sequence: int              # global log order (for recovery replay)
    generation: int            # MS/ME agreement check
    dirty: bool                # segment class: dirty or clean data
    with_parity: bool
    lbas: List[int] = field(default_factory=list)        # slot -> LBA
    checksums: List[int] = field(default_factory=list)   # slot -> crc
    versions: List[int] = field(default_factory=list)    # slot -> version
    ms_generation: int = 0
    me_generation: int = 0

    def __post_init__(self) -> None:
        if not self.ms_generation:
            self.ms_generation = self.generation
        if not self.me_generation:
            self.me_generation = self.generation

    @property
    def consistent(self) -> bool:
        """MS and ME agree -> the whole segment write completed."""
        return self.ms_generation == self.me_generation


class MetadataStore:
    """The durable on-SSD metadata as a queryable model."""

    def __init__(self) -> None:
        self.superblock: Optional[Superblock] = None
        self._summaries: Dict[Tuple[int, int], SegmentSummary] = {}
        self._by_group: Dict[int, Set[int]] = {}
        self._sequence = 0

    # ------------------------------------------------------------------
    def format(self, superblock: Superblock) -> None:
        self.superblock = superblock
        self._summaries.clear()
        self._by_group.clear()
        self._sequence = 0

    def next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    def write_summary(self, summary: SegmentSummary,
                      torn: bool = False) -> None:
        """Persist a segment summary; ``torn`` simulates a crash that
        interrupted the segment write after MS but before ME."""
        if torn:
            summary.me_generation = summary.generation - 1
        self._summaries[(summary.sg, summary.segment)] = summary
        self._by_group.setdefault(summary.sg, set()).add(summary.segment)

    def seal_summary(self, sg: int, segment: int) -> None:
        """Persist the trailing ME block: MS and ME now agree.

        SRC writes the summary MS-first (torn) before issuing the
        segment's unit writes and seals it after they complete, so a
        power cut mid-segment-write durably leaves a torn summary —
        exactly the state crash recovery must discard.
        """
        summary = self._summaries.get((sg, segment))
        if summary is not None:
            summary.me_generation = summary.generation

    def read_summary(self, sg: int, segment: int) -> Optional[SegmentSummary]:
        return self._summaries.get((sg, segment))

    def discard_summary(self, sg: int, segment: int) -> None:
        """Drop one segment's summary (recovery discards torn segments)."""
        self._summaries.pop((sg, segment), None)
        self._by_group.get(sg, set()).discard(segment)

    def drop_group(self, sg: int) -> None:
        """Reclaiming an SG invalidates its summaries (log trim)."""
        for segment in self._by_group.pop(sg, ()):
            del self._summaries[(sg, segment)]

    def all_summaries(self) -> List[SegmentSummary]:
        """Summaries in log order — what a recovery scan discovers."""
        return sorted(self._summaries.values(), key=lambda s: s.sequence)

    def __len__(self) -> int:
        return len(self._summaries)
