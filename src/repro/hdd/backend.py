"""Primary storage: RAID-10 disk array behind an iSCSI link.

Reproduces the paper's backend (Table 1): eight 2 TB 7.2K RPM disks in
RAID-10, exported over 1 Gbps iSCSI.  The network link serializes all
transfers (1 Gbps ~ 117 MiB/s); the array is the md layer's striped
mirror, :class:`~repro.raid.array.Raid1Device`, which stripes across
mirror pairs, balances reads between mirror halves and survives the
loss of one disk per pair.
"""

from __future__ import annotations

from typing import List

from repro.block.device import BlockDevice
from repro.common.types import FLUSH, READ, WRITE, Request
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.obs.events import FlushBarrier
from repro.raid.array import Raid1Device
from repro.sim.timeline import Link
from repro.common.units import KIB, USEC

# Table 1: 1 Gbps iSCSI, 200 us round trip; RAID-10 in 64 KiB chunks.
NETWORK_BW = 125e6
NETWORK_LATENCY = 200 * USEC
CHUNK_SIZE = 64 * KIB


class PrimaryStorage(BlockDevice):
    """The iSCSI-attached backend volume."""

    def __init__(self, n_disks: int = 8, disk_spec: DiskSpec = DiskSpec(),
                 name: str = "primary"):
        disks = [DiskDevice(disk_spec, name=f"{name}-disk{i}")
                 for i in range(n_disks)]
        self.array = Raid1Device(disks, CHUNK_SIZE, name=f"{name}-raid10")
        super().__init__(self.array.size, name)
        self.link = Link(NETWORK_BW, NETWORK_LATENCY)

    @property
    def disks(self) -> List[DiskDevice]:
        return self.array.members

    def _service(self, req: Request, now: float) -> float:
        op = req.op
        if op is READ:     # the link carries the data back
            return self.link.transfer(self.array.read_chunk(req, now),
                                      req.length)[1]
        if op is FLUSH:
            if self.obs.enabled:
                self.obs.emit(FlushBarrier(t=now, device=self.name))
            # A command frame on the link, then the array.
            return self.array.submit(req, self.link.transfer(now, 64)[1])
        if op is WRITE:
            return self.array.submit(req, self.link.transfer(now,
                                                             req.length)[1])
        return self.array.submit(req, now)  # TRIM

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """WRITE batches: the serialized link as a column, whose ends
        are the array's issue times."""
        if op is not WRITE:
            return None
        return self.array.submit_extents(
            op, offsets, lengths, self.link.transfer_many(nows, lengths),
            origin, tenants)
