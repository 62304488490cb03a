"""Primary storage: RAID-10 disk array behind an iSCSI link.

Reproduces the paper's backend (Table 1): eight 2 TB 7.2K RPM disks in
RAID-10, exported over 1 Gbps iSCSI.  The network link serializes all
transfers (1 Gbps ~ 117 MiB/s), the array stripes across mirror pairs
and balances reads between mirror halves.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.common.types import FLUSH, READ, WRITE, Request
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.obs.events import FlushBarrier
from repro.sim.timeline import Link
from repro.common.units import KIB, USEC


class Raid10Array(BlockDevice):
    """Striped mirrors: disks are paired, pairs are striped."""

    def __init__(self, disks: List[DiskDevice], chunk_size: int = 64 * KIB,
                 name: str = "raid10"):
        if len(disks) < 2 or len(disks) % 2:
            raise ConfigError("RAID-10 needs an even number (>=2) of disks")
        pairs = len(disks) // 2
        super().__init__(disks[0].size * pairs, name)
        self.disks = disks
        self.pairs = pairs
        self.chunk_size = chunk_size
        self._read_toggle = 0

    def _split(self, req: Request):
        """Yield (pair_index, pair_offset, length) chunks of the request."""
        offset, remaining = req.offset, req.length
        while remaining > 0:
            chunk_index = offset // self.chunk_size
            within = offset % self.chunk_size
            take = min(self.chunk_size - within, remaining)
            pair = chunk_index % self.pairs
            row = chunk_index // self.pairs
            pair_offset = row * self.chunk_size + within
            yield pair, pair_offset, take
            offset += take
            remaining -= take

    def _service(self, req: Request, now: float) -> float:
        if req.op is FLUSH:
            return max(d.submit(Request(FLUSH), now) for d in self.disks)
        end = now
        for pair, pair_offset, length in self._split(req):
            mirror_a = self.disks[2 * pair]
            mirror_b = self.disks[2 * pair + 1]
            sub = Request(req.op, pair_offset, length, req.fua, req.origin,
                          req.tenant)
            if req.op is READ:
                self._read_toggle ^= 1
                disk = mirror_a if self._read_toggle else mirror_b
                end = max(end, disk.submit(sub, now))
            else:  # WRITE and TRIM go to both mirror halves
                end = max(end, mirror_a.submit(sub, now))
                end = max(end, mirror_b.submit(sub, now))
        return end

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """WRITE batches: :meth:`_split` as integer columns, each
        mirror handed its pieces in extent order, ``2p`` before
        ``2p + 1``; READs toggle mirrors per piece and take the loop."""
        if op is not WRITE:
            return None
        n = offsets.shape[0]
        cs, ends = self.chunk_size, offsets + lengths
        first = offsets // cs
        # A zero-length extent reaches no disk, wherever it starts.
        pieces = np.where(lengths > 0, (ends - 1) // cs - first + 1, 0)
        owner = np.repeat(np.arange(n), pieces)
        chunk = (first[owner] + np.arange(owner.shape[0])
                 - np.repeat(np.cumsum(pieces) - pieces, pieces))
        start = np.maximum(offsets[owner], chunk * cs)
        take = np.minimum(ends[owner], (chunk + 1) * cs) - start
        pair = chunk % self.pairs
        pair_offset = chunk // self.pairs * cs + start % cs
        done = nows.copy()
        for p in range(self.pairs):
            sel = np.flatnonzero(pair == p)
            rows = owner[sel]
            tags = tenants and [tenants[i] for i in rows.tolist()]
            for disk in self.disks[2 * p:2 * p + 2]:
                np.maximum.at(done, rows, disk.submit_extents(
                    op, pair_offset[sel], take[sel], nows[rows], origin,
                    tags))
        return done


class PrimaryStorage(BlockDevice):
    """The iSCSI-attached backend volume."""

    def __init__(self, n_disks: int = 8, disk_spec: DiskSpec = DiskSpec(),
                 network_bw: float = 125e6, network_latency: float = 200 * USEC,
                 chunk_size: int = 64 * KIB, name: str = "primary"):
        disks = [DiskDevice(disk_spec, name=f"{name}-disk{i}")
                 for i in range(n_disks)]
        self.array = Raid10Array(disks, chunk_size, name=f"{name}-raid10")
        super().__init__(self.array.size, name)
        self.link = Link(network_bw, network_latency)

    @property
    def disks(self) -> List[DiskDevice]:
        return self.array.disks

    def _service(self, req: Request, now: float) -> float:
        op = req.op
        if op is FLUSH:
            if self.obs.enabled:
                self.obs.emit(FlushBarrier(t=now, device=self.name))
            _, link_end = self.link.transfer(now, 64)  # command frame
            return self.array.submit(req, link_end)
        if op is WRITE:
            _, link_end = self.link.transfer(now, req.length)
            return self.array.submit(req, link_end)
        if op is READ:
            array_end = self.array.submit(req, now)
            _, link_end = self.link.transfer(array_end, req.length)
            return link_end
        return self.array.submit(req, now)  # TRIM

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """WRITE batches: the serialized link as a column, whose ends
        are the array's issue times."""
        if op is not WRITE:
            return None
        return self.array.submit_extents(
            op, offsets, lengths, self.link.transfer_many(nows, lengths),
            origin, tenants)
