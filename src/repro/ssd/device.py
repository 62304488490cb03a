"""Timed SSD block device: FTL + resource timelines + failure injection.

Timing model
------------
Two resources per drive:

* the **host link** (SATA/PCIe): serialized, per-command latency plus
  ``bytes / interface bandwidth``;
* the **NAND backend**: an aggregate pipeline whose throughput equals
  the drive's internal read/program bandwidth (channel parallelism is
  folded into the bandwidth figure).

Writes land in the volatile DRAM buffer and are acknowledged once the
host transfer finishes *and* the NAND backlog fits in the buffer — so
bursts are absorbed but sustained throughput converges to the NAND
program bandwidth divided by the FTL's write amplification, which is
exactly the behaviour Figures 2 and 4 of the paper rest on.  FLUSH
drains the backlog and pays a fixed checkpoint penalty, reproducing the
flush-cost findings of Table 3.
"""

from __future__ import annotations

import heapq
from typing import Optional, Set

import numpy as np

from repro.block.device import BlockDevice
from repro.block.lifecycle import QueuedDevice
from repro.common.chunks import DECLINED, conformant_mask
from repro.common.errors import DeviceFailedError
from repro.common.types import (FLUSH, FOREGROUND, READ, TRIM, WRITE,
                                IoOrigin, Request)
from repro.common.units import PAGE_SIZE
from repro.obs.events import FlushBarrier
from repro.sim.timeline import Link, Timeline
from repro.ssd.ftl import FtlOpResult, PageMappedFtl
from repro.ssd.spec import SsdSpec


class SSDDevice(QueuedDevice, BlockDevice):
    """One simulated SSD with a bounded host command queue."""

    def __init__(self, spec: SsdSpec, name: str = ""):
        super().__init__(spec.capacity, name or spec.name)
        self.init_queue(spec.queue_depth)
        self.spec = spec
        self.ftl = self._blank_ftl()
        self.link = Link(spec.interface_write_bw, spec.interface_latency)
        self.read_link = Link(spec.interface_read_bw, spec.interface_latency)
        self.nand = Timeline(1)
        # Host reads are serviced at read priority: controllers suspend
        # or interleave programs so reads do not queue behind the whole
        # buffered-write backlog.  Separate timeline = full priority.
        self.nand_reads = Timeline(1)
        self.failed = False     # per request: faster than the class default
        self._buffer_slack = spec.buffer_size / spec.nand_prog_bw
        self._corrupted_pages: Set[int] = set()

    # ------------------------------------------------------------------
    # the fault surface (BlockDevice's; a failed drive raises on I/O)
    # ------------------------------------------------------------------
    def repair(self, wipe: bool = True) -> None:
        """Bring a replacement drive online (optionally blank)."""
        self.failed = False
        if wipe:
            self.ftl = self._blank_ftl()
            self.ftl.obs = self.obs   # keep any attached recorder
            self._corrupted_pages.clear()

    def _blank_ftl(self) -> PageMappedFtl:
        spec = self.spec
        ftl = PageMappedFtl(logical_pages=spec.logical_pages,
                            physical_pages=spec.physical_pages,
                            superblock_pages=spec.superblock_pages)
        ftl.owner = self.name
        return ftl

    def inject_corruption(self, offset: int, length: int) -> None:
        """Silently corrupt the stored data in a logical byte range."""
        self._corrupted_pages.update(Request(READ, offset, length).pages())

    def corrupted_in(self, offset: int, length: int) -> Set[int]:
        """Corrupted logical page numbers inside a byte range."""
        if not self._corrupted_pages:      # every read hit asks
            return set()
        span = set(Request(READ, offset, length).pages())
        return span & self._corrupted_pages

    def clear_corruption(self, offset: int, length: int) -> None:
        self._corrupted_pages -= set(Request(READ, offset, length).pages())

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def write_amplification(self) -> float:
        return self.ftl.counters.write_amplification

    @property
    def pages_programmed(self) -> int:
        return self.ftl.counters.total_pages_programmed

    @property
    def bytes_programmed(self) -> int:
        return self.pages_programmed * self.spec.page_size

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _service(self, req: Request, now: float) -> float:
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        op = req.op
        if op is FLUSH:
            return self._flush(now)
        if op is TRIM:
            return self._trim(req, now)
        if op is READ:
            return self._read(req.offset, req.length, req.origin, now)
        return self._write(req.offset, req.length, req.fua, now)

    def _write(self, offset: int, length: int, fua: bool, now: float,
               result: Optional[FtlOpResult] = None) -> float:
        if not length:
            return self._command_only(now)
        spec = self.spec
        if result is None:      # else the caller writes the FTL later
            page = spec.page_size
            first = offset // page
            if self.obs.enabled:
                self.ftl.clock = now
            result = self.ftl.write(
                first, (offset + length + page - 1) // page - first)
        # Overwrites scrub any injected corruption for the range.
        if self._corrupted_pages:
            self.clear_corruption(offset, length)
        # Programming is pipelined with the host transfer: NAND work can
        # start as soon as the first pages stream into the DRAM buffer.
        # Link.transfer and Timeline.acquire on single servers, inline as
        # in _pipeline; GC work always ends in an erase, and without one
        # _nand_cost's other terms would add +0.0.
        link, xfer, nand = self.link, self.link._timeline, self.nand
        link.bytes_moved += length
        duration = link.latency + length / link.bandwidth
        free = xfer._free[0]
        xfer_begin = now if now > free else free
        xfer_end = xfer._free[0] = xfer_begin + duration
        xfer.busy_time += duration
        nand_time = (self._nand_cost(result.host_pages, result.gc_read_pages,
                                     result.gc_prog_pages, result.erases)
                     if result.erases else
                     result.host_pages * spec.page_size / spec.nand_prog_bw)
        free = nand._free[0]
        nand_end = nand._free[0] = (xfer_begin if xfer_begin > free
                                    else free) + nand_time
        nand.busy_time += nand_time
        nand_end = nand_end if nand_end >= xfer_end else xfer_end
        if fua:
            return nand.acquire(nand_end, spec.flush_latency)[1]
        # Ack when the transfer is in and the backlog fits the buffer.
        return max(xfer_end, nand_end - self._buffer_slack)

    def _nand_cost(self, host_pages, gc_read_pages, gc_prog_pages, erases):
        """NAND time of a write's flash work (counts, or count columns)."""
        spec = self.spec
        page = spec.page_size
        cost = host_pages * page / spec.nand_prog_bw
        cost += gc_read_pages * page / spec.nand_read_bw
        cost += gc_prog_pages * page / spec.nand_prog_bw
        cost += erases * spec.erase_latency
        return cost

    def _read(self, offset: int, length: int, origin: IoOrigin,
              now: float) -> float:
        if not length:
            return self._command_only(now)
        page = self.spec.page_size
        first = offset // page
        npages = (offset + length + page - 1) // page - first
        self.ftl.read(first, npages)
        read_time = npages * page / self.spec.nand_read_bw
        # Only host (foreground) reads ride the read-priority pipeline;
        # internal moves — GC copies, destage reads, rebuild scans —
        # interleave with the program backlog so they never starve the
        # latency-sensitive path.
        pipeline = self.nand_reads if origin is FOREGROUND else self.nand
        nand_begin, nand_end = pipeline.acquire(now, read_time)
        # The outbound transfer streams behind the NAND reads: it starts
        # once the first page is in the buffer and cannot finish before
        # the last page has been read.
        first_page = self.spec.read_latency
        _, out_end = self.read_link.transfer(nand_begin + first_page, length)
        return max(nand_end, out_end)

    def _trim(self, req: Request, now: float) -> float:
        # Only pages the range covers whole are unmapped: the rest of a
        # partly covered page is live data.  A TRIM that covers none
        # still pays its command time.
        page = self.spec.page_size
        pages = req.whole_pages(page)
        if pages:
            self.ftl.trim(pages.start, len(pages))
            if self._corrupted_pages:
                self.clear_corruption(pages.start * page, len(pages) * page)
        return self._command_only(now)

    def _command_only(self, now: float) -> float:
        """A command that moves no data (TRIM, a zero-length READ or
        WRITE): link time only, no flash page touched."""
        return self.link.transfer(now, 512)[1]

    def _flush(self, now: float) -> float:
        drain = max(now, self.nand.drain_time())
        _, end = self.nand.acquire(drain, self.spec.flush_latency)
        if self.obs.enabled:
            self.obs.emit(FlushBarrier(t=now, device=self.name))
        return end

    # ------------------------------------------------------------------
    # lean batched entries (SRC seal path / chunk engine)
    # ------------------------------------------------------------------
    def submit_write_fast(self, offset: int, length: int, now: float,
                          origin: IoOrigin = IoOrigin.FOREGROUND,
                          staged: Optional[int] = None) -> float:
        """Lean WRITE submission: the write twin of ``submit_read_fast``
        (the SRC seal path's, ``fua`` not needed).  With ``staged`` pages
        the FTL write is the caller's, who found room for them
        (``ftl.fits``) and programs them later (``ftl.write_extents``):
        every time is still ``submit``'s."""
        stats = self.stats
        stats.write_ops += 1
        stats.write_bytes += length
        key = origin._value_
        stats.bytes_by_origin[key] = stats.bytes_by_origin.get(key, 0) + length
        begin = self._admit(None, now)
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        done = self._write(offset, length, False, begin,
                           None if staged is None else FtlOpResult(staged))
        self._retire(None, now, begin, done)
        return done

    def submit_flush_fast(self, now: float) -> float:
        """Lean FLUSH submission; the barrier twin of
        :meth:`submit_write_fast` (obs off, guaranteed by the caller)."""
        self.stats.flush_ops += 1
        begin = self._admit(None, now)
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        done = self._flush(begin)
        self._retire(None, now, begin, done)
        return done

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """READ batches (reclaim's victim reads) and WRITE batches
        (copy-forward unit writes): the FTL and durations as columns,
        then ``submit``'s queue / NAND / link recurrences over plain
        floats in extent order, so every float is the loop's.
        Telemetry, other ops and zero-length commands take the loop."""
        if (op not in (READ, WRITE) or self.obs.enabled
                or not lengths.all()):
            return None
        if self.failed:
            raise DeviceFailedError(f"{self.name} has failed")
        spec = self.spec
        page = spec.page_size
        first = offsets // page
        npages = (offsets + lengths + page - 1) // page - first
        if op is READ:
            self.ftl.read_extents(first, npages)
            # As _read: NAND first (only foreground reads ride read
            # priority), the outbound transfer from its first page on.
            link = self.read_link
            link.bytes_moved += int(lengths.sum())
            return self._pipeline(
                nows, self.nand_reads if origin is FOREGROUND
                else self.nand, npages * page / spec.nand_read_bw,
                link._timeline, link.latency + lengths / link.bandwidth,
                spec.read_latency, 0.0)
        costs = self.ftl.write_extents(first, npages)
        if self._corrupted_pages:          # overwrites scrub, as in _write
            for offset, length in zip(offsets.tolist(), lengths.tolist()):
                self.clear_corruption(offset, length)
        # As _write without FUA: the transfer first, NAND from its begin,
        # acked once the backlog fits the buffer.
        link = self.link
        link.bytes_moved += int(lengths.sum())
        return self._pipeline(
            nows, link._timeline, link.latency + lengths / link.bandwidth,
            self.nand, self._nand_cost(npages, *costs), 0.0,
            self._buffer_slack)

    def _pipeline(self, nows, first, first_times, second, second_times,
                  lag, slack) -> np.ndarray:
        """Per extent in order: a command slot as ``_admit`` / ``_retire``
        give it, ``first`` held ``first_times[i]`` from the slot's begin,
        ``second`` ``second_times[i]`` from ``lag`` past that; done at
        ``max(end1, max(end2, end1) - slack)``.  The heap's and
        acquire's floats inline, telemetry off; the completion column."""
        free1, busy1 = first._free[0], first.busy_time
        free2, busy2 = second._free[0], second.busy_time
        depth, qs = self.queue_depth, self.qstats
        # No depth limit: a throwaway heap that never fills stands in.
        q = self._inflight if depth else []
        depth = depth or len(nows) + 1
        pop, push, replace = heapq.heappop, heapq.heappush, heapq.heapreplace
        queued, delay, top, done = 0, qs.queue_delay_total, 0, []
        for now, d1, d2 in zip(nows.tolist(), first_times.tolist(),
                               second_times.tolist()):
            while q and q[0] <= now:
                pop(q)
            full = len(q) >= depth      # never more: _retire keeps it so
            begin = q[0] if full else now   # the earliest completion's slot
            begin1 = begin if begin > free1 else free1
            free1 = begin1 + d1
            busy1 += d1
            start = begin1 + lag
            free2 = (start if start > free2 else free2) + d2
            busy2 += d2
            end = (free2 if free2 > free1 else free1) - slack
            end = free1 if free1 > end else end
            if full:
                replace(q, end)
                queued += 1
                delay += begin - now
            else:
                push(q, end)
                top = len(q) if len(q) > top else top
            done.append(end)
        first._free[0], first.busy_time = free1, busy1
        second._free[0], second.busy_time = free2, busy2
        if self.queue_depth:
            qs.submissions += len(done)
            qs.queued_ops += queued
            qs.queue_delay_total = delay
            qs.max_outstanding = max(qs.max_outstanding, top)
        return np.array(done)

    def submit_chunk(self, rows, start: float, think_time: float,
                     deadline: float, limit: int):
        """Closed-loop window (engine ``issue_chunk`` hook).

        Serves the conformant prefix of ``rows`` — aligned single-page
        foreground writes, untenanted, in range — one
        :meth:`submit_write_fast` per row until ``deadline`` / ``limit``
        and returns ``(issue_times, done_times, n)``.  A non-conformant
        head row, a failed drive, observability, a negative think time
        or a flash page that is not the chunk format's ``PAGE_SIZE``
        declines to the scalar path.
        """
        if (self.failed or self.obs.enabled or think_time < 0.0
                or self.spec.page_size != PAGE_SIZE):
            return DECLINED
        if limit:
            rows = rows[:limit]
        conf = conformant_mask(rows, self.size)
        n_conf = len(rows) if conf.all() else int(np.argmin(conf))
        issue_times = []
        done_times = []
        t = start
        for offset in rows["offset"][:n_conf].tolist():
            if t >= deadline:
                break
            done = self.submit_write_fast(offset, PAGE_SIZE, t)
            issue_times.append(t)
            done_times.append(done)
            t = done + think_time
        if not issue_times:
            return DECLINED
        return (np.asarray(issue_times), np.asarray(done_times),
                len(issue_times))


def precondition(ssd: SSDDevice, fill_fraction: float = 1.0) -> None:
    """Sequentially fill a blank SSD so later writes hit steady-state
    GC (:meth:`PageMappedFtl.fill`, no simulated time).

    Mirrors the paper's preconditioning (§5.1): drives are TRIMmed, then
    sequentially filled with dummy data before measurement.
    """
    total_pages = int(ssd.spec.logical_pages * fill_fraction)
    if total_pages:
        ssd.ftl.fill(total_pages)
