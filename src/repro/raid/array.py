"""Software RAID over simulated block devices (md analogue).

Implements the RAID levels the paper evaluates beneath Bcache and
Flashcache (Figure 1, Figure 7) and inside SRC comparisons: RAID-0
striping, RAID-1 striped mirrors (also the backend's RAID-10 in
:class:`~repro.hdd.backend.PrimaryStorage`), and parity RAID-4/-5 with
the classic small-write problem — partial-stripe writes pay
read-modify-write or reconstruct-write, whichever touches fewer members
(§2.2, §3.2).

Redundant arrays survive a single member failure per redundancy group:
reads of the lost member are reconstructed from the survivors (parity)
or served by the mirror (RAID-1), and writes proceed degraded.  Each
member slot tracks ``HEALTHY → DEGRADED → FAILED`` health in the shared
:class:`~repro.repair.health.HealthTracker`: a fail-stop (or an
exhausted retry budget) degrades the slot, and losing the copy that
covered it fails it.  A member failed outside an I/O to the array
(``BlockDevice.fail()``) is recorded the same way by the first I/O
that meets it.  The paper never resilvers an md array, so there
is no rebuild here; online repair is SRC's
(:class:`~repro.repair.controller.RepairController`, §4.3).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import (ConfigError, DeviceFailedError,
                                 RaidDegradedError, RequestTimeoutError)
from repro.common.types import FLUSH, READ, TRIM, WRITE, Request
from repro.common.units import KIB
from repro.faults.policy import DEFAULT_RETRY, RetryPolicy
from repro.faults.policy import submit_with_retry
from repro.hdd.disk import DiskDevice
from repro.obs.events import DegradedRead, HealthTransition
from repro.repair.health import DeviceHealth, HealthTracker

Extent = Tuple[int, int, int, int]


class _RaidBase(BlockDevice):
    """Shared geometry/splitting logic for striped arrays."""

    def __init__(self, members: List[BlockDevice], data_members: int,
                 chunk_size: int, name: str):
        if chunk_size <= 0:
            raise ConfigError("chunk_size must be positive")
        member_size = min(m.size for m in members)
        super().__init__(member_size * data_members, name)
        self.members = members
        self.member_size = member_size
        self.data_members = data_members
        self.chunk_size = chunk_size
        self.stripes = member_size // chunk_size
        # Resilience: transient member errors are retried under this
        # policy; budget exhaustion converts the member to fail-stop.
        self.retry_policy: RetryPolicy = DEFAULT_RETRY
        self.member_retries = 0
        self.member_failstops = 0
        self.health = HealthTracker(len(members), device=name)

    def _transition(self, member: int, new: DeviceHealth, now: float,
                    reason: str) -> None:
        record = self.health.transition(member, new, now, reason)
        if self.obs.enabled:
            self.obs.emit(HealthTransition(
                t=now, device=self.name, member=member,
                old=record.old.value, new=record.new.value, reason=reason))

    def _alive(self, index: int) -> bool:
        return not self.members[index].failed

    def _member_submit(self, index: int, req: Request, now: float) -> float:
        """Submit to one member with bounded retry and backoff.

        A member that exhausts its retry budget is marked failed and a
        :class:`DeviceFailedError` is raised so redundancy-aware callers
        can fall back (mirror, reconstruction) or surface the loss.
        Either way the slot's health is updated first: it turns
        DEGRADED, or FAILED when nothing covers it any more.
        """
        member = self.members[index]
        try:
            return submit_with_retry(member, req, now, self.retry_policy,
                                     self.obs, self._count_retry)
        except RequestTimeoutError as exc:
            self.member_failstops += 1
            member.fail()
            self._on_member_failed(index, now)
            raise DeviceFailedError(
                f"{member.name}: retry budget exhausted "
                f"({self.retry_policy.max_attempts} attempts)") from exc
        except DeviceFailedError:
            self._on_member_failed(index, now)
            raise

    def _count_retry(self, _attempt: int) -> None:
        self.member_retries += 1

    def _try_submit(self, index: int, req: Request,
                    now: float) -> Optional[float]:
        """:meth:`_member_submit` to a live member; None where it is dead
        (recorded in its slot's health) or died under ``req``."""
        if self.members[index].failed:
            self._note_failed(index, now)
            return None
        try:
            return self._member_submit(index, req, now)
        except DeviceFailedError:
            return None

    # -- failure handling ---------------------------------------------
    def _covers(self, member: int) -> bool:
        """Whether the level still holds a copy of ``member``'s data."""
        return False   # RAID-0: no redundancy

    def _note_failed(self, index: int, now: float) -> None:
        """Record a member met already failed, once: its slot moves as
        a fail-stop during the I/O would have moved it."""
        if self.health.state(index) is DeviceHealth.HEALTHY:
            self._on_member_failed(index, now)

    def _on_member_failed(self, index: int, now: float) -> None:
        state = self.health.state(index)
        if state is DeviceHealth.HEALTHY:
            self._transition(index, DeviceHealth.DEGRADED, now, "fail-stop")
            state = DeviceHealth.DEGRADED
        if state is DeviceHealth.DEGRADED and not self._covers(index):
            self._transition(index, DeviceHealth.FAILED, now,
                             "no surviving copy")

    def _extents(self, req: Request) -> Iterator[Extent]:
        """``(stripe, chunk, within, length)`` per chunk-aligned piece
        of ``req``: its stripe row, its data chunk in the row, its byte
        offset in the chunk and its length."""
        cs, width = self.chunk_size, self.data_members
        offset, remaining = req.offset, req.length
        while remaining > 0:
            logical, within = offset // cs, offset % cs
            take = cs - within if cs - within < remaining else remaining
            yield logical // width, logical % width, within, take
            offset += take
            remaining -= take

    def _flush_all(self, now: float) -> float:
        # A flush can't lose data we still hold: a dead member is skipped.
        ends = [self._try_submit(i, Request(FLUSH), now)
                for i in range(len(self.members))]
        return max([now, *(end for end in ends if end is not None)])


class Raid0Device(_RaidBase):
    """Striping, no redundancy: full aggregate capacity and bandwidth."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = "raid0"):
        if len(members) < 2:
            raise ConfigError("RAID-0 needs >=2 members")
        super().__init__(members, len(members), chunk_size, name)

    def _service(self, req: Request, now: float) -> float:
        if req.op is FLUSH:
            return self._flush_all(now)
        cs, end = self.chunk_size, now
        for stripe, member, within, length in self._extents(req):
            sub = Request(req.op, stripe * cs + within, length, req.fua,
                          req.origin, req.tenant)
            # No redundancy: a member lost after retries is fatal.
            end = max(end, self._member_submit(member, sub, now))
        return end


class Raid1Device(_RaidBase):
    """Striped mirrors: members pair up ``(2p, 2p + 1)`` and the pairs
    are striped by chunk.  The paper's 4-SSD RAID-1 (capacity N/2) and
    its backend's 8-disk RAID-10 (Table 1) are both this array."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = "raid1"):
        if len(members) < 2 or len(members) % 2:
            raise ConfigError("RAID-1 needs an even number (>=2) of members")
        super().__init__(members, len(members) // 2, chunk_size, name)
        self._read_toggle = 0

    def _covers(self, member: int) -> bool:
        return self._alive(member ^ 1)   # the other half of the pair

    def _service(self, req: Request, now: float) -> float:
        op = req.op
        if op is FLUSH:
            return self._flush_all(now)
        cs, end = self.chunk_size, now
        for stripe, pair, within, length in self._extents(req):
            sub = Request(op, stripe * cs + within, length, req.fua,
                          req.origin, req.tenant)
            even = 2 * pair
            if op is READ:
                # Reads alternate halves, the first of a run the even one;
                # the other half is the fallback.
                self._read_toggle ^= 1
                order = ((even, even + 1) if self._read_toggle
                         else (even + 1, even))
            else:   # WRITE and TRIM go to both halves
                order = (even, even + 1)
            served = False
            for i in order:
                done = self._try_submit(i, sub, now)
                if done is not None:
                    end = done if done > end else end
                    served = True
                    if op is READ:
                        break
            if not served and op is not TRIM:
                raise RaidDegradedError(
                    f"{self.name}: both mirrors of chunk dead")
        return end

    def read_chunk(self, req: Request, now: float) -> float:
        """``submit`` of a READ, lean when it lies in one chunk and the
        toggle's half is a live plain disk (an origin miss); else
        ``submit``, which keeps retries, mirror fallback and slot health."""
        cs, offset, length = self.chunk_size, req.offset, req.length
        stripe, pair = divmod(offset // cs, self.data_members)
        member = self.members[2 * pair + self._read_toggle]
        within = offset % cs
        if (self.obs.enabled or not 0 < length <= cs - within
                or stripe >= self.stripes or member.failed
                or type(member) is not DiskDevice or member.obs.enabled):
            return self.submit(req, now)
        self._read_toggle ^= 1     # a plain disk has nothing to retry
        self.stats.record(req)
        return member.submit_read_fast(stripe * cs + within, length, now,
                                       req.origin)

    def _batch(self, op, offsets, lengths, nows, origin, tenants):
        """WRITE batches while every member is alive and has a batch
        body of its own: :meth:`_extents` as integer columns, each
        member handed its pieces in extent order, ``2p`` before
        ``2p + 1``.  READs (which toggle halves per piece), a dead
        member and one without a body (whose loop may need the array's
        retries) take the loop."""
        members = self.members
        if op is not WRITE or any(
                m.failed or type(m)._batch is BlockDevice._batch
                for m in members):
            return None
        n = offsets.shape[0]
        cs, ends = self.chunk_size, offsets + lengths
        first = offsets // cs
        # A zero-length extent reaches no member, wherever it starts.
        pieces = np.where(lengths > 0, (ends - 1) // cs - first + 1, 0)
        owner = np.repeat(np.arange(n), pieces)
        chunk = (first[owner] + np.arange(owner.shape[0])
                 - np.repeat(np.cumsum(pieces) - pieces, pieces))
        start = np.maximum(offsets[owner], chunk * cs)
        take = np.minimum(ends[owner], (chunk + 1) * cs) - start
        pairs = self.data_members
        pair = chunk % pairs
        pair_offset = chunk // pairs * cs + start % cs
        done = nows.copy()
        for p in range(pairs):
            sel = np.flatnonzero(pair == p)
            rows = owner[sel]
            tags = tenants and [tenants[i] for i in rows.tolist()]
            for member in members[2 * p:2 * p + 2]:
                np.maximum.at(done, rows, member.submit_extents(
                    op, pair_offset[sel], take[sel], nows[rows], origin,
                    tags))
        return done


class _ParityRaid(_RaidBase):
    """Common machinery for RAID-4 and RAID-5."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = ""):
        if len(members) < 3:
            raise ConfigError("parity RAID needs >=3 members")
        super().__init__(members, len(members) - 1, chunk_size,
                         name or f"raid{self.level}")
        # Metrics the experiments report on: extra I/O from parity upkeep.
        self.parity_writes = 0
        self.rmw_reads = 0

    def _parity_member(self, stripe: int) -> int:
        raise NotImplementedError

    def _data_member(self, stripe: int, chunk: int) -> int:
        """Physical member index holding data chunk ``chunk`` of ``stripe``."""
        parity = self._parity_member(stripe)
        return chunk if chunk < parity else chunk + 1

    def _covers(self, member: int) -> bool:
        return all(self._alive(i) for i in range(len(self.members))
                   if i != member)

    def _failed_members(self) -> List[int]:
        return [i for i in range(len(self.members)) if not self._alive(i)]

    # ------------------------------------------------------------------
    def _service(self, req: Request, now: float) -> float:
        if req.op is FLUSH:
            return self._flush_all(now)
        if req.op is READ:
            return self._read(req, now)
        if req.op is TRIM:
            return self._trim(req, now)
        return self._write(req, now)

    def _check_failed(self, now: float) -> None:
        """Record every dead member; raise if more than one is down."""
        failed = self._failed_members()
        if failed:
            for i in failed:
                self._note_failed(i, now)
            if len(failed) > 1:
                raise RaidDegradedError(
                    f"{self.name}: {len(failed)} members down")

    def _read(self, req: Request, now: float) -> float:
        self._check_failed(now)
        end = now
        for stripe, chunk, within, length in self._extents(req):
            member_idx = self._data_member(stripe, chunk)
            if self._alive(member_idx):
                sub = Request(READ, stripe * self.chunk_size + within,
                              length, False, req.origin)
                try:
                    end = max(end, self._member_submit(member_idx, sub, now))
                    continue
                except DeviceFailedError:
                    # The member died mid-read; reconstruct if we still can.
                    if len(self._failed_members()) > 1:
                        raise RaidDegradedError(
                            f"{self.name}: second member lost mid-read")
            # Degraded read: reconstruct from all surviving members.
            # Every other share of the stripe must be readable — a
            # second dead member leaves nothing to reconstruct from.
            sources = [i for i in range(len(self.members))
                       if i != member_idx]
            if not self._covers(member_idx):
                raise RaidDegradedError(
                    f"{self.name}: stripe {stripe} is not "
                    "reconstructable")
            if self.obs.enabled:
                self.obs.emit(DegradedRead(
                    t=now, device=self.name,
                    lba=(stripe * self.data_members + chunk)))
            sub = Request(READ, stripe * self.chunk_size,
                          self.chunk_size, False, req.origin)
            for i in sources:
                try:
                    end = max(end, self._member_submit(i, sub, now))
                except DeviceFailedError:
                    raise RaidDegradedError(
                        f"{self.name}: second member lost during "
                        "reconstruction")
        return end

    def _write(self, req: Request, now: float) -> float:
        self._check_failed(now)
        end = now
        for stripe, extents in groupby(self._extents(req), itemgetter(0)):
            end = max(end, self._write_stripe(stripe, list(extents), req,
                                              now))
        return end

    def _write_stripe(self, stripe: int, extents: List[Extent],
                      req: Request, now: float) -> float:
        """Write one stripe's worth of data plus parity maintenance."""
        touched = {chunk for _, chunk, _, _ in extents}
        full_chunks = {chunk for _, chunk, within, length in extents
                       if within == 0 and length == self.chunk_size}
        full_stripe = (len(full_chunks) == self.data_members)
        stripe_off = stripe * self.chunk_size
        parity_idx = self._parity_member(stripe)
        end = now

        if not full_stripe:
            # Choose between read-modify-write (read old data + old
            # parity) and reconstruct-write (read the untouched chunks).
            rmw_reads = len(touched) + 1
            rw_reads = self.data_members - len(full_chunks)
            if rmw_reads <= rw_reads:
                read_targets = [self._data_member(stripe, c) for c in touched]
                read_targets.append(parity_idx)
            else:
                read_targets = [self._data_member(stripe, c)
                                for c in range(self.data_members)
                                if c not in full_chunks]
            for idx in read_targets:
                if self._alive(idx):
                    sub = Request(READ, stripe_off, self.chunk_size, False,
                                  req.origin)
                    end = max(end, self._degradable_submit(idx, sub, now))
                    self.rmw_reads += 1
        write_start = end if not full_stripe else now

        for _, chunk, within, length in extents:
            idx = self._data_member(stripe, chunk)
            if self._alive(idx):
                sub = Request(WRITE, stripe_off + within, length,
                              req.fua, req.origin)
                end = max(end, self._degradable_submit(idx, sub, write_start))
        if self._alive(parity_idx):
            # Parity is rewritten for the stripe span that changed.
            span = max(within + length for _, _, within, length in extents)
            base = min(within for _, _, within, _ in extents)
            sub = Request(WRITE, stripe_off + base, span - base, req.fua,
                          req.origin)
            end = max(end,
                      self._degradable_submit(parity_idx, sub, write_start))
            self.parity_writes += 1
        return end

    def _degradable_submit(self, idx: int, req: Request, now: float) -> float:
        """Member submit that tolerates the first fail-stop conversion.

        With a single member down the stripe is still reconstructible,
        so the op proceeds (at zero added latency for the dead member);
        a second loss surfaces as :class:`RaidDegradedError`.
        """
        try:
            return self._member_submit(idx, req, now)
        except DeviceFailedError:
            if len(self._failed_members()) > 1:
                raise RaidDegradedError(
                    f"{self.name}: {len(self._failed_members())} members "
                    "down") from None
            return now

    def _trim(self, req: Request, now: float) -> float:
        end = now   # a TRIM to a dead or dying member loses nothing
        for stripe, chunk, within, length in self._extents(req):
            done = self._try_submit(
                self._data_member(stripe, chunk), Request(
                    TRIM, stripe * self.chunk_size + within, length, False,
                    req.origin), now)
            end = end if done is None else max(end, done)
        return end


class Raid4Device(_ParityRaid):
    """Dedicated parity member (the last one)."""

    level = 4

    def _parity_member(self, stripe: int) -> int:
        return len(self.members) - 1


class Raid5Device(_ParityRaid):
    """Rotating parity (left-symmetric)."""

    level = 5

    def _parity_member(self, stripe: int) -> int:
        return (len(self.members) - 1 - stripe) % len(self.members)


def make_raid(level: int, members: List[BlockDevice],
              chunk_size: int = 4 * KIB) -> BlockDevice:
    """Factory for the RAID levels used in the paper's experiments."""
    levels = {0: Raid0Device, 1: Raid1Device, 4: Raid4Device, 5: Raid5Device}
    if level not in levels:
        raise ConfigError(f"unsupported RAID level {level}")
    return levels[level](members, chunk_size)
