"""Software RAID over simulated block devices (md analogue).

Implements the RAID levels the paper evaluates beneath Bcache and
Flashcache (Figure 1, Figure 7) and inside SRC comparisons: RAID-0
striping, RAID-1 striped mirrors, and parity RAID-4/-5 with the classic
small-write problem — partial-stripe writes pay read-modify-write or
reconstruct-write, whichever touches fewer members (§2.2, §3.2).

Redundant arrays survive a single member failure per redundancy group:
reads of the lost member are reconstructed from the survivors (parity)
or served by the mirror (RAID-1), and writes proceed degraded.  Each
member slot tracks ``HEALTHY → DEGRADED → FAILED`` health in the shared
:class:`~repro.repair.health.HealthTracker`: a fail-stop (or an
exhausted retry budget) degrades the slot, and losing the copy that
covered it fails it.  The paper never resilvers an md array, so there
is no rebuild here; online repair is SRC's
(:class:`~repro.repair.controller.RepairController`, §4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.block.device import BlockDevice
from repro.common.errors import (ConfigError, DeviceFailedError,
                                 RaidDegradedError, RequestTimeoutError)
from repro.common.types import FLUSH, READ, TRIM, WRITE, Request
from repro.common.units import KIB
from repro.faults.policy import DEFAULT_RETRY, RetryPolicy
from repro.faults.policy import submit_with_retry
from repro.obs.events import DegradedRead, HealthTransition
from repro.repair.health import DeviceHealth, HealthTracker


@dataclass(frozen=True)
class _Extent:
    """A chunk-aligned piece of a request mapped onto one stripe."""

    stripe: int       # stripe row index
    chunk: int        # logical data-chunk index within the stripe
    offset: int       # byte offset within the chunk
    length: int


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

        def count_retry(_attempt: int) -> None:
            self.member_retries += 1

        try:
            return submit_with_retry(member, req, now, self.retry_policy,
                                     obs=self.obs, on_retry=count_retry)
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

    # -- failure handling ---------------------------------------------
    def _covers(self, member: int) -> bool:
        """Whether the level still holds a copy of ``member``'s data."""
        return False   # RAID-0: no redundancy

    def _on_member_failed(self, index: int, now: float) -> None:
        state = self.health.state(index)
        if state is DeviceHealth.HEALTHY:
            self._transition(index, DeviceHealth.DEGRADED, now, "fail-stop")
            state = DeviceHealth.DEGRADED
        if state is DeviceHealth.DEGRADED and not self._covers(index):
            self._transition(index, DeviceHealth.FAILED, now,
                             "no surviving copy")

    def _extents(self, req: Request) -> Iterator[_Extent]:
        offset, remaining = req.offset, req.length
        while remaining > 0:
            logical_chunk = offset // self.chunk_size
            within = offset % self.chunk_size
            take = min(self.chunk_size - within, remaining)
            yield _Extent(
                stripe=logical_chunk // self.data_members,
                chunk=logical_chunk % self.data_members,
                offset=within,
                length=take,
            )
            offset += take
            remaining -= take

    def _flush_all(self, now: float) -> float:
        end = now
        for i, m in enumerate(self.members):
            if m.failed:
                continue
            try:
                end = max(end, self._member_submit(i, Request(FLUSH), now))
            except DeviceFailedError:
                continue   # a flush can't lose data we still hold
        return end


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
        end = now
        for ext in self._extents(req):
            off = ext.stripe * self.chunk_size + ext.offset
            sub = Request(req.op, off, ext.length, req.fua, req.origin,
                          req.tenant)
            # No redundancy: a member lost after retries is fatal.
            end = max(end, self._member_submit(ext.chunk, sub, now))
        return end


class Raid1Device(_RaidBase):
    """Striped mirrors (the paper's 4-SSD RAID-1: capacity = N/2)."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = "raid1"):
        if len(members) < 2 or len(members) % 2:
            raise ConfigError("RAID-1 needs an even number (>=2) of members")
        super().__init__(members, len(members) // 2, chunk_size, name)
        self._read_toggle = 0

    def _covers(self, member: int) -> bool:
        return self._alive(member ^ 1)   # the other half of the pair

    def _service(self, req: Request, now: float) -> float:
        if req.op is FLUSH:
            return self._flush_all(now)
        end = now
        for ext in self._extents(req):
            off = ext.stripe * self.chunk_size + ext.offset
            sub = Request(req.op, off, ext.length, req.fua, req.origin,
                          req.tenant)
            pair = (2 * ext.chunk, 2 * ext.chunk + 1)
            if req.op is READ:
                alive = [i for i in pair if self._alive(i)]
                if not alive:
                    raise RaidDegradedError(
                        f"{self.name}: both mirrors of chunk dead")
                self._read_toggle ^= 1
                ordered = (alive[self._read_toggle % len(alive):]
                           + alive[:self._read_toggle % len(alive)])
                served = False
                for i in ordered:
                    try:
                        end = max(end, self._member_submit(i, sub, now))
                        served = True
                        break
                    except DeviceFailedError:
                        continue   # fall back to the other mirror
                if not served:
                    raise RaidDegradedError(
                        f"{self.name}: both mirrors of chunk dead")
            else:
                wrote = False
                for i in pair:
                    if not self._alive(i):
                        continue
                    try:
                        end = max(end, self._member_submit(i, sub, now))
                        wrote = True
                    except DeviceFailedError:
                        continue
                if not wrote and req.op is WRITE:
                    raise RaidDegradedError(
                        f"{self.name}: both mirrors of chunk dead")
        return end


class _ParityRaid(_RaidBase):
    """Common machinery for RAID-4 and RAID-5."""

    def __init__(self, members: List[BlockDevice], chunk_size: int,
                 name: str):
        if len(members) < 3:
            raise ConfigError("parity RAID needs >=3 members")
        super().__init__(members, len(members) - 1, chunk_size, name)
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

    def _read(self, req: Request, now: float) -> float:
        failed = self._failed_members()
        if len(failed) > 1:
            raise RaidDegradedError(f"{self.name}: {len(failed)} members down")
        end = now
        for ext in self._extents(req):
            member_idx = self._data_member(ext.stripe, ext.chunk)
            off = ext.stripe * self.chunk_size + ext.offset
            if self._alive(member_idx):
                sub = Request(READ, off, ext.length, False, req.origin)
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
                    f"{self.name}: stripe {ext.stripe} is not "
                    "reconstructable")
            if self.obs.enabled:
                self.obs.emit(DegradedRead(
                    t=now, device=self.name,
                    lba=(ext.stripe * self.data_members + ext.chunk)))
            sub = Request(READ, ext.stripe * self.chunk_size,
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
        failed = self._failed_members()
        if len(failed) > 1:
            raise RaidDegradedError(f"{self.name}: {len(failed)} members down")
        end = now
        for stripe, extents in self._group_by_stripe(req):
            end = max(end, self._write_stripe(stripe, extents, req, now))
        return end

    def _group_by_stripe(self, req: Request):
        grouped: List[Tuple[int, List[_Extent]]] = []
        for ext in self._extents(req):
            if grouped and grouped[-1][0] == ext.stripe:
                grouped[-1][1].append(ext)
            else:
                grouped.append((ext.stripe, [ext]))
        return grouped

    def _write_stripe(self, stripe: int, extents: List[_Extent],
                      req: Request, now: float) -> float:
        """Write one stripe's worth of data plus parity maintenance."""
        touched = {ext.chunk for ext in extents}
        full_chunks = {ext.chunk for ext in extents
                       if ext.offset == 0 and ext.length == self.chunk_size}
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

        for ext in extents:
            idx = self._data_member(stripe, ext.chunk)
            if self._alive(idx):
                sub = Request(WRITE, stripe_off + ext.offset, ext.length,
                              req.fua, req.origin)
                end = max(end, self._degradable_submit(idx, sub, write_start))
        if self._alive(parity_idx):
            # Parity is rewritten for the stripe span that changed.
            span = max(ext.offset + ext.length for ext in extents)
            base = min(ext.offset for ext in extents)
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
        end = now
        for ext in self._extents(req):
            idx = self._data_member(ext.stripe, ext.chunk)
            if self._alive(idx):
                off = ext.stripe * self.chunk_size + ext.offset
                try:
                    end = max(end, self._member_submit(
                        idx, Request(TRIM, off, ext.length, False,
                                     req.origin), now))
                except DeviceFailedError:
                    continue   # TRIM to a dying member loses nothing
        return end


class Raid4Device(_ParityRaid):
    """Dedicated parity member (the last one)."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = "raid4"):
        super().__init__(members, chunk_size, name)

    def _parity_member(self, stripe: int) -> int:
        return len(self.members) - 1


class Raid5Device(_ParityRaid):
    """Rotating parity (left-symmetric)."""

    def __init__(self, members: List[BlockDevice], chunk_size: int = 4 * KIB,
                 name: str = "raid5"):
        super().__init__(members, chunk_size, name)

    def _parity_member(self, stripe: int) -> int:
        return (len(self.members) - 1 - stripe) % len(self.members)


def make_raid(level: int, members: List[BlockDevice],
              chunk_size: int = 4 * KIB) -> BlockDevice:
    """Factory for the RAID levels used in the paper's experiments."""
    if level == 0:
        return Raid0Device(members, chunk_size)
    if level == 1:
        return Raid1Device(members, chunk_size)
    if level == 4:
        return Raid4Device(members, chunk_size)
    if level == 5:
        return Raid5Device(members, chunk_size)
    raise ConfigError(f"unsupported RAID level {level}")
