"""Free-space reclamation (paper §4.2).

When free segment groups run low, :class:`Reclaimer` picks a closed
group (FIFO, Greedy or cost-benefit) and empties it.  *S2D* destages
the victim's dirty blocks to primary storage and drops its clean ones;
*S2S* — Sel-GC's choice while utilization is at or below ``UMAX`` —
copies dirty and hot clean blocks forward and drops only cold clean
data.  The group is then TRIMmed and returned to the free list.

There is one implementation, over arrays: a victim is its live LBAs in
log order plus their dirty bits, classification is masks over them,
and device traffic is coalesced extents: a member's READ spans as one
``Members.issue`` call, the write-back as one ``submit_extents`` batch.
Tenant reservations, fail-stopped members and rebuilding spares are
masks too, and a victim of three blocks takes the same path as one of
three thousand.  ``tests/test_reclaim_golden.py`` pins the outcome.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.chunks import run_bounds
from repro.common.types import (DESTAGE, FOREGROUND, GC, READ, TRIM, WRITE,
                                IoOrigin)
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_MAPPED
from repro.core.config import GcScheme, VictimPolicy
from repro.core.members import latest
from repro.obs.events import Destage, GcEnd, GcStart


class Reclaimer:
    """Victim selection and group collection for one ``SrcCache``."""

    def __init__(self, cache) -> None:
        self.cache = cache
        # True inside reclaim_until: segment writes issued meanwhile
        # are GC traffic and must not start a nested reclaim.
        self.running = False

    def pick_victim(self) -> Optional[int]:
        cache = self.cache
        closed = cache.segments._closed_fifo
        if not closed:
            return None
        policy = cache.config.reclaim.victim_policy
        if policy is VictimPolicy.FIFO:
            return closed[0]
        if policy is VictimPolicy.COST_BENEFIT:
            return max(closed, key=self.cost_benefit_score)
        return min(closed, key=cache.mapping.sg_valid_count)

    def cost_benefit_score(self, sg: int) -> float:
        """LFS cost-benefit: age x (1 - u) / (1 + u), higher is better
        (age in SG allocation epochs since the group was opened,
        utilization its valid fraction)."""
        cache = self.cache
        capacity = (cache.layout.segments_per_group
                    * cache.layout.dirty_segment_capacity())
        u = min(1.0, cache.mapping.sg_valid_count(sg) / capacity)
        log = cache.segments
        age = max(1, log._sg_sequence - log.groups[sg].sequence)
        return age * (1.0 - u) / (1.0 + u)

    def reclaim_until(self, target_free: int, now: float,
                      force_s2d: bool = False) -> float:
        free = self.cache.segments._free
        self.running = True
        try:
            end = now
            stalled = 0
            while len(free) < target_free:
                victim = self.pick_victim()
                if victim is None:
                    break
                before = len(free)
                # S2S copies everything forward when a victim is fully
                # hot/dirty, gaining no space; after two stalled victims
                # fall back to S2D, which always frees (§4.2's UMAX bound
                # exists for exactly this pressure regime).  Reservation
                # protection survives that first escalation — destaging
                # unprotected dirty data usually frees plenty — and is
                # shed only if even protected S2D stalls twice more, so
                # reclaim can always make progress in the worst case.
                end = self.collect_group(victim, end,
                                         force_s2d=force_s2d or stalled >= 2,
                                         protect=stalled < 4)
                stalled = stalled + 1 if len(free) <= before else 0
            return end
        finally:
            self.running = False

    def collect_group(self, victim: int, now: float, force_s2d: bool = False,
                      protect: bool = True) -> float:
        """Reclaim one segment group by S2D or Sel-GC rules."""
        cache = self.cache
        cfg = cache.config.reclaim
        lbas, dirty = cache.mapping.sg_blocks_arrays(victim)
        n_valid = lbas.shape[0]
        if cache.obs.enabled:
            cache.obs.emit(GcStart(t=now, device=cache.name, victim=victim,
                                   valid_pages=n_valid))
        if (not force_s2d and cfg.gc_scheme is GcScheme.SEL_GC
                and cache.utilization() <= cfg.u_max):
            end = self._collect_s2s(lbas, dirty, now)
            cache.srcstats.s2s_collections += 1
        else:
            end = self._collect_s2d(lbas, dirty, now, protect)
            cache.srcstats.s2d_collections += 1
        # Everything left in the SG is dead now.
        cache.mapping.drop_sg(victim)
        cache.metadata.drop_group(victim)
        cache.repair.on_group_dropped(victim, end)
        end = max(end, self._trim_group(victim, end))
        cache.segments.release_group(victim, ready_at=end)
        cache.srcstats.background_reclaims += 1
        if cache.obs.enabled:
            cache.obs.emit(GcEnd(t=end, device=cache.name, victim=victim,
                                 moved_pages=n_valid))
        return end

    def _reserved(self, lbas: np.ndarray) -> np.ndarray:
        """Mask of the drop candidates (in victim log order) a tenant
        reservation keeps."""
        tenants = self.cache.tenants
        if tenants is None:
            return np.zeros(lbas.shape[0], dtype=bool)
        return tenants.reserved_mask(lbas)

    def _collect_s2s(self, lbas: np.ndarray, dirty: np.ndarray,
                     now: float) -> float:
        """Copy dirty + hot clean blocks forward; drop cold clean ones.

        Cold clean blocks of a tenant at or below its reservation are
        copied too: evicting them would break its ``min_share``.  The
        future-work ``separate_hot_clean`` option (§6) only changes the
        copy order — clean and dirty never share a segment anyway.
        """
        cache = self.cache
        cfg = cache.config.reclaim
        if cfg.hotness_aware:        # the ablation copies blindly
            hot = cache.hotness.is_hot_many(lbas)
            keep = dirty | hot
            # No clean block keeps its bit: hot survivors consume their
            # second chance, and whatever is dropped below was cold.
            cache.hotness.evict_many(lbas[~dirty])
            cold = ~keep
            keep[cold] = self._reserved(lbas[cold])
            cache.srcstats.gc_reserved_copies += int(keep[cold].sum())
            dropped = lbas.shape[0] - int(keep.sum())
            cache.cstats.evicted_clean_blocks += dropped
            cache.srcstats.gc_dropped_clean += dropped
            lbas, dirty = lbas[keep], dirty[keep]
        # Only the blocks being kept need to be read off the victim.
        read_end = self.victim_read(lbas, now, GC)
        if cfg.separate_hot_clean:
            order = np.argsort(dirty, kind="stable")
            lbas, dirty = lbas[order], dirty[order]
        cache.srcstats.gc_copied_blocks += lbas.shape[0]
        end = self._copy_forward(lbas, dirty, read_end, now)
        # Copied dirty blocks must be durable again BEFORE the victim's
        # summaries are dropped: until the new segment seals, the old
        # segment is their only persistent copy, and a power cut in
        # that window would lose acknowledged dirty data.  Clean blocks
        # need no such care — the origin still holds them.
        if dirty.any() and not cache.dirty_buf.empty:
            end = max(end, cache.segments.seal(dirty=True,
                                               now=max(end, read_end)))
        return max(end, read_end)

    def _collect_s2d(self, lbas: np.ndarray, dirty: np.ndarray, now: float,
                     protect: bool) -> float:
        """Destage dirty blocks to primary storage; drop clean blocks.

        Under ``protect``, blocks of a tenant at or below its
        reservation stay cached: dropping them would turn a guaranteed
        footprint into origin re-read churn.  Reservation guarantees
        *residency*, not dirtiness — a protected dirty block is
        destaged like any other (the origin copy is what lets S2D free
        the group) and re-enters the cache as clean, data in hand.
        """
        cache = self.cache
        end = self.destage(np.sort(lbas[dirty]), now)
        keep = (self._reserved(lbas) if protect
                else np.zeros(lbas.shape[0], dtype=bool))
        dropped = lbas[~dirty & ~keep]
        cache.cstats.evicted_clean_blocks += dropped.shape[0]
        cache.hotness.evict_many(dropped)
        if keep.any():
            keep_clean = lbas[keep & ~dirty]   # must be read off the victim
            read_end = self.victim_read(keep_clean, now, GC)
            kept = np.concatenate((keep_clean, lbas[keep & dirty]))
            cache.srcstats.gc_copied_blocks += kept.shape[0]
            cache.srcstats.gc_reserved_copies += kept.shape[0]
            end = self._copy_forward(kept, np.zeros(kept.shape[0], dtype=bool),
                                     max(read_end, end), end)
            end = max(end, read_end)
        return end

    def _copy_forward(self, lbas: np.ndarray, dirty: np.ndarray,
                      avail: float, end: float) -> float:
        """Re-log ``lbas`` in order through the buffer ``dirty`` selects.

        A run fills its buffer, which seals at ``avail`` (data in hand)
        with the whole segments after it as one batch that never enters
        the buffer; the remainder is buffered.  Mapping, buffers and
        tenant occupancy end where a block-by-block loop leaves them.
        Returns ``end`` advanced by the seals.
        """
        cache = self.cache
        if not lbas.shape[0]:
            return end
        # A mapped block is in no buffer, so every add is new.
        assert (cache._state.a[lbas] == B_MAPPED).all()
        for pos, stop in run_bounds(dirty[1:] != dirty[:-1]).tolist():
            to_dirty = bool(dirty[pos])
            buf = cache.dirty_buf if to_dirty else cache.clean_buf
            room = buf.capacity - len(buf)
            if stop - pos >= room:
                full = stop - (stop - pos - room) % buf.capacity
                cache.mapping.invalidate_many(lbas[pos:full])
                buf.add_many(lbas[pos:pos + room])
                end = max(end, cache.segments.seal(
                    dirty=to_dirty, now=avail, more=lbas[pos + room:full]))
                pos = full
            cache.mapping.invalidate_many(lbas[pos:stop])
            buf.add_many(lbas[pos:stop])
        return end

    def destage(self, lbas: np.ndarray, now: float) -> float:
        """Write sorted dirty ``lbas`` back to the origin, its extents
        as one batch.  Extents also break where the owning tenant
        changes, so each carries one tenant tag and bills its owner."""
        cache = self.cache
        n = lbas.shape[0]
        if not n:
            return now
        read_end = self.victim_read(lbas, now, DESTAGE)
        end = read_end
        breaks = np.diff(lbas) != 1
        tenants = cache.tenants
        names = None
        if tenants is not None:
            owners = tenants.owner_index(lbas)      # -1: the last name
            names = [*tenants.tenant_names(), None]
            breaks |= np.diff(owners) != 0
        starts, stops = run_bounds(breaks).T
        counts = stops - starts
        tags = [names[o] for o in owners[starts].tolist()] if names else None
        end = max(end, cache.origin.submit_extents(
            WRITE, lbas[starts] * PAGE_SIZE, counts * PAGE_SIZE, read_end,
            DESTAGE, tags).max().item())
        for tenant, count in zip(tags or (), counts.tolist()):
            if tenant is not None:
                tenants.count_destaged(tenant, count)
        cache.srcstats.gc_destaged_blocks += n
        cache.cstats.destaged_blocks += n
        if cache.obs.enabled:
            cache.obs.emit(Destage(t=end, device=cache.name, blocks=n))
        return end

    def victim_read(self, lbas: np.ndarray, now: float,
                    origin: IoOrigin = IoOrigin.GC) -> float:
        """Read mapped ``lbas`` off the SSDs, one READ per contiguous span.

        Blocks in a unit a rebuilding spare has not reconstructed yet
        are masked out before any I/O is issued.  Members are visited in
        first-block order and each gets its spans as one run at ``now``
        (``Members.issue``, which skips a fail-stopped member); a block
        failing its checksum is repaired in place then (the caller
        moves it).
        """
        cache = self.cache
        sgs, segments, ssds, offsets = cache.mapping.locations_arrays(lbas)
        if cache.repair.jobs:
            units, unit = np.unique(np.stack((ssds, sgs, segments)), axis=1,
                                    return_inverse=True)
            ready = [cache.repair.unit_ready(*u) for u in units.T.tolist()]
            keep = np.array(ready)[unit.ravel()]
            lbas, ssds, offsets = lbas[keep], ssds[keep], offsets[keep]
        if not lbas.shape[0]:
            return now
        # One sort by (member, offset): a span breaks where the key does
        # not step by a page, a member's spans are one slice of them.
        span = int(offsets.max()) + 2 * PAGE_SIZE
        key = np.sort(ssds.astype(np.int64) * span + offsets)
        starts, stops = run_bounds(np.diff(key) != PAGE_SIZE).T
        owner, runs = np.divmod(key[starts], span)
        end = now
        _, first = np.unique(ssds, return_index=True)
        for idx in ssds[np.sort(first)].tolist():
            lo, hi = np.searchsorted(owner, (idx, idx + 1)).tolist()
            done, = cache.members.issue(READ, [
                (idx, runs[lo:hi], (stops[lo:hi] - starts[lo:hi]) * PAGE_SIZE,
                 now)], origin)
            if done is None:
                continue
            end = max(end, done)
            hits = cache.ssds[idx].corrupted_in(int(runs[lo]), int(
                key[stops[hi - 1] - 1] - key[starts[lo]]) + PAGE_SIZE)
            if hits:
                mine = (ssds == idx) & np.isin(offsets // PAGE_SIZE,
                                               list(hits))
                for lba in lbas[mine].tolist():
                    end = max(end, cache.members.repair_corruption(
                        lba, cache.mapping.lookup(lba), done))
        return end

    def _trim_group(self, victim: int, now: float) -> float:
        """TRIM the reclaimed SG so the FTLs know the space is dead."""
        cache = self.cache
        base = cache.layout.unit_offset(victim, 0)
        return latest(now, cache.members.issue(TRIM, [
            (idx, base, cache.config.erase_group_size, now)
            for idx in range(len(cache.ssds))], FOREGROUND))
