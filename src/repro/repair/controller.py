"""The online repair controller for SRC (§4.3 reliability).

One :class:`RepairController` per cache owns the per-slot health state
machine, the hot-spare pool, the background rebuild job and the
periodic scrubber.  It is *caller-driven*: there is no event loop —
foreground entry points pump it (``SrcCache._check_timeout``), so
background repair I/O advances exactly when simulated time does, and
competes with foreground requests on the same device timelines.

Division of labour with the cache:

* the cache detects failures (retry exhaustion, fail-slow conversion)
  and calls :meth:`on_member_failed`;
* the controller decides what happens next — spare attach, health
  transitions, rebuild scheduling, bypass remains the cache's move of
  last resort (it asks :meth:`missing_members` first);
* reads that land on a not-yet-rebuilt unit are detected by the cache
  via :meth:`unit_ready` and served degraded, optionally promoting the
  unit to the front of the rebuild queue.

Rebuild I/O is throttled by a token bucket (``rebuild_rate``) and
backs off while the foreground rolling p99 is hot (``rebuild_fg_p99``),
the EagleTree-style scheduling question made explicit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.block.device import BlockDevice
from repro.common.checksum import checksum_matches
from repro.common.types import FOREGROUND, READ, REBUILD, SCRUB, WRITE
from repro.common.units import PAGE_SIZE
from repro.core.members import latest
from repro.obs.events import (CorruptionDetected, CorruptionRepaired,
                              HealthTransition, RebuildCompleted,
                              RebuildProgress, RebuildStarted, ScrubProgress,
                              ScrubUnrepairable)
from repro.repair.health import DeviceHealth, HealthTracker
from repro.repair.rebuild import RebuildJob
from repro.repair.scrub import ScrubReport
from repro.common.throttle import ForegroundGuard, TokenBucket

Unit = Tuple[int, int]   # (sg, segment)


class RepairController:
    """Hot-spare rebuild + background scrub for one SRC cache."""

    def __init__(self, cache, spares: Optional[List[BlockDevice]] = None):
        self.cache = cache
        cfg = cache.config
        self.health = HealthTracker(cfg.n_ssds, device=cache.name)
        self.spares: List[BlockDevice] = list(spares) if spares else []
        self.jobs: List[RebuildJob] = []
        self.unit_bytes = cache.layout.unit_blocks * PAGE_SIZE
        self.rebuild_bucket = TokenBucket(cfg.repair.rebuild_rate,
                                          2 * self.unit_bytes)
        self.guard = ForegroundGuard(cfg.repair.rebuild_fg_p99)
        self._scrub_next_due = cfg.repair.scrub_interval
        self._pumping = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _emit(self, event) -> None:
        if self.cache.obs.enabled:
            self.cache.obs.emit(event)

    def _transition(self, member: int, new: DeviceHealth, now: float,
                    reason: str) -> None:
        record = self.health.transition(member, new, now, reason)
        self._emit(HealthTransition(
            t=now, device=self.cache.name, member=member,
            old=record.old.value, new=record.new.value, reason=reason))
        self.cache.srcstats.degraded_window_s = self.health.degraded_window_s

    def _involved(self, sg: int, segment: int, with_parity: bool) -> List[int]:
        layout = self.cache.layout
        members = list(layout.data_ssds(sg, segment, with_parity))
        if with_parity:
            members.append(layout.parity_ssd(sg, segment))
        return members

    @property
    def active_job(self) -> Optional[RebuildJob]:
        return self.jobs[0] if self.jobs else None

    def _job_for(self, member: int) -> Optional[RebuildJob]:
        for job in self.jobs:
            if job.member == member:
                return job
        return None

    def missing_members(self) -> int:
        """Slots whose data is (partly) unavailable: dead or rebuilding.

        The bypass decision counts these against the RAID tolerance: a
        REBUILDING slot still has un-rebuilt units that every stripe
        must reconstruct around, so it consumes the same redundancy a
        dead drive does until its job completes.
        """
        dead = sum(ssd.failed for ssd in self.cache.ssds)
        rebuilding = self.health.count(DeviceHealth.REBUILDING)
        return dead + rebuilding

    def unit_ready(self, ssd_idx: int, sg: int, segment: int) -> bool:
        """Whether ``ssd_idx``'s share of a segment is readable.

        False only for a rebuilding spare whose copy of the unit has
        not been reconstructed yet; callers serve those degraded.
        """
        for job in self.jobs:
            if job.member == ssd_idx and job.covers((sg, segment)):
                return False
        return True

    def promote(self, ssd_idx: int, sg: int, segment: int) -> None:
        """Pull a unit a degraded read just hit to the queue front."""
        job = self._job_for(ssd_idx)
        if job is not None:
            job.promote((sg, segment))

    def observe_foreground(self, latency: float) -> None:
        self.guard.observe(latency)

    # ------------------------------------------------------------------
    # failure handling: health transitions and spare attach
    # ------------------------------------------------------------------
    def on_member_failed(self, idx: int, now: float) -> None:
        """A member slot's device was converted to fail-stop."""
        state = self.health.state(idx)
        if state.terminal:
            return
        if state is DeviceHealth.REBUILDING:
            # The spare holding the slot died mid-rebuild.
            job = self._job_for(idx)
            if job is not None:
                job.cancelled = True
                self.jobs.remove(job)
            self._transition(idx, DeviceHealth.DEGRADED, now,
                             "spare failed during rebuild")
        elif state is DeviceHealth.HEALTHY:
            self._transition(idx, DeviceHealth.DEGRADED, now, "fail-stop")
        self._try_attach(idx, now)
        if (self.health.state(idx) is DeviceHealth.DEGRADED
                and self.cache.config.raid_level == 0):
            # RAID-0 has nothing to reconstruct from and no spare took
            # the slot: the data is gone for good.
            self._transition(idx, DeviceHealth.FAILED, now,
                             "no redundancy, no spare")

    def _try_attach(self, idx: int, now: float) -> bool:
        """Swap a hot spare into a degraded slot and start its rebuild.

        Only parity RAIDs attach: a RAID-0 slot has no surviving copy
        to rebuild from, so a spare would hold an empty slot while the
        lost data is refetched anyway — bypass semantics are clearer.
        """
        if self.health.state(idx) is not DeviceHealth.DEGRADED:
            return False
        if not self.spares or self.cache.config.raid_level not in (4, 5):
            return False
        spare = self.spares.pop(0)
        self.cache.ssds[idx] = spare
        self._transition(idx, DeviceHealth.REBUILDING, now,
                         f"spare {spare.name} attached")
        stats = self.cache.srcstats
        stats.spares_attached += 1
        units = [
            (s.sg, s.segment) for s in self.cache.metadata.all_summaries()
            if idx in self._involved(s.sg, s.segment, s.with_parity)]
        job = RebuildJob(idx, units)
        self.jobs.append(job)
        stats.rebuilds_started += 1
        self._emit(RebuildStarted(t=now, device=self.cache.name,
                                  member=idx, spare=spare.name,
                                  units=len(units)))
        if job.complete:    # empty cache: nothing to reconstruct
            self._finish_job(job, now)
        return True

    def enter_bypass(self, now: float) -> None:
        """SRC gave the array up; every slot's story ends here."""
        for job in self.jobs:
            job.cancelled = True
        self.jobs = []
        for member in range(len(self.health)):
            if not self.health.state(member).terminal:
                self._transition(member, DeviceHealth.BYPASS, now,
                                 "origin bypass")

    # ------------------------------------------------------------------
    # the pump: advance background repair work
    # ------------------------------------------------------------------
    def pump(self, now: float) -> bool:
        """Advance rebuild and scrub as far as their budgets allow; False
        if there was nothing to advance.

        Called from foreground entry points; cheap when idle.  Repair
        I/O is issued at ``now`` and occupies the device timelines, so
        its cost shows up in subsequent foreground latencies — the
        contention the throttle exists to bound.
        """
        if self._pumping or self.cache.bypass:
            return False
        if not self.jobs and self.cache.config.repair.scrub_interval <= 0:
            return False
        self._pumping = True
        try:
            self._advance_rebuild(now)
            self._advance_scrub(now)
        finally:
            self._pumping = False
        return True

    def _advance_rebuild(self, now: float) -> None:
        job = self.active_job
        if job is None:
            return
        if self.guard.hot():
            self.cache.srcstats.rebuild_throttle_defers += 1
            return
        progress_every = max(1, job.total // 16)
        while True:
            unit = job.next_unit()
            if unit is None:
                break
            if self.rebuild_bucket.ready_time(self.unit_bytes, now) > now:
                break
            self.rebuild_bucket.consume(self.unit_bytes, now)
            end = self._rebuild_unit(job, unit, now)
            if job.cancelled or self.active_job is not job:
                return   # bypass / spare death replaced the plan
            job.mark_done(unit, end)
            done = len(job.done)
            if done % progress_every == 0 or done == job.total:
                self._emit(RebuildProgress(t=end, device=self.cache.name,
                                           done=done, total=job.total))
        if job.complete:
            self._finish_job(job, now)

    def _rebuild_unit(self, job: RebuildJob, unit: Unit,
                      now: float) -> float:
        """Reconstruct one segment's share onto the rebuilding spare."""
        cache = self.cache
        sg, segment = unit
        summary = cache.metadata.read_summary(sg, segment)
        if summary is None:
            return now   # the group was reclaimed since the snapshot
        member, members = job.member, cache.members
        base = cache.layout.unit_offset(sg, segment)
        if members.can_reconstruct(member, sg, segment, summary.dirty):
            step = members.stripe_read(member, base, self.unit_bytes, now,
                                       REBUILD)
            if job.cancelled:
                return now
            # Still reconstructable unless a source died under the read.
            if members.can_reconstruct(member, sg, segment, summary.dirty):
                wrote, = members.issue(
                    WRITE, [(member, base, self.unit_bytes, step)], REBUILD)
                if wrote is not None:
                    cache.srcstats.rebuild_units += 1
                    return wrote
                return step
        # Unreconstructable (NPC clean segment, or a source died): the
        # slot's blocks in this segment are gone.  Clean data refetches
        # on demand; dirty data in this situation is a real loss.
        for lba, entry in list(cache.mapping.sg_blocks(sg)):
            if (entry.location.segment == segment
                    and entry.location.ssd == member):
                cache.srcstats.rebuild_dropped_blocks += 1
                if entry.dirty:
                    cache.srcstats.unrecoverable_errors += 1
                cache.mapping.invalidate(lba)
                cache.hotness.evict(lba)
        return now

    def _finish_job(self, job: RebuildJob, now: float) -> None:
        if job in self.jobs:
            self.jobs.remove(job)
        done_at = max(now, job.last_io_end)
        self._transition(job.member, DeviceHealth.HEALTHY, done_at,
                         "rebuild complete")
        mttr = self.health.last_mttr or 0.0
        stats = self.cache.srcstats
        stats.rebuilds_completed += 1
        stats.mttr_s += mttr
        self._emit(RebuildCompleted(t=done_at, device=self.cache.name,
                                    member=job.member, units=job.total,
                                    elapsed=mttr))

    def on_group_dropped(self, sg: int, now: float) -> None:
        """GC reclaimed a group: forget its pending rebuild units."""
        for job in self.jobs:
            stale = [u for u in job.unit_set if u[0] == sg]
            if stale:
                job.drop(stale)
        job = self.active_job
        if job is not None and job.complete:
            self._finish_job(job, now)

    # ------------------------------------------------------------------
    # background scrub
    # ------------------------------------------------------------------
    def _advance_scrub(self, now: float) -> None:
        cfg = self.cache.config
        if (cfg.repair.scrub_interval <= 0 or self.jobs
                or now < self._scrub_next_due):
            return   # rebuild restores redundancy first; scrub waits
        cache, stats = self.cache, self.cache.srcstats
        units = [(s.sg, s.segment) for s in cache.metadata.all_summaries()]
        repaired_before = stats.scrub_repairs
        total = len(units)
        progress_every = max(1, total // 8)
        for checked, unit in enumerate(units, 1):
            if cache.bypass:
                return   # a scrub read failed the array over to the origin
            self._scrub_unit(unit, now)
            if checked % progress_every == 0:
                self._emit(ScrubProgress(
                    t=now, device=cache.name, checked=checked, total=total,
                    repaired=stats.scrub_repairs - repaired_before))
        self._emit(ScrubProgress(
            t=now, device=cache.name, checked=total, total=total,
            repaired=stats.scrub_repairs - repaired_before))
        stats.scrub_passes += 1
        self._scrub_next_due = now + cfg.repair.scrub_interval

    def scrub_now(self, now: float) -> ScrubReport:
        """One full synchronous scrub pass (tests, CLI, demos)."""
        stats = self.cache.srcstats
        before = stats.snapshot()
        end = now
        for unit in [(s.sg, s.segment)
                     for s in self.cache.metadata.all_summaries()]:
            end = max(end, self._scrub_unit(unit, end))
        stats.scrub_passes += 1
        delta = stats.delta(before)
        return ScrubReport(checked_blocks=delta.scrub_checked_blocks,
                           repaired=delta.scrub_repairs,
                           unrepairable=delta.scrub_unrepairable,
                           duration_s=end - now)

    def _scrub_unit(self, unit: Unit, now: float) -> float:
        """Scan one sealed segment: media read + checksum verification."""
        cache = self.cache
        sg, segment = unit
        summary = cache.metadata.read_summary(sg, segment)
        if summary is None:
            return now
        base = cache.layout.unit_offset(sg, segment)
        end = latest(now, cache.members.issue(READ, (
            (idx, base, self.unit_bytes, now)
            for idx in self._involved(sg, segment, summary.with_parity)
            if self.unit_ready(idx, sg, segment)), SCRUB))
        for lba in summary.lbas:
            entry = cache.mapping.lookup(lba)
            if (entry is None or entry.location.sg != sg
                    or entry.location.segment != segment):
                continue   # superseded since sealing — not live data
            cache.srcstats.scrub_checked_blocks += 1
            loc = entry.location
            bad = (cache.ssds[loc.ssd].corrupted_in(loc.offset, PAGE_SIZE)
                   or not checksum_matches(lba, entry.version,
                                           entry.checksum))
            if not bad:
                continue
            self._emit(CorruptionDetected(t=end, device=cache.name,
                                          lba=lba, member=loc.ssd))
            end = max(end, self._scrub_repair(lba, entry, end))
        return end

    def _scrub_repair(self, lba: int, entry, now: float) -> float:
        """Rewrite a latent-corrupt block from parity or the origin."""
        cache = self.cache
        stats = cache.srcstats
        loc = entry.location
        member = loc.ssd
        ssd = cache.ssds[member]
        if cache.members.can_reconstruct(member, loc.sg, loc.segment,
                                         entry.dirty):
            end = cache.members.stripe_read(member, loc.offset, PAGE_SIZE,
                                            now, FOREGROUND)
            source = "parity"
        elif not entry.dirty:
            end = cache.origin_read(lba, now)
            source = "origin"
        else:
            # Double fault: corrupt dirty block with no redundancy.
            # Drop the mapping so no foreground read ever serves it.
            stats.scrub_unrepairable += 1
            stats.unrecoverable_errors += 1
            self._emit(ScrubUnrepairable(t=now, device=cache.name,
                                         lba=lba, member=member))
            cache.mapping.invalidate(lba)
            cache.hotness.evict(lba)
            ssd.clear_corruption(loc.offset, PAGE_SIZE)
            return now
        wrote = latest(end, cache.members.issue(
            WRITE, [(member, loc.offset, PAGE_SIZE, end)], SCRUB))
        ssd.clear_corruption(loc.offset, PAGE_SIZE)
        stats.scrub_repairs += 1
        self._emit(CorruptionRepaired(t=wrote, device=cache.name, lba=lba,
                                      member=member, source=source))
        return wrote
