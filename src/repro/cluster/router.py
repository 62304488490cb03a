"""The shard router: one block device over N independent SRC caches.

:class:`ShardRouter` multiplexes the origin's LBA space across a set
of independent :class:`~repro.core.src.SrcCache` instances ("shards")
by consistent hashing at *slab* granularity.  Each shard is a complete
SRC stack — its own SSDs, segment layout, GC, repair controller — so a
failure inside one shard is contained to the hash ranges that shard
owns; the rest of the cluster never sees it.  All shards front the
*same* origin device: data placement stays honest (a block's durable
home is unique), which is what makes origin fall-through and dirty
accounting meaningful.

Failure semantics (blast-radius control):

* A failed shard's ranges are served **from the origin** — reads fall
  through, writes write around — rather than being re-homed onto the
  survivors.  Re-homing would stampede the surviving shards' caches
  (admission churn, GC pressure) exactly when the system is already
  degraded; bounded blast radius means the failure costs origin-speed
  service for the failed ranges and *nothing* for the rest.
* Dirty blocks that existed only on the failed shard are counted as
  ``lost_dirty`` at failure time (the same explicit accounting the
  single-cache bypass path keeps) — never silently dropped.
* A spare shard can be attached into the failed slot and warms online;
  the slot's health walks DEGRADED -> REBUILDING -> HEALTHY through
  the same state machine the repair layer uses for SSDs, with MTTR
  accounted by the tracker.

Topology changes (shard add/remove) hand hash ranges off through the
resumable, throttled migration protocol in
:mod:`repro.cluster.migration`; the router pumps the job from its own
service path, so rebalancing only progresses as simulated time
advances and competes with the foreground like any background work.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import ConfigError, ReproError
from repro.common.throttle import ForegroundGuard, TokenBucket
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.window import Lane, serve_lanes
from repro.obs.events import (MigrationProgress, RouterDegraded,
                              ShardHealthTransition)
from repro.obs.recorder import ObsRecorder
from repro.repair.health import DeviceHealth

from .config import ClusterConfig
from .hashring import HashRing
from .health import ShardHealthTracker
from .migration import (MigrationError, MigrationJob, MigrationLedger,
                        RangeMove)
from .volume import ClusterVolume

# States in which a shard slot serves I/O.  REBUILDING serves: an
# attached spare warms through ordinary misses while it fills.
_SERVING = (DeviceHealth.HEALTHY, DeviceHealth.REBUILDING)


@dataclass
class ClusterStats:
    """Router-level counters (shard stats live on the shards)."""

    routed_reads: int = 0
    routed_writes: int = 0
    straddled_requests: int = 0      # requests split across owners
    fallthrough_reads: int = 0       # served from origin: owner down
    write_arounds: int = 0           # written to origin: owner down
    lost_dirty: int = 0              # acked dirty lost to shard failures
    shard_failures: int = 0
    spares_attached: int = 0
    migrations_started: int = 0
    migrations_completed: int = 0
    migration_ranges: int = 0
    migration_blocks: int = 0
    migration_dirty_blocks: int = 0
    migration_throttle_defers: int = 0
    migration_guard_defers: int = 0
    migration_catchup_passes: int = 0
    migration_forced_finals: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterStats":
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


class ShardRouter(BlockDevice):
    """Consistent-hash front door over independent SRC shard caches."""

    def __init__(self, shards: List, origin: BlockDevice,
                 config: ClusterConfig = ClusterConfig(),
                 ledger: Optional[MigrationLedger] = None,
                 name: str = "cluster"):
        if not shards:
            raise ConfigError("need at least one shard")
        if len(shards) != config.n_shards:
            raise ConfigError(
                f"config expects {config.n_shards} shards, got {len(shards)}")
        for shard in shards:
            if shard.origin is not origin:
                raise ConfigError(
                    f"shard {shard.name} fronts a different origin; all "
                    "shards must share the router's origin device")
        super().__init__(origin.size, name)
        self.config = config
        self.origin = origin
        self.shards: Dict[int, object] = dict(enumerate(shards))
        self.ring = HashRing(vnodes=config.vnodes, seed=config.hash_seed)
        for slot in self.shards:
            self.ring.add(slot)   # initial population: nothing to move
        self.health = ShardHealthTracker(len(shards), device=name)
        self.clusterstats = ClusterStats()
        self.ledger = ledger if ledger is not None else MigrationLedger()
        # Behind paths(): why a chunk offer was declined at this level.
        self.path_ledger: Counter = Counter()
        self._bucket = TokenBucket(
            config.migration_rate,
            burst_bytes=2 * config.migration_unit_blocks * PAGE_SIZE)
        self._guard = ForegroundGuard(config.migration_fg_p99)
        self._migration: Optional[MigrationJob] = None
        self._overrides: List[RangeMove] = []
        self._spare_ready: Dict[int, float] = {}
        # Tenant volumes spanning the cluster (repro.cluster.volume).
        self.volumes: Dict[str, object] = {}
        self._alloc_cursor = 0

    # ==================================================================
    # routing
    # ==================================================================
    def slot_serving(self, slot: int) -> bool:
        return self.health.state(slot) in _SERVING

    def owner_slot(self, block: int) -> int:
        """The slot that owns ``block``'s slab right now.

        Pending (uncommitted) migration ranges still belong to their
        source — ownership flips per range at commit, never per block.
        """
        slab = block // self.config.slab_blocks
        if not self._overrides:
            return self.ring.owner(slab)
        point = self.ring.key_hash(slab)
        for move in self._overrides:
            if move.contains(point):
                return move.source
        return self.ring.owner_of_hash(point)

    def _split_runs(self, req: Request) -> List:
        """Split a request into (slot, start_block, n_blocks) runs."""
        runs = []
        start = prev_slot = None
        count = 0
        for block in req.pages():
            slot = self.owner_slot(block)
            if slot == prev_slot:
                count += 1
                continue
            if start is not None:
                runs.append((prev_slot, start, count))
            start, prev_slot, count = block, slot, 1
        if start is not None:
            runs.append((prev_slot, start, count))
        if len(runs) > 1:
            self.clusterstats.straddled_requests += 1
        return runs

    # ==================================================================
    # service path
    # ==================================================================
    def _service(self, req: Request, now: float) -> float:
        self._tick(now)
        if req.op is Op.FLUSH:
            return self._flush_all(req, now)
        if req.op is Op.TRIM:
            # Broadcast: a pending migration may have left a stale copy
            # of a trimmed block on a range's future owner, and trims
            # are rare RAM-only bookkeeping on non-owners.
            return self._broadcast(req, now)
        end = now
        for slot, start, count in self._split_runs(req):
            sub = Request(req.op, start * PAGE_SIZE, count * PAGE_SIZE,
                          fua=req.fua, origin=req.origin, tenant=req.tenant)
            if self.slot_serving(slot):
                if req.op is Op.READ:
                    self.clusterstats.routed_reads += count
                else:
                    self.clusterstats.routed_writes += count
                end = max(end, self.shards[slot].submit(sub, now))
            elif req.op is Op.READ:
                self.clusterstats.fallthrough_reads += count
                end = max(end, self.origin.submit(sub, now))
            else:
                self.clusterstats.write_arounds += count
                end = max(end, self.origin.submit(sub, now))
        if req.origin is IoOrigin.FOREGROUND:
            self._guard.observe(end - now)
        return end

    # ==================================================================
    # batched submission (repro.sim.engine batch mode)
    # ==================================================================
    def paths(self) -> dict:
        """``declined.<reason>``: the chunk offers the router itself did
        not take (rows served are in the shards' ``window.paths()``)."""
        return dict(self.path_ledger)

    def closed_clause(self, think_time: float) -> str:
        """The first cluster-level side channel that is live ("" =
        none): while one is, every row takes the per-request path."""
        if self._migration is not None or self._overrides:
            return "migration"        # override ranges re-route mid-chunk
        if self._spare_ready:
            return "spare_warming"    # completion is clocked by _tick
        if not all(map(self.slot_serving, self.shards)):
            return "degraded_slot"    # its rows write around
        if self.obs.enabled and type(self.obs) is not ObsRecorder:
            return "foreign_recorder"
        for shard in self.shards.values():
            reason = shard.window.closed_clause(think_time)
            if reason:
                return reason         # any lane's own gate
        return ""

    def lanes(self, blocks: np.ndarray) -> List[Lane]:
        """Deal a slice's blocks to their owning shards' windows.  No
        override is pending (gated), so the ring's owner serves."""
        owners = self.ring.owners(blocks // self.config.slab_blocks)
        dealt = [(shard, np.flatnonzero(owners == slot))
                 for slot, shard in self.shards.items()]
        return [Lane(shard.window, blocks[at], at)
                for shard, at in dealt if at.shape[0]]

    def submit_chunk(self, rows: np.ndarray, start: float,
                     think_time: float, deadline: float,
                     limit: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Batch engine hook: :func:`~repro.core.window.serve_lanes`
        with one lane per shard, then the router-level accounting
        (device stats, routed counter, guard and recorder samples in
        row order) that ``submit`` performs per request."""
        issue_t, done_t, n = serve_lanes(self, rows, self.size, None, start,
                                         think_time, deadline, limit)
        if n:
            served = rows[:n]
            self.stats.record_chunk(served["op"], served["length"],
                                    served["origin"])
            self.clusterstats.routed_writes += n
            latencies = done_t - issue_t
            self._guard.observe_many(latencies)
            if self.obs.enabled:
                self.obs.observe_io_chunk(self, latencies)
        return issue_t, done_t, n

    def _broadcast(self, req: Request, now: float) -> float:
        """A copy of ``req`` to every serving shard; the last completion."""
        end = now
        for slot, shard in self.shards.items():
            if self.slot_serving(slot):
                end = max(end, shard.submit(Request(
                    req.op, req.offset, req.length, fua=req.fua,
                    origin=req.origin, tenant=req.tenant), now))
        return end

    def _flush_all(self, req: Request, now: float) -> float:
        end = self._broadcast(req, now)
        if not all(self.slot_serving(s) for s in self.shards):
            # Write-around data lives on the origin; flush it too.
            end = max(end, self.origin.submit(
                Request(Op.FLUSH, origin=req.origin), now))
        return end

    # ==================================================================
    # background progress (pumped from the service path)
    # ==================================================================
    def _tick(self, now: float) -> None:
        self._complete_warms(now)
        if self._migration is not None:
            self._migration.pump(now)
            if self._migration.done:
                self._finish_migration(now)

    def _complete_warms(self, now: float) -> None:
        for slot, ready in list(self._spare_ready.items()):
            if now >= ready:
                del self._spare_ready[slot]
                record = self.health.transition(
                    slot, DeviceHealth.HEALTHY, now, reason="spare-warmed")
                self._emit_health(record)

    def pump(self, now: float) -> None:
        """Public pump for idle-time progress (tests, experiments)."""
        self._tick(now)

    # ==================================================================
    # topology changes
    # ==================================================================
    def add_shard(self, shard, now: float) -> int:
        """Attach a new shard online; rebalancing starts immediately."""
        if self._migration is not None:
            raise MigrationError("one topology change at a time")
        if shard.origin is not self.origin:
            raise ConfigError("new shard must share the cluster origin")
        slot = self.health.add_slot()
        self.shards[slot] = shard
        moves = [RangeMove(lo, hi, source=old, target=slot)
                 for lo, hi, old in self.ring.add(slot)]
        self._start_migration("add", slot, moves, now)
        return slot

    def remove_shard(self, slot: int, now: float) -> None:
        """Drain ``slot`` and retire it once its ranges are handed off."""
        if self._migration is not None:
            raise MigrationError("one topology change at a time")
        if slot not in self.shards:
            raise ConfigError(f"no shard in slot {slot}")
        if not self.slot_serving(slot):
            raise MigrationError(
                f"slot {slot} is not serving; replace it, do not drain it")
        serving_others = [s for s in self.shards
                         if s != slot and s in self.ring]
        if not serving_others:
            raise MigrationError("cannot remove the last shard")
        moves = [RangeMove(lo, hi, source=slot, target=new)
                 for lo, hi, new in self.ring.remove(slot)]
        self._start_migration("remove", slot, moves, now)

    def _start_migration(self, op: str, slot: int, moves: List[RangeMove],
                         now: float, kind: str = "start") -> None:
        self.ledger.begin(op, slot, moves)
        self._resume_migration(now, kind=kind)

    def _resume_migration(self, now: float, kind: str) -> None:
        """Build the job for the ledger's open intent (fresh or resumed)."""
        self._overrides = self.ledger.pending_moves()
        self._migration = MigrationJob(
            self, self._overrides, self.config, self._bucket, self._guard,
            kind=kind)
        self.clusterstats.migrations_started += 1
        if self.obs.enabled:
            total = len(self.ledger.moves)
            self.obs.emit(MigrationProgress(
                t=now, device=self.name, phase=kind,
                done=total - len(self._overrides), total=total))
        if self._migration.done:   # nothing pending (e.g. first shard)
            self._finish_migration(now)

    def commit_move(self, move: RangeMove, now: float) -> None:
        """Durable ownership flip for one range (called by the job)."""
        self.ledger.record(move)
        self._overrides.remove(move)
        job = self._migration
        self.clusterstats.migration_ranges += 1
        if self.obs.enabled and job is not None:
            self.obs.emit(MigrationProgress(
                t=now, device=self.name, phase="range",
                done=len(self.ledger.moves) - len(self._overrides),
                total=len(self.ledger.moves),
                blocks=job.stats.blocks_copied,
                dirty_blocks=job.stats.dirty_blocks_copied))

    def _finish_migration(self, now: float) -> None:
        job = self._migration
        self._migration = None
        self._overrides = []
        op, slot = self.ledger.op, self.ledger.slot
        self.ledger.complete()
        if op == "remove":
            self.shards.pop(slot, None)
            record = self.health.transition(
                slot, DeviceHealth.BYPASS, now, reason="removed")
            self._emit_health(record)
        stats = job.stats
        cs = self.clusterstats
        cs.migrations_completed += 1
        cs.migration_blocks += stats.blocks_copied
        cs.migration_dirty_blocks += stats.dirty_blocks_copied
        cs.migration_throttle_defers += stats.throttle_defers
        cs.migration_guard_defers += stats.guard_defers
        cs.migration_catchup_passes += stats.catchup_passes
        cs.migration_forced_finals += stats.forced_finals
        if self.obs.enabled:
            self.obs.emit(MigrationProgress(
                t=now, device=self.name, phase="done",
                done=stats.ranges_done, total=stats.ranges_total,
                blocks=stats.blocks_copied,
                dirty_blocks=stats.dirty_blocks_copied))

    # ==================================================================
    # failure and repair
    # ==================================================================
    def _emit_health(self, record) -> None:
        if self.obs.enabled:
            self.obs.emit(ShardHealthTransition(
                t=record.t, device=self.name, shard=record.member,
                old=record.old.value, new=record.new.value,
                reason=record.reason))

    def fail_shard(self, slot: int, now: float,
                   reason: str = "fail-stop") -> int:
        """Mark ``slot`` failed; its ranges degrade to origin service.

        Returns the number of acknowledged-dirty blocks that existed
        only on the failed shard — lost, and accounted, exactly like
        the single-cache bypass path's ``bypass_lost_dirty``.
        """
        shard = self.shards.get(slot)
        if shard is None:
            raise ConfigError(f"no shard in slot {slot}")
        record = self.health.transition(
            slot, DeviceHealth.DEGRADED, now, reason=reason)
        self._emit_health(record)
        self._spare_ready.pop(slot, None)
        lost = shard.mapping.dirty_count + len(shard.dirty_buf)
        self.clusterstats.lost_dirty += lost
        self.clusterstats.shard_failures += 1
        if self.obs.enabled:
            self.obs.emit(RouterDegraded(
                t=now, device=self.name, shard=slot, reason=reason,
                lost_dirty=lost, ranges=self.config.vnodes))
        return lost

    def attach_spare(self, spare, slot: int, now: float) -> None:
        """Put an empty spare shard into a DEGRADED slot and warm it."""
        if self.health.state(slot) is not DeviceHealth.DEGRADED:
            raise ReproError(
                f"slot {slot} is {self.health.state(slot).value}; spares "
                "attach to degraded slots")
        if spare.origin is not self.origin:
            raise ConfigError("spare shard must share the cluster origin")
        self.shards[slot] = spare
        record = self.health.transition(
            slot, DeviceHealth.REBUILDING, now, reason="spare-attached")
        self._emit_health(record)
        self.clusterstats.spares_attached += 1
        self._spare_ready[slot] = now + self.config.spare_warm_s
        self._complete_warms(now)

    # ==================================================================
    # crash recovery
    # ==================================================================
    def recover_interrupted(self, now: float, new_shard=None) -> None:
        """Resume after a power cut: re-open the ledger's intent, then
        sweep every shard so each block has exactly one owner.

        Build the router over the *pre-change* topology (for an ``add``
        the half-attached shard is passed as ``new_shard``; for a
        ``remove`` the draining shard is still in its slot), with the
        surviving :class:`MigrationLedger`.  Ranges the ledger recorded
        stay flipped; everything else routes to its source again and
        the copy restarts idempotently.
        """
        if self.ledger.active:
            op, slot = self.ledger.op, self.ledger.slot
            if op == "add":
                if new_shard is None:
                    raise MigrationError(
                        "resuming an interrupted add needs the new shard")
                if new_shard.origin is not self.origin:
                    raise ConfigError(
                        "new shard must share the cluster origin")
                got = self.health.add_slot()
                if got != slot:
                    raise MigrationError(
                        f"ledger intent adds slot {slot} but the next "
                        f"free slot is {got}; wrong base topology")
                self.shards[slot] = new_shard
                self.ring.add(slot)
            else:
                if slot not in self.shards:
                    raise MigrationError(
                        f"ledger intent removes slot {slot} which is not "
                        "attached; wrong base topology")
                self.ring.remove(slot)
            self._resume_migration(now, kind="resume")
        self.reconcile(now)

    def reconcile(self, now: float) -> int:
        """Evict every cached block from any shard that is not its
        owner (returns the eviction count).

        Safe unconditionally: a block's owner holds it durably (a
        committed flip implies the target flushed) or the block is
        clean and the origin re-fills it, so dropping foreign copies
        never loses data — it only removes double-ownership left by an
        interrupted hand-off.
        """
        evicted = 0
        for slot, shard in self.shards.items():
            if not self.slot_serving(slot):
                continue
            for lba, _dirty in shard.cached_blocks():
                if self.owner_slot(lba) != slot:
                    if shard.evict_block(lba):
                        evicted += 1
        return evicted

    # ==================================================================
    # tenant volumes
    # ==================================================================
    def create_volume(self, tenant: str, size: int,
                      max_write_mb_s: float = 0.0):
        """Carve a tenant volume out of the cluster address space.

        The window is contiguous in LBA space but *spans shards*: the
        consistent hash scatters its slabs across the whole cluster.
        """
        if tenant in self.volumes:
            raise ConfigError(f"volume for tenant {tenant!r} exists")
        blocks = (size + PAGE_SIZE - 1) // PAGE_SIZE
        if blocks < 1:
            raise ConfigError("volume size must be at least one block")
        if (self._alloc_cursor + blocks) * PAGE_SIZE > self.size:
            raise ConfigError(
                f"volume {tenant!r} ({blocks} blocks) does not fit; "
                f"cursor at {self._alloc_cursor}")
        volume = ClusterVolume(self, tenant, self._alloc_cursor, blocks,
                               max_write_mb_s=max_write_mb_s,
                               index=len(self.volumes))
        self._alloc_cursor += blocks
        self.volumes[tenant] = volume
        return volume

    # ==================================================================
    # rollups
    # ==================================================================
    def serving_slots(self) -> List[int]:
        return [s for s in self.shards if self.slot_serving(s)]

    def cluster_dirty(self) -> int:
        """Dirty blocks across every serving shard (consistency checks)."""
        return sum(shard.mapping.dirty_count + len(shard.dirty_buf)
                   for slot, shard in self.shards.items()
                   if self.slot_serving(slot))
