"""Tenant registry: occupancy accounting, admission control, stats.

The registry is the authority on who holds how much of the cache.  It
attaches to a running :class:`~repro.core.src.SrcCache` by installing
itself as the membership observer of the mapping table and both
segment buffers, so per-tenant occupancy is exact — every cached block
is either in the mapping or in a RAM segment buffer, and both fire
``block_cached``/``block_evicted`` on real membership changes (counts,
so each per-block hook has an order-free array twin for batch paths).

Admission semantics (reservation-safe work-conserving borrowing), for
a tenant ``t`` wanting to cache one more block:

1. below its reservation (``occ < min_blocks``) — always admit;
2. at its cap (``occ >= max_blocks``) — always reject;
3. in between — reject if borrowing is disabled; otherwise admit only
   while the array still has *unreserved* free capacity::

       free = capacity - total_occupancy - Σ_other max(0, min_o - occ_o)

   i.e. a tenant may borrow idle capacity but never the part of the
   cache other tenants are promised and have not yet used.  Both
   ``total_occupancy`` and the unmet-reserve sum are maintained
   incrementally, so :meth:`admit` is O(1) plus one bisect to map the
   block to its tenant.

A rejected block is not cached: the cache serves it *around* the array
(write-around / read-around straight to the origin), which is what
bounds a misbehaving whale's footprint without stalling it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.common.types import IoOrigin, IoStats, LatencyStats, Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_CLEAN, B_DIRTY, B_MAPPED
from repro.obs.events import AdmissionRejected
from repro.tenancy.qos import QosSpec
from repro.tenancy.volume import Volume


def _rank_in_group(keys: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """Per row, how many earlier rows share its key and are ``counted``."""
    order = np.argsort(keys, kind="stable")
    keys, c = keys[order], counted[order].astype(np.int64)
    before = np.cumsum(c) - c           # non-decreasing, so a group's
    opens = np.ones(keys.shape[0], dtype=bool)     # base is a running max
    opens[1:] = keys[1:] != keys[:-1]
    rank = np.empty_like(before)
    rank[order] = before - np.maximum.accumulate(np.where(opens, before, 0))
    return rank


class TenantStats:
    """Per-tenant counters, I/O stats and foreground latency."""

    __slots__ = ("io", "latency", "admitted_blocks", "rejected_blocks",
                 "write_arounds", "read_arounds", "destaged_blocks",
                 "throttle_waits", "throttle_wait_s", "stalls", "stall_s")

    def __init__(self) -> None:
        self.io = IoStats()
        self.latency = LatencyStats()
        self.admitted_blocks = 0
        self.rejected_blocks = 0
        self.write_arounds = 0
        self.read_arounds = 0
        self.destaged_blocks = 0
        self.throttle_waits = 0
        self.throttle_wait_s = 0.0
        self.stalls = 0
        self.stall_s = 0.0

    def as_dict(self) -> dict:
        return {
            "io": self.io.as_dict(),
            "latency": self.latency.as_dict(),
            "admitted_blocks": self.admitted_blocks,
            "rejected_blocks": self.rejected_blocks,
            "write_arounds": self.write_arounds,
            "read_arounds": self.read_arounds,
            "destaged_blocks": self.destaged_blocks,
            "throttle_waits": self.throttle_waits,
            "throttle_wait_s": self.throttle_wait_s,
            "stalls": self.stalls,
            "stall_s": self.stall_s,
        }


class _Tenant:
    """Registry-internal per-tenant state."""

    __slots__ = ("name", "index", "qos", "stats", "occupancy", "min_blocks",
                 "max_blocks", "volumes")

    def __init__(self, name: str, index: int, qos: QosSpec, min_blocks: int,
                 max_blocks: int):
        self.name = name
        self.index = index      # registration order: a chunk row's tag
        self.qos = qos
        self.stats = TenantStats()
        self.occupancy = 0
        self.min_blocks = min_blocks
        self.max_blocks = max_blocks
        self.volumes: List[Volume] = []


class TenantRegistry:
    """Multi-tenant control plane for one SRC array.

    Construction wires the registry into the cache (``cache.tenants``
    plus membership observers); tear-down is not supported — build a
    fresh stack per experiment, as the harness does.

    ``enforce`` / ``work_conserving`` default to the array's
    :class:`~repro.core.config.QosConfig`.
    """

    def __init__(self, cache, enforce: Optional[bool] = None,
                 work_conserving: Optional[bool] = None):
        qos_cfg = cache.config.qos
        self.cache = cache
        self.enforce = qos_cfg.enforce_shares if enforce is None else enforce
        self.work_conserving = (qos_cfg.work_conserving
                                if work_conserving is None
                                else work_conserving)
        self.default_qos = QosSpec(min_share=qos_cfg.default_min_share,
                                   max_share=qos_cfg.default_max_share)
        self.capacity_blocks = cache.layout.cache_data_capacity_blocks()
        self._tenants: Dict[str, _Tenant] = {}
        # Volume map: parallel sorted arrays of [base_block, end_block)
        # windows and the owning tenant, for bisect lookup — and as
        # arrays for owner_index, rebuilt by create_volume alone (a block
        # below every base indexes -1: the trailing (0, -1) sentinel).
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._owners: List[_Tenant] = []
        self._volume_map = (np.array([], dtype=int), np.array([0]),
                            np.array([-1]))
        self._alloc_cursor = 0          # next free origin block
        self._total_unmet_reserve = 0   # Σ max(0, min_t - occ_t)
        # Adopt blocks already resident at attach time: a registry
        # attached to a *recovered* cache (post power cut) must account
        # the survivors exactly, not start from zero.  Per-tenant
        # occupancy is seeded as volumes are recreated
        # (:meth:`create_volume` counts residents in each window).
        self._total_occupancy = (cache.mapping.valid_blocks()
                                 + len(cache.dirty_buf)
                                 + len(cache.clean_buf))
        # Wire in: the cache consults us on admission/destage, and the
        # mapping/buffers report membership changes.
        cache.tenants = self
        cache.mapping.observer = self
        cache.dirty_buf.observer = self
        cache.clean_buf.observer = self

    # ------------------------------------------------------------------
    # tenant / volume management
    # ------------------------------------------------------------------
    def add_tenant(self, name: str, qos: Optional[QosSpec] = None) -> None:
        """Register a tenant under a QoS class (default from QosConfig)."""
        if name in self._tenants:
            raise ConfigError(f"tenant {name!r} already registered")
        spec = qos if qos is not None else self.default_qos
        min_blocks = int(spec.min_share * self.capacity_blocks)
        max_blocks = max(1, int(spec.max_share * self.capacity_blocks))
        self._tenants[name] = _Tenant(name, len(self._tenants), spec,
                                      min_blocks, max_blocks)
        self._total_unmet_reserve += min_blocks
        total_reserved = sum(t.min_blocks for t in self._tenants.values())
        if total_reserved > self.capacity_blocks:
            raise ConfigError(
                f"total min_share reservations ({total_reserved} blocks) "
                f"exceed cache data capacity ({self.capacity_blocks})")

    def create_volume(self, tenant: str, size: int,
                      qos: Optional[QosSpec] = None) -> Volume:
        """Carve a ``size``-byte volume for ``tenant`` from the origin.

        The tenant is auto-registered (under ``qos`` or the default QoS
        class) on first use.  Volumes are disjoint contiguous windows
        of the origin address space, allocated front to back.
        """
        if size <= 0 or size % PAGE_SIZE:
            raise ConfigError(
                f"volume size must be a positive multiple of {PAGE_SIZE}, "
                f"got {size}")
        blocks = size // PAGE_SIZE
        base = self._alloc_cursor
        if (base + blocks) * PAGE_SIZE > self.cache.size:
            raise ConfigError(
                f"volume of {size} bytes does not fit: origin has "
                f"{self.cache.size - base * PAGE_SIZE} bytes unallocated")
        if tenant not in self._tenants:
            self.add_tenant(tenant, qos)
        elif qos is not None and qos != self._tenants[tenant].qos:
            raise ConfigError(
                f"tenant {tenant!r} already registered with a different "
                f"QoS class")
        self._alloc_cursor = base + blocks
        t = self._tenants[tenant]
        volume = Volume(self, tenant, base_block=base, blocks=blocks,
                        index=len(self._bases))
        self._bases.append(base)
        self._ends.append(base + blocks)
        self._owners.append(t)
        t.volumes.append(volume)
        self._volume_map = (np.array(self._bases), np.array(self._ends + [0]),
                            np.array([o.index for o in self._owners] + [-1]))
        resident = self._resident_in(base, base + blocks)
        if resident:
            # Post-recovery attach: blocks of this window already in
            # the cache belong to the tenant from block one.
            t.occupancy += resident
            self._total_unmet_reserve = self._unmet_reserve()
        return volume

    def _resident_in(self, lo: int, hi: int) -> int:
        """Blocks of ``[lo, hi)`` currently cached (one residency scan)."""
        codes = self.cache._state.a
        hi = min(hi, codes.shape[0])
        if lo >= hi:
            return 0
        window = codes[lo:hi]
        return int(((window == B_MAPPED) | (window == B_DIRTY)
                    | (window == B_CLEAN)).sum())

    def tenant_of(self, block: int) -> Optional[str]:
        """Owning tenant of an origin block, or None if unallocated."""
        t = self._owner_of(block)
        return t.name if t is not None else None

    def _owner_of(self, block: int) -> Optional[_Tenant]:
        i = bisect_right(self._bases, block) - 1
        if i >= 0 and block < self._ends[i]:
            return self._owners[i]
        return None

    def owner_index(self, blocks: np.ndarray) -> np.ndarray:
        """Vector :meth:`tenant_of`: the registration index
        (:meth:`tenant_names` order) of each block's owner, -1 = none."""
        bases, ends, owners = self._volume_map
        vol = np.searchsorted(bases, blocks, side="right") - 1
        return np.where(blocks < ends[vol], owners[vol], -1)

    def qos_of(self, tenant: str) -> QosSpec:
        return self._tenants[tenant].qos

    # ------------------------------------------------------------------
    # membership observer (mapping table + segment buffers)
    # ------------------------------------------------------------------
    def block_cached(self, lba: int) -> None:
        self._total_occupancy += 1
        t = self._owner_of(lba)
        if t is None:
            return
        if t.occupancy < t.min_blocks:
            self._total_unmet_reserve -= 1
        t.occupancy += 1

    def block_evicted(self, lba: int) -> None:
        self._total_occupancy -= 1
        t = self._owner_of(lba)
        if t is None:
            return
        t.occupancy -= 1
        if t.occupancy < t.min_blocks:
            self._total_unmet_reserve += 1

    def blocks_cached(self, lbas: np.ndarray, sign: int = 1) -> None:
        """Batch :meth:`block_cached` (order-independent: counts only)."""
        self._total_occupancy += sign * lbas.shape[0]
        for t, blocks in self._per_tenant(self.owner_index(lbas)):
            t.occupancy += sign * blocks
        self._total_unmet_reserve = self._unmet_reserve()

    def blocks_evicted(self, lbas: np.ndarray) -> None:
        self.blocks_cached(lbas, -1)

    def _unmet_reserve(self) -> int:
        """What the per-block +-1s keep current; a batch recomputes it."""
        return sum(max(0, t.min_blocks - t.occupancy)
                   for t in self._tenants.values())

    def _per_tenant(self, owner: np.ndarray):
        """``(tenant, rows naming it)`` over :meth:`owner_index` values."""
        counts = np.bincount(owner[owner >= 0], minlength=len(self._tenants))
        return zip(self._tenants.values(), counts.tolist())

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def admit(self, block: int, now: float = 0.0) -> bool:
        """May the cache take one more block for this address?"""
        t = self._owner_of(block)
        if t is None:
            return True                      # untagged traffic: no policy
        if not self.enforce:
            t.stats.admitted_blocks += 1
            return True
        occ = t.occupancy
        if occ < t.min_blocks:
            t.stats.admitted_blocks += 1
            return True
        if occ >= t.max_blocks:
            return self._reject(t, block, now, "max_share")
        if not self.work_conserving:
            return self._reject(t, block, now, "no_borrow")
        # Borrow only what no reservation has dibs on.  ``t`` itself
        # contributes nothing to the unmet-reserve sum here (occ >= min).
        free_unreserved = (self.capacity_blocks - self._total_occupancy
                           - self._total_unmet_reserve)
        if free_unreserved <= 0:
            return self._reject(t, block, now, "no_free")
        t.stats.admitted_blocks += 1
        return True

    def can_refuse(self, grown: int) -> bool:
        """Could :meth:`admit` refuse a block while the cache grows by
        ``grown`` blocks, whoever gets them?  ``False`` proves
        :meth:`refusals` empty for a window that grows so many."""
        if not self.enforce:
            return False
        tenants = self._tenants.values()
        if not self.work_conserving:
            return any(t.occupancy + grown >= t.min_blocks for t in tenants)
        return (self.capacity_blocks - self._total_occupancy
                - self._total_unmet_reserve - grown <= 0
                or any(t.occupancy + grown >= t.max_blocks for t in tenants))

    def refusals(self, owner: np.ndarray, asks: np.ndarray,
                 grows: np.ndarray) -> np.ndarray:
        """Rows of a write window :meth:`admit` would refuse.

        Row ``i`` writes a block of tenant ``owner[i]``; ``asks`` marks
        the rows the per-request path puts to :meth:`admit`, ``grows``
        those that add a block.  Within a window occupancy only grows,
        so ``admit`` sees at row ``i`` the state now plus counts over
        the rows before it: exact up to the first refusal, an estimate
        (as if that block were cached) of their density after it.
        """
        if not self.enforce:
            return np.empty(0, dtype=np.int64)
        owned = owner >= 0          # -1 picks the all-zero last row
        occ, low, cap = np.array(
            [(t.occupancy, t.min_blocks, t.max_blocks)
             for t in self._tenants.values()] + [(0, 0, 0)])[owner].T
        occ = occ + _rank_in_group(owner, grows)
        over = True
        if self.work_conserving:
            # Each grown block leaves ``free_unreserved``, unless it
            # fills part of its owner's (already set aside) reservation.
            taken = (grows & ~(owned & (occ < low))).astype(np.int64)
            over = (occ >= cap) | (
                self.capacity_blocks - self._total_occupancy
                - self._total_unmet_reserve - np.cumsum(taken) + taken <= 0)
        return np.flatnonzero(asks & owned & (occ >= low) & over)

    def count_admitted(self, owner: np.ndarray) -> None:
        """``admitted_blocks`` of the asking rows ahead of a refusal."""
        for t, blocks in self._per_tenant(owner):
            t.stats.admitted_blocks += blocks

    def reserved_mask(self, lbas: np.ndarray) -> np.ndarray:
        """Which of a collection's drop candidates (victim log order)
        reclaim must copy forward to honour a reservation.

        Admission alone cannot uphold ``min_share``: tenant-blind log
        reclaim would turn a reserved tenant's cold clean blocks into a
        churn of origin re-reads.  So a tenant sheds only its first
        ``occupancy - min_blocks`` candidates (the observers fire when
        the victim group is dropped, after the collection).
        """
        if not self.enforce:
            return np.zeros(lbas.shape[0], dtype=bool)
        owner = self.owner_index(lbas)
        owned = owner >= 0
        surplus = np.array([max(0, t.occupancy - t.min_blocks)
                            for t in self._tenants.values()] + [0])
        return owned & (_rank_in_group(owner, owned) >= surplus[owner])

    def keep_for_reserve(self, lba: int, dropped: Dict[str, int]) -> bool:
        """Per-block reference of :meth:`reserved_mask`: ``dropped`` is
        the caller's tally of drops already allowed in this collection,
        by tenant; a ``False`` return registers one more."""
        if not self.enforce:
            return False
        t = self._owner_of(lba)
        if t is None:
            return False
        if t.occupancy - dropped.get(t.name, 0) <= t.min_blocks:
            return True
        dropped[t.name] = dropped.get(t.name, 0) + 1
        return False

    def _reject(self, t: _Tenant, block: int, now: float,
                reason: str) -> bool:
        t.stats.rejected_blocks += 1
        obs = self.cache.obs
        if obs.enabled:
            obs.emit(AdmissionRejected(t=now, device=self.cache.name,
                                       tenant=t.name, lba=block,
                                       reason=reason))
        return False

    # ------------------------------------------------------------------
    # accounting hooks (called by Volume and SrcCache)
    # ------------------------------------------------------------------
    def record(self, tenant: str, req: Request, latency: float) -> None:
        """Account one completed volume request for ``tenant``."""
        stats = self._tenants[tenant].stats
        stats.io.record(req)
        if req.origin is IoOrigin.FOREGROUND and (
                req.op is Op.READ or req.op is Op.WRITE):
            stats.latency.record(latency)

    def count_write_around(self, block: int) -> None:
        t = self._owner_of(block)
        if t is not None:
            t.stats.write_arounds += 1

    def count_read_around(self, block: int) -> None:
        t = self._owner_of(block)
        if t is not None:
            t.stats.read_arounds += 1

    def count_destaged(self, tenant: Optional[str], nblocks: int) -> None:
        if tenant in self._tenants:
            self._tenants[tenant].stats.destaged_blocks += nblocks

    def count_stall(self, tenant: Optional[str], waited: float) -> None:
        if tenant in self._tenants:
            stats = self._tenants[tenant].stats
            stats.stalls += 1
            stats.stall_s += waited

    def count_throttle(self, tenant: str, waited: float) -> None:
        stats = self._tenants[tenant].stats
        stats.throttle_waits += 1
        stats.throttle_wait_s += waited

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def reset_latency(self) -> None:
        """Fresh latency reservoirs (end-of-warmup cut, like IoStats)."""
        for t in self._tenants.values():
            t.stats.latency = LatencyStats()

    def occupancy(self, tenant: str) -> int:
        return self._tenants[tenant].occupancy

    def tenant_names(self) -> List[str]:
        return list(self._tenants)

    def stats(self) -> Dict[str, dict]:
        """Per-tenant stats snapshot, keyed by tenant name."""
        out = {}
        for name, t in self._tenants.items():
            doc = t.stats.as_dict()
            doc["qos"] = t.qos.as_dict()
            doc["cached_blocks"] = t.occupancy
            doc["min_blocks"] = t.min_blocks
            doc["max_blocks"] = t.max_blocks
            doc["share"] = (t.occupancy / self.capacity_blocks
                            if self.capacity_blocks else 0.0)
            doc["volumes"] = len(t.volumes)
            out[name] = doc
        return out

    def as_dict(self) -> dict:
        """Snapshot for ``repro.obs.collect`` harvesting."""
        return {
            "enforce": self.enforce,
            "work_conserving": self.work_conserving,
            "capacity_blocks": self.capacity_blocks,
            "total_occupancy": self._total_occupancy,
            "tenants": self.stats(),
        }

    def check_invariants(self) -> None:
        """Occupancy bookkeeping must match ground truth (tests)."""
        cache = self.cache
        for t in self._tenants.values():
            truth = 0
            for vol in t.volumes:
                lo, hi = vol.base_block, vol.base_block + vol.blocks
                truth += sum(1 for lba in range(lo, hi)
                             if lba in cache.mapping
                             or lba in cache.dirty_buf
                             or lba in cache.clean_buf)
            assert truth == t.occupancy, (
                f"tenant {t.name}: occupancy {t.occupancy} != truth {truth}")
        assert self._unmet_reserve() == self._total_unmet_reserve, \
            "unmet reserve drifted"
        total_truth = (cache.mapping.valid_blocks()
                       + len(cache.dirty_buf) + len(cache.clean_buf))
        assert self._total_occupancy == total_truth, (
            f"total occupancy {self._total_occupancy} != "
            f"resident truth {total_truth}")
