"""Golden pins for free-space reclamation (paper §4.2).

Five seeded ``TINY_SRC`` scenarios, one per condition that reclaim has
to handle beside the plain all-healthy single-tenant case: tenant
reservations under S2S, the same under S2D with protection then shed,
a fail-stopped member, a hot spare mid-rebuild, and victims holding
fewer than 32 valid blocks.  Each asserts a sha256 over everything
reclaim can influence — counters, per-device I/O statistics and
timeline heads, the full mapping table and the metadata log.

The digests were recorded from the pre-refactor code, where each of
these scenarios ran the per-block reclaim loop; reclaim now has one
(array) implementation and these pins are what keeps it equal to the
loop it replaced.  A digest may only change together with an intended
change of simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np

from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import GcScheme, ReclaimConfig, RepairConfig
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.ssd.device import SSDDevice
from repro.tenancy import QosSpec, TenantRegistry

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src

STEP = 1e-4

GOLDEN = {
    "tenants-s2s":
        "898d956a72a1a6daf424f8b8dc0151cefc8e31c02e96146ffe05cc95e056a1e8",
    "tenants-s2d":
        "c5c88a9062c080ddfa46be618134130a8e76f667d703be3ea666e9cd04c7f968",
    "degraded":
        "1636f2a579d60c26565484c5030a5badd524baf09f012d8e1506c06c4ae37d4a",
    "rebuilding":
        "c8a04524f891620a1337cb74229705f0e41531843ad6d00365a5912619dc6a56",
    "small-victims": [
        "a383c0bcbd1a411e4f64a1444d6c4e943467e164066f4f0742a81ac7659c0c7a",
        "8ee2c82c132c2d42a5668673d9e93dbc8a326a2be3d575b2efd4cfcb68c634d5",
    ],
}


# ----------------------------------------------------------------------
# digest
# ----------------------------------------------------------------------
def _device_doc(dev) -> dict:
    ssd = getattr(dev, "lower", dev)      # see through a FaultInjector
    return {
        "name": dev.name,
        "stats": dev.stats.as_dict(),
        "heads": [ssd.nand.drain_time(), ssd.nand_reads.drain_time(),
                  ssd.link.drain_time(), ssd.read_link.drain_time()],
    }


def state_digest(cache: SrcCache, registry=None) -> str:
    origin = cache.origin
    doc = {
        "srcstats": cache.srcstats.as_dict(),
        "cstats": cache.cstats.as_dict(),
        "ssds": [_device_doc(s) for s in cache.ssds],
        "origin": {
            "stats": origin.stats.as_dict(),
            "heads": [origin.link.drain_time()]
            + [d.arm.drain_time() for d in origin.disks],
        },
        "mapping": sorted(
            (lba, e.version, e.dirty, e.checksum, e.location.ssd,
             e.location.offset) for lba, e in cache.mapping.items()),
        "metadata": [(s.sequence, s.sg, s.segment, s.dirty, len(s.lbas))
                     for s in cache.metadata.all_summaries()],
        "buffers": [cache.dirty_buf.peek(), cache.clean_buf.peek()],
        "groups": [cache.free_groups, cache.segments.active.index],
        "tenants": registry.as_dict() if registry is not None else None,
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
class _Driver:
    """Issue requests one at a time; audit the books after every
    request during which at least one collection ran."""

    def __init__(self, cache: SrcCache, registry=None):
        self.cache = cache
        self.registry = registry
        self.now = 0.0
        self.audits = 0
        self._seen = 0

    def _audit(self) -> None:
        stats = self.cache.srcstats
        done = stats.s2s_collections + stats.s2d_collections
        if done != self._seen:
            self._seen = done
            self.audits += 1
            self.cache.mapping.check_invariants()
            if self.registry is not None:
                self.registry.check_invariants()

    def io(self, target, op: Op, block: int) -> None:
        end = target.submit(Request(op, block * PAGE_SIZE, PAGE_SIZE),
                            self.now + STEP)
        self.now = max(self.now + STEP, end)
        self._audit()

    def write(self, target, block: int) -> None:
        self.io(target, Op.WRITE, block)

    def read(self, target, block: int) -> None:
        self.io(target, Op.READ, block)


def _capacity(cache: SrcCache) -> int:
    return cache.layout.cache_data_capacity_blocks()


def _tenant_run(reclaim: ReclaimConfig, seed: int, min_share: float,
                footprint_share: float, write_every: int,
                churn_share: float, churn_writes: float):
    """A reserved tenant's cold footprint (reads, every
    ``write_every``-th block a write; all of it inside the
    reservation) washed by another tenant's random write churn."""
    cache = make_src(replace(TINY_SRC, reclaim=reclaim))
    registry = TenantRegistry(cache)
    reserved = registry.create_volume(
        "reserved", 96 * MIB, QosSpec(min_share=min_share, max_share=1.0))
    churn = registry.create_volume("churn", 128 * MIB,
                                   QosSpec(max_share=1.0))
    drv = _Driver(cache, registry)
    rng = np.random.default_rng(seed)
    footprint = int(_capacity(cache) * footprint_share)
    for block in range(footprint):
        if block % write_every == 0:
            drv.write(reserved, block)
        else:
            drv.read(reserved, block)
    ws = int(_capacity(cache) * churn_share)
    for _ in range(int(_capacity(cache) * churn_writes)):
        drv.write(churn, int(rng.integers(0, ws)))
    return cache, registry, drv, footprint


def _faulty_stack(config, n_spares: int) -> SrcCache:
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"t{i}"),
                          name=f"fault{i}")
            for i in range(config.n_ssds)]
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    spares = [SSDDevice(TINY_SSD, name=f"spare{i}")
              for i in range(n_spares)]
    return SrcCache(ssds, origin, config, spares=spares or None)


def _degraded_run(config, n_spares: int, seed: int):
    """Mixed read/write churn; member 1 fail-stops once the cache has
    filled, just before the first collection, so every collection runs
    against the degraded (or rebuilding) array."""
    cache = _faulty_stack(config, n_spares)
    drv = _Driver(cache)
    rng = np.random.default_rng(seed)
    ws = int(_capacity(cache) * 0.6)
    clean_block = 1_000_000
    for i in range(int(_capacity(cache) * 1.8)):
        if i == int(_capacity(cache) * 0.7):
            assert drv.audits == 0
            cache.ssds[1].plan = FaultPlan().fail_stop(at=drv.now)
        if i % 5 == 0:
            drv.read(cache, clean_block)
            clean_block += 1
        else:
            drv.write(cache, int(rng.integers(0, ws)))
    return cache, drv


# ----------------------------------------------------------------------
# the five pins
# ----------------------------------------------------------------------
def test_golden_tenant_reservations_under_s2s():
    cache, registry, drv, footprint = _tenant_run(
        ReclaimConfig(u_max=0.95), seed=11, min_share=0.5,
        footprint_share=0.35, write_every=3, churn_share=0.4,
        churn_writes=1.6)
    stats = cache.srcstats
    assert stats.s2s_collections > 0 and drv.audits > 0
    assert stats.gc_reserved_copies > 0
    assert registry.occupancy("reserved") == footprint
    assert state_digest(cache, registry) == GOLDEN["tenants-s2s"]


def test_golden_tenant_reservations_under_s2d_protect_then_shed():
    cache, registry, drv, footprint = _tenant_run(
        ReclaimConfig(gc_scheme=GcScheme.S2D), seed=12, min_share=0.9,
        footprint_share=0.85, write_every=8, churn_share=0.05,
        churn_writes=0.5)
    stats = cache.srcstats
    assert stats.s2s_collections == 0 and stats.s2d_collections > 0
    assert stats.gc_reserved_copies > 0          # protected S2D ran ...
    # ... and stalled often enough in a row that protection was shed:
    # only an unprotected collection evicts a tenant inside its
    # reservation.
    assert registry.occupancy("reserved") < footprint
    assert registry.stats()["reserved"]["destaged_blocks"] > 0
    assert state_digest(cache, registry) == GOLDEN["tenants-s2d"]


def test_golden_fail_stopped_member_during_gc():
    config = replace(TINY_SRC, reclaim=ReclaimConfig(u_max=0.95))
    cache, drv = _degraded_run(config, n_spares=0, seed=13)
    stats = cache.srcstats
    assert cache.ssds[1].failed and not cache.bypass
    assert stats.s2s_collections > 0 and stats.s2d_collections > 0
    assert state_digest(cache) == GOLDEN["degraded"]


def test_golden_hot_spare_mid_rebuild_during_gc():
    # 1 byte/s: after its burst the rebuild is frozen, and the job only
    # completes because collections drop the groups it still has to
    # rebuild — each of those ran with the job open, reading victims
    # whose units on the spare are not there yet.
    config = replace(TINY_SRC, reclaim=ReclaimConfig(u_max=0.95),
                     repair=RepairConfig(hot_spares=1, rebuild_rate=1.0))
    cache, drv = _degraded_run(config, n_spares=1, seed=14)
    stats = cache.srcstats
    assert stats.spares_attached == 1 and not cache.bypass
    assert stats.rebuilds_completed == 1 and stats.rebuild_units < 8
    assert stats.s2s_collections > 0 and stats.s2d_collections > 0
    assert state_digest(cache) == GOLDEN["rebuilding"]


def test_golden_victims_below_32_valid_blocks():
    digests = []
    for scheme in (GcScheme.SEL_GC, GcScheme.S2D):
        cache = make_src(replace(
            TINY_SRC, reclaim=ReclaimConfig(gc_scheme=scheme)))
        drv = _Driver(cache)
        pinned = 2_000_000
        ws = 512
        small = 0
        for i in range(int(_capacity(cache) * 2.5)):
            before = (cache.srcstats.s2s_collections
                      + cache.srcstats.s2d_collections)
            closed = cache.segments._closed_fifo
            victim = closed[0] if closed else None
            valid = (cache.mapping.sg_valid_count(victim)
                     if victim is not None else 0)
            if i % 257 == 0:
                drv.write(cache, pinned)     # written once, never again
                pinned += 1
            else:
                drv.write(cache, i % ws)
            after = (cache.srcstats.s2s_collections
                     + cache.srcstats.s2d_collections)
            if after != before and valid < 32:
                small += 1
        assert small > 0 and drv.audits > 0
        digests.append(state_digest(cache))
    assert digests == GOLDEN["small-victims"]
