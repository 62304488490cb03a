"""Tenant volumes: tagged LBA windows onto a shared cache.

A :class:`Volume` is what a tenant actually mounts.  It is a real
:class:`~repro.block.device.BlockDevice` — same ``submit(req, now)``
contract, same lifecycle hooks — over a shared target: one SRC array
(:meth:`TenantRegistry.create_volume
<repro.tenancy.registry.TenantRegistry.create_volume>`) or the shard
router (:meth:`ShardRouter.create_volume
<repro.cluster.router.ShardRouter.create_volume>`), whose consistent
hash scatters the window's slabs across every shard.  It

* shifts volume-relative offsets into the volume's window of the
  target's address space,
* stamps every forwarded request with the tenant tag (so mapping,
  destage and observability can attribute it),
* applies an optional write-rate cap as an *admission delay*: when the
  token bucket is dry, service begin is pushed to the bucket's ready
  time, and the wait is counted in the volume's account, and
* records each completed request's I/O and foreground latency in that
  account (the tenant's :class:`~repro.tenancy.registry.TenantStats`).

The rate cap deliberately rides the ``_admit`` lifecycle hook rather
than dropping requests — a throttled tenant sees higher latency, not
errors, matching how cgroup io.max behaves.
"""

from __future__ import annotations

from repro.block.device import BlockDevice
from repro.common.errors import ConfigError
from repro.common.throttle import TokenBucket
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.obs.events import QosThrottled


def carve(size: int, cursor: int, capacity: int) -> int:
    """Blocks of a ``size``-byte volume carved at block ``cursor`` of a
    ``capacity``-byte address space: whole pages, and it must fit."""
    if size <= 0 or size % PAGE_SIZE:
        raise ConfigError(
            f"volume size must be a positive multiple of {PAGE_SIZE}, "
            f"got {size}")
    if cursor * PAGE_SIZE + size > capacity:
        raise ConfigError(
            f"volume of {size} bytes does not fit: "
            f"{capacity - cursor * PAGE_SIZE} bytes unallocated")
    return size // PAGE_SIZE


class Volume(BlockDevice):
    """One tenant's namespace over a shared target device."""

    def __init__(self, target, tenant: str, base_block: int, blocks: int,
                 max_write_mb_s: float, account, index: int = 0):
        super().__init__(blocks * PAGE_SIZE, name=f"vol{index}:{tenant}")
        self.target = target
        self.tenant = tenant
        self.base_block = base_block
        self.blocks = blocks
        self.account = account
        self._base = base_block * PAGE_SIZE
        rate = max_write_mb_s * MIB
        # Burst of ~10 ms at line rate keeps small bursts unthrottled.
        self._bucket = TokenBucket(rate, burst_bytes=max(rate * 0.01,
                                                         4 * PAGE_SIZE))

    # -- lifecycle hooks ----------------------------------------------
    def _admit(self, req: Request, now: float) -> float:
        if req.op is not Op.WRITE or self._bucket.rate <= 0:
            return now
        begin = self._bucket.ready_time(req.length, now)
        self._bucket.consume(req.length, begin)
        if begin > now:
            self.account.throttle_waits += 1
            self.account.throttle_wait_s += begin - now
            obs = self.target.obs
            if obs.enabled:
                obs.emit(QosThrottled(t=now, device=self.name,
                                      tenant=self.tenant,
                                      waited=begin - now))
        return begin

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            fwd = Request(Op.FLUSH, fua=req.fua, origin=req.origin,
                          tenant=self.tenant)
        else:
            fwd = Request(req.op, req.offset + self._base, req.length,
                          fua=req.fua, origin=req.origin,
                          tenant=self.tenant)
        return self.target.submit(fwd, now)

    def _retire(self, req: Request, now: float, begin: float,
                done: float) -> None:
        # The tenant observes issue-to-completion latency, including
        # any QoS throttle delay before service began.
        self.account.io.record(req)
        if req.origin is IoOrigin.FOREGROUND and (
                req.op is Op.READ or req.op is Op.WRITE):
            self.account.latency.record(done - now)
