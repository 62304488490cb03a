"""Multi-tenant workload population (docs/tenancy.md).

Real consolidated arrays see a heavy-tailed tenant mix: many small
tenants with modest, cache-friendly working sets, and a few *whales*
whose write footprints would swallow the whole cache if allowed.  This
module builds such a population deterministically:

* :func:`zipf_population` sizes tenant volumes by a Zipf-like decay, so
  tenant 0 (the biggest whale) gets the lion's share of the bytes and
  the tail tenants get small slices;
* :func:`tenant_stream` generates each tenant's request stream —
  volume-relative offsets with Zipf locality inside the tenant's own
  working set, tagged with the tenant name;
* :func:`volume_router` adapts a tenant→Volume map into the engine's
  issue-function contract, dispatching each tagged request to its
  owner's volume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List

import numpy as np

from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.tenancy.qos import QosSpec
from repro.workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload and QoS description."""

    name: str
    volume_bytes: int
    qos: QosSpec = QosSpec()
    read_fraction: float = 0.5
    request_size: int = PAGE_SIZE
    zipf_theta: float = 0.99
    streams: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.volume_bytes < self.request_size:
            raise ConfigError(
                f"tenant {self.name}: volume smaller than one request")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be in [0, 1]")


def zipf_population(n_tenants: int, total_bytes: int,
                    n_whales: int = 1,
                    alpha: float = 1.2,
                    whale_qos: QosSpec = QosSpec(),
                    small_qos: QosSpec = QosSpec(),
                    read_fraction: float = 0.5,
                    whale_read_fraction: float = 0.1,
                    seed: int = 0) -> List[TenantSpec]:
    """A heavy-tailed tenant population over ``total_bytes``.

    Volume sizes decay as ``1 / rank**alpha`` (page-aligned, at least
    4 MiB each).  The first ``n_whales`` tenants are write-heavy
    whales under ``whale_qos``; the rest are balanced small tenants
    under ``small_qos``.
    """
    if n_tenants < 1:
        raise ConfigError("need at least one tenant")
    if not 0 <= n_whales <= n_tenants:
        raise ConfigError("n_whales must be within the population")
    weights = np.array([1.0 / (rank + 1) ** alpha
                        for rank in range(n_tenants)])
    weights /= weights.sum()
    floor = 4 * MIB
    specs: List[TenantSpec] = []
    for rank, weight in enumerate(weights):
        size = max(floor, int(weight * total_bytes) // PAGE_SIZE * PAGE_SIZE)
        whale = rank < n_whales
        specs.append(TenantSpec(
            name=(f"whale{rank}" if whale else f"tenant{rank}"),
            volume_bytes=size,
            qos=whale_qos if whale else small_qos,
            read_fraction=whale_read_fraction if whale else read_fraction,
            seed=seed + rank))
    total = sum(s.volume_bytes for s in specs)
    if total > total_bytes:
        # The per-tenant floor can overshoot on tiny budgets; shrink the
        # biggest volume to compensate rather than failing.
        overshoot = total - total_bytes
        head = specs[0]
        shrunk = (head.volume_bytes - overshoot) // PAGE_SIZE * PAGE_SIZE
        if shrunk < floor:
            raise ConfigError(
                f"total_bytes={total_bytes} too small for {n_tenants} "
                f"tenants (needs >= {floor} bytes each)")
        specs[0] = replace(head, volume_bytes=shrunk)
    return specs


def tenant_stream(spec: TenantSpec, stream: int = 0) -> Iterator[Request]:
    """One closed-loop request stream for a tenant, forever.

    Offsets are volume-relative with Zipf(``zipf_theta``) locality
    over the tenant's own blocks; every request carries the tenant
    tag so a router or Volume can attribute it.
    """
    blocks = spec.volume_bytes // PAGE_SIZE
    span_blocks = max(1, blocks - spec.request_size // PAGE_SIZE + 1)
    sampler = ZipfSampler(span_blocks, theta=spec.zipf_theta,
                          seed=spec.seed * 1000 + stream)
    rng = np.random.default_rng(spec.seed * 1000 + stream + 7)
    while True:
        offset = sampler.sample() * PAGE_SIZE
        op = Op.READ if rng.random() < spec.read_fraction else Op.WRITE
        yield Request(op, offset, spec.request_size, tenant=spec.name)


def volume_router(volumes: Dict[str, "object"]):
    """Engine issue function dispatching tagged requests to volumes.

    ``volumes`` maps tenant name → :class:`~repro.tenancy.volume.
    Volume` (or any BlockDevice).  Requests must carry a tenant tag
    known to the map.
    """
    def issue(req: Request, now: float) -> float:
        return volumes[req.tenant].submit(req, now)
    return issue
