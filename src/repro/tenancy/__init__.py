"""repro.tenancy — multi-tenant volumes over one SRC array.

The paper's SRC design assumes a single origin feeding one
log-structured array.  This package breaks that assumption the way
Open-CAS attaches many core volumes to one cache (per-volume I/O
classes, partition quotas) and ECI-Cache sizes per-VM partitions:

* :class:`Volume` — a tenant-owned LBA namespace (a disjoint window of
  the origin address space, over one array or a shard router) that
  tags every request with its tenant, applies a write-rate cap at
  admission and accounts its tenant's I/O and latency;
* :class:`QosSpec` — a tenant's QoS class: ``min_share`` (guaranteed
  fraction of cache data capacity), ``max_share`` (hard cap) and an
  optional write-rate limit;
* :class:`TenantRegistry` — tracks per-tenant cache occupancy exactly
  (observer hooks on the mapping table and segment buffers), decides
  admission (reservation-safe work-conserving borrowing between min
  and max), and keeps per-tenant I/O stats and latency histograms.

See ``docs/tenancy.md`` for the QoS model and borrowing semantics.
"""

from repro.tenancy.qos import BEST_EFFORT, GOLD, SILVER, QosSpec
from repro.tenancy.registry import TenantRegistry, TenantStats
from repro.tenancy.volume import Volume

__all__ = [
    "BEST_EFFORT",
    "GOLD",
    "SILVER",
    "QosSpec",
    "TenantRegistry",
    "TenantStats",
    "Volume",
]
