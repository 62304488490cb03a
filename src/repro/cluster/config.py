"""Cluster-layer configuration (:mod:`repro.cluster`).

One frozen dataclass in the same idiom as the :class:`SrcConfig`
policy groups: validated in ``__post_init__``, and ``as_dict`` /
``from_dict`` (which refuses unknown keys) for telemetry round-trips.
The knobs split into three concerns:

* **routing geometry** — ``n_shards``, ``vnodes`` (ring points per
  shard), ``slab_blocks`` (the consistent-hash granularity: requests
  are routed per *slab*, a run of contiguous blocks, so multi-block
  requests rarely straddle shards and sequential locality survives
  sharding);
* **migration** — the token-bucket byte rate, the foreground-p99
  guard and the per-pump copy batch (the catch-up bound is
  :data:`repro.cluster.migration.MAX_CATCHUP_PASSES`);
* **failover** — how long an attached spare stays REBUILDING before
  the router calls its slot HEALTHY again.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import MIB
from repro.core.config import _Document


@dataclass(frozen=True)
class ClusterConfig(_Document):
    """Policy for a :class:`~repro.cluster.router.ShardRouter`."""

    n_shards: int = 4                   # initial shard slots
    vnodes: int = 32                    # ring points per shard
    slab_blocks: int = 256              # routing granularity (1 MiB slabs)

    migration_rate: float = 64 * MIB    # copy bytes/s budget; 0 = unlimited
    migration_fg_p99: float = 0.0       # pause migration while foreground
                                        # rolling p99 exceeds this (s); 0 off
    migration_unit_blocks: int = 64     # blocks copied per pump step
    spare_warm_s: float = 0.0           # REBUILDING -> HEALTHY delay after
                                        # a spare shard is attached

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.vnodes < 1:
            raise ConfigError("vnodes must be >= 1")
        if self.slab_blocks < 1:
            raise ConfigError("slab_blocks must be >= 1")
        if self.migration_rate < 0:
            raise ConfigError("migration_rate must be >= 0 (0 = unlimited)")
        if self.migration_fg_p99 < 0 or self.spare_warm_s < 0:
            raise ConfigError("migration_fg_p99 and spare_warm_s must be "
                              ">= 0 (0 disables)")
        if self.migration_unit_blocks < 1:
            raise ConfigError("migration_unit_blocks must be >= 1")
