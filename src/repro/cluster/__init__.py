"""Sharded SRC cluster: consistent-hash routing over independent
SRC caches, with shard failover, resumable rebalancing and
blast-radius control (docs/cluster.md).
"""

from .config import ClusterConfig
from .hashring import HashRing, arc_contains
from .health import ShardHealthTracker
from .migration import (MigrationError, MigrationJob, MigrationLedger,
                        RangeMove)
from .router import ClusterStats, ShardRouter

__all__ = [
    "ClusterConfig",
    "ClusterStats",
    "HashRing",
    "MigrationError",
    "MigrationJob",
    "MigrationLedger",
    "RangeMove",
    "ShardHealthTracker",
    "ShardRouter",
    "arc_contains",
]
