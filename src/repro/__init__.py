"""repro — a simulator-based reproduction of *Enabling Cost-Effective
Flash based Caching with an Array of Commodity SSDs* (Oh et al.,
Middleware 2015).

Public API
----------
The stable surface lives in :mod:`repro.api` and is re-exported here::

    from repro import open_array, QosSpec, Request, Op

    array = open_array(scale=1 / 64)
    vol = array.create_volume("tenant-a", size=256 * 2**20)
    done = vol.submit(Request(Op.WRITE, 0, 4096), now=0.0)
    print(array.stats()["tenants"])

Highlights:

- :func:`repro.api.open_array` / :class:`repro.api.Array` — build and
  drive the paper's platform (SRC over four commodity SSDs).
- :class:`repro.tenancy.Volume` / :class:`repro.tenancy.QosSpec` —
  multi-tenant volumes with per-tenant shares over one array.
- :class:`repro.core.config.SrcConfig` — the Table 7 design space
  (nested ``reclaim``/``faults``/``repair``/``qos`` groups).
- :mod:`repro.harness` — one module per reproduced table/figure;
  :data:`repro.api.EXPERIMENTS` lists them.

See README.md for a quickstart and DESIGN.md for the system inventory.
Internal module paths may move; names in ``repro.api.__all__`` (all
re-exported here) will not.
"""

from repro import api as api
from repro.api import (CACHE_SPACE, DEFAULT_SCALE, EXPERIMENTS, GIB, KIB,
                       MIB, NVME_MLC_400, PAGE_SIZE, QUICK_SCALE,
                       SATA_MLC_128, SATA_TLC_128, Array, CleanRedundancy,
                       ClusterConfig, ClusterStats, ClusterVolume,
                       ConfigError, ExperimentResult, ExperimentScale,
                       FaultConfig, FlushPoint, GcScheme, IoOrigin, IoStats,
                       LatencyStats, MigrationLedger, ObsRecorder, Op,
                       QosConfig, QosSpec, ReclaimConfig, RepairConfig,
                       ReproError, Request, ShardRouter, SrcCache, SrcConfig,
                       SsdSpec, TenantRegistry, TenantStats, VictimPolicy,
                       Volume, WritePolicy, attach, build_bcache,
                       build_cluster, build_flashcache, build_shard,
                       build_src, collect, events_to_csv,
                       export_synthetic_trace, flush, generate_report,
                       mb_per_sec, open_array, replay_group,
                       result_violations, run_experiment, to_json, use)

# Device-level classes below the stable facade, kept importable from
# the package root for existing scripts and tests.
from repro.baselines.bcache import BcacheDevice
from repro.baselines.flashcache import FlashcacheDevice
from repro.baselines.writeboost import WriteboostDevice
from repro.core.recovery import recover
from repro.hdd.backend import PrimaryStorage
from repro.raid.array import (Raid0Device, Raid1Device, Raid4Device,
                              Raid5Device, make_raid)
from repro.ssd.device import SSDDevice, precondition

__version__ = "2.0.0"

# The facade is the contract: everything repro.api exports is exported
# here, plus the legacy device-level names.
__all__ = sorted(set(api.__all__) | {
    "BcacheDevice",
    "FlashcacheDevice",
    "PrimaryStorage",
    "Raid0Device",
    "Raid1Device",
    "Raid4Device",
    "Raid5Device",
    "SSDDevice",
    "WriteboostDevice",
    "api",
    "make_raid",
    "precondition",
    "recover",
})
