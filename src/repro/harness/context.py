"""Shared experiment context: device builders and scale presets.

Every experiment builds its stack through these helpers so that the
paper's §5.1 platform (four preconditioned 128 GB SSDs, an 18 GB cache
window, the iSCSI RAID-10 backend) is configured in exactly one place.

``ExperimentScale`` handles the scale-down: device capacities and trace
footprints shrink by ``scale`` while bandwidths and latencies stay
calibrated, so throughput numbers remain in real units and experiments
finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.baselines.bcache import BcacheDevice
from repro.baselines.common import WritePolicy
from repro.baselines.flashcache import FlashcacheDevice
from repro.block.device import BlockDevice, LinearDevice
from repro.common.units import GIB, KIB, MIB
from repro.core.config import SrcConfig
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.obs.recorder import attach as obs_attach
from repro.raid.array import make_raid
from repro.ssd.device import SSDDevice, precondition
from repro.ssd.spec import SATA_MLC_128, SsdSpec

# The paper's cache window: "we utilize only 18GB as our cache space".
CACHE_SPACE = 18 * GIB
# Preconditioning: fill until only the OPS size remains (§5.1).
PRECONDITION_FILL = 0.985


@dataclass(frozen=True)
class ExperimentScale:
    """Scale-down and run-length preset for one experiment run."""

    scale: float = 1 / 32
    warmup: float = 60.0       # simulated seconds before measurement
    duration: float = 10.0     # measured simulated seconds
    seed: int = 1
    fio_iodepth: int = 32      # the paper's FIO queue depth (§3.1)
    fio_threads: int = 4

    def quickened(self) -> "ExperimentScale":
        """Cheaper preset used by the pytest benchmarks."""
        return ExperimentScale(scale=1 / 64, warmup=25.0, duration=6.0,
                               seed=self.seed, fio_iodepth=8,
                               fio_threads=2)


DEFAULT_SCALE = ExperimentScale()
QUICK_SCALE = DEFAULT_SCALE.quickened()


def build_ssds(scale: float, n: int = 4,
               spec: SsdSpec = SATA_MLC_128,
               prefix: str = "") -> List[SSDDevice]:
    """n preconditioned, scaled SSDs (paper Table 1 cache devices),
    named ``{prefix}{spec name}-{i}``."""
    scaled = spec.scaled(scale)
    ssds = [SSDDevice(scaled, name=f"{prefix}{scaled.name}-{i}")
            for i in range(n)]
    for ssd in ssds:
        precondition(ssd, fill_fraction=PRECONDITION_FILL)
        obs_attach(ssd)
    return ssds


def build_origin() -> PrimaryStorage:
    """The iSCSI RAID-10 backend (paper Table 1)."""
    return obs_attach(PrimaryStorage())


def build_src(scale: float, config: Optional[SrcConfig] = None,
              ssds: Optional[List[SSDDevice]] = None,
              origin: Optional[BlockDevice] = None,
              spec: SsdSpec = SATA_MLC_128) -> SrcCache:
    """An SRC stack at the given scale (defaults per Table 7)."""
    config = config or SrcConfig(cache_space=CACHE_SPACE)
    if config.cache_space == 0:
        config = replace(config, cache_space=CACHE_SPACE)
    scaled_config = config.scaled(scale)
    ssds = ssds or build_ssds(scale, n=config.n_ssds, spec=spec)
    origin = origin or build_origin()
    spares = None
    if scaled_config.repair.hot_spares > 0:
        # Hot spares ship fresh from the box: no preconditioning, so a
        # rebuild lands on an empty FTL exactly like a drive swap would.
        scaled = spec.scaled(scale)
        spares = [obs_attach(SSDDevice(scaled, name=f"{scaled.name}-spare{i}"))
                  for i in range(scaled_config.repair.hot_spares)]
    return obs_attach(SrcCache(ssds, origin, scaled_config, spares=spares))


def build_shard(scale: float, config: Optional[SrcConfig] = None,
                origin: Optional[BlockDevice] = None,
                label: str = "shard0") -> SrcCache:
    """One SRC shard stack for a cluster (named SSDs, shared origin)."""
    config = config or SrcConfig(cache_space=CACHE_SPACE)
    ssds = build_ssds(scale, n=config.n_ssds, prefix=f"{label}-")
    shard = build_src(scale, config=config, ssds=ssds, origin=origin)
    shard.name = label
    return shard


def build_cluster(scale: float, n_shards: int = 4,
                  cluster_config: Optional["ClusterConfig"] = None
                  ) -> "ShardRouter":
    """A sharded SRC cluster: N independent stacks, one shared origin.

    Every shard fronts the *same* origin device — the cluster multiplexes
    one address space, it does not glue together N disjoint ones — and
    splits the paper's cache window evenly, so total cache capacity is
    scale-equivalent to a single ``build_src`` stack.
    """
    from repro.cluster import ClusterConfig, ShardRouter
    cluster_config = replace(cluster_config or ClusterConfig(),
                             n_shards=n_shards)
    origin = build_origin()
    config = SrcConfig(cache_space=CACHE_SPACE // n_shards)
    shards = [build_shard(scale, config=config, origin=origin,
                          label=f"shard{i}")
              for i in range(n_shards)]
    return obs_attach(ShardRouter(shards, origin, cluster_config))


def build_cache_window(scale: float, raid_level: int
                       ) -> "tuple[BlockDevice, List[SSDDevice]]":
    """A RAID-over-SSDs cache device (4 KiB chunks, per §5.4) limited
    to the 18 GB window.

    This is the substrate the paper puts beneath Bcache and Flashcache
    for the Figure 1 / Figure 7 experiments.
    """
    ssds = build_ssds(scale)
    if raid_level < 0:   # single-device cache (Tables 2/3 setups)
        dev: BlockDevice = ssds[0]
    else:
        dev = make_raid(raid_level, list(ssds), 4 * KIB)
    window = min(dev.size, int(CACHE_SPACE * scale))
    linear = LinearDevice(dev, 0, window, name=f"cache-window-r{raid_level}")
    return obs_attach(linear), ssds


def build_bcache(scale: float, raid_level: int = 5,
                 policy: WritePolicy = WritePolicy.WRITE_BACK,
                 writeback_percent: float = 0.90) -> BcacheDevice:
    """Bcache5-style stack (bucket 2 MB, RAID chunk 4 KB, per §5.4)."""
    window, _ = build_cache_window(scale, raid_level)
    return obs_attach(BcacheDevice(window, build_origin(),
                                   bucket_size=2 * MIB,
                                   policy=policy,
                                   writeback_percent=writeback_percent))


def build_flashcache(scale: float, raid_level: int = 5,
                     policy: WritePolicy = WritePolicy.WRITE_BACK,
                     dirty_thresh_pct: float = 0.90) -> FlashcacheDevice:
    """Flashcache5-style stack (set 2 MB, RAID chunk 4 KB, per §5.4)."""
    window, _ = build_cache_window(scale, raid_level)
    return obs_attach(FlashcacheDevice(window, build_origin(),
                                       set_size=2 * MIB,
                                       policy=policy,
                                       dirty_thresh_pct=dirty_thresh_pct))
