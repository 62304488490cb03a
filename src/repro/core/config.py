"""SRC configuration — the design space of Table 7.

Defaults match the bold entries of the paper's Table 7: 256 MB erase
group, Sel-GC with UMAX 90%, FIFO victim selection, no parity for clean
data (NPC), RAID-5, flush per Segment Group.

The configuration is split into policy groups, each a frozen dataclass:

* structural geometry knobs live directly on :class:`SrcConfig`
  (``n_ssds``, ``erase_group_size``, ``segment_unit``, ``raid_level``,
  ``clean_redundancy``, ``flush_point``, ``t_wait``, ``cache_space``);
* :class:`ReclaimConfig` — free-space reclamation (§4.2);
* :class:`FaultConfig` — retry/fail-slow/bypass resilience policies;
* :class:`RepairConfig` — hot spares, rebuild and scrub scheduling;
* :class:`QosConfig` — multi-tenant share enforcement
  (:mod:`repro.tenancy`).

Policy knobs are only reachable through their group: the pre-split
flat spellings (``SrcConfig(u_max=0.85)``, ``config.u_max``, flat
``from_dict`` documents) are gone and fail loudly — see
``docs/extending.md`` for the migration table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.common.errors import ConfigError
from repro.common.units import KIB, MIB, PAGE_SIZE


class GcScheme(enum.Enum):
    S2D = "s2d"          # destage-only GC (SSD to Disk)
    SEL_GC = "sel-gc"    # selective S2S/S2D by utilization and hotness


class VictimPolicy(enum.Enum):
    FIFO = "fifo"        # oldest segment group first
    GREEDY = "greedy"    # least-utilized segment group first
    # §6 future work ("other victim SG selection policies"): the LFS
    # cost-benefit heuristic — prefer old, lightly-utilized groups via
    # age * (1 - u) / (1 + u).
    COST_BENEFIT = "cost-benefit"


class CleanRedundancy(enum.Enum):
    PC = "pc"            # Parity for Clean stripes
    NPC = "npc"          # No Parity for Clean stripes


class FlushPoint(enum.Enum):
    PER_SEGMENT = "per-segment"
    PER_SEGMENT_GROUP = "per-segment-group"


class _Document:
    """Dict round-trip shared by the (frozen dataclass) config classes."""

    def as_dict(self) -> dict:
        """JSON-ready nested form; round-trips through :meth:`from_dict`."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _Document):
                value = value.as_dict()
            elif isinstance(value, enum.Enum):
                value = value.value
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a config from :meth:`as_dict` output.

        Unknown keys are refused: dropping them silently would load a
        misspelt knob — or a whole pre-split flat document — with the
        defaults instead.
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(
                f"{cls.__name__} document has unknown key(s) "
                f"{', '.join(unknown)}; policy knobs live in the nested "
                "reclaim/faults/repair/qos groups (docs/extending.md)")
        kwargs = dict(data)
        for f in fields(cls):
            value = kwargs.get(f.name)
            if isinstance(f.default, enum.Enum) and f.name in kwargs:
                kwargs[f.name] = type(f.default)(value)
            elif isinstance(value, dict):          # a nested policy group
                kwargs[f.name] = f.default_factory.from_dict(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class ReclaimConfig(_Document):
    """Free-space reclamation policy (paper §4.2)."""

    gc_scheme: GcScheme = GcScheme.SEL_GC
    u_max: float = 0.90                 # Sel-GC S2S/S2D utilization bound
    victim_policy: VictimPolicy = VictimPolicy.FIFO
    gc_free_low: int = 2                # SGs: reclaim below this many free
    gc_free_high: int = 4               # SGs: reclaim up to this many free
    separate_hot_clean: bool = False    # future-work extension (§6)
    hotness_aware: bool = True          # ablation: False copies all clean
                                        # data in S2S instead of hot only

    def __post_init__(self) -> None:
        if not 0.0 < self.u_max <= 1.0:
            raise ConfigError(f"u_max must be in (0,1], got {self.u_max}")
        if self.gc_free_high < self.gc_free_low:
            raise ConfigError("gc_free_high must be >= gc_free_low")


@dataclass(frozen=True)
class FaultConfig(_Document):
    """Resilience policies (§4.1 failure handling, extended by the
    repro.faults subsystem; see docs/fault_model.md)."""

    retry_attempts: int = 4             # total tries per SSD request
    retry_backoff: float = 200e-6       # first-retry delay, doubled after
    retry_timeout: float = 50e-3        # per-request retry budget (s)
    failslow_p99: float = 0.0           # rolling-p99 limit (s); 0 disables
    failslow_window: int = 256          # samples per detection window
    failslow_flush_p99: float = 0.0     # FLUSH-latency p99 limit (s);
                                        # 0 disables (see docs/fault_model.md
                                        # on why FLUSH gets its own window)
    bypass_on_failure: bool = True      # origin-bypass when array is lost

    def __post_init__(self) -> None:
        if self.retry_attempts < 1:
            raise ConfigError("retry_attempts must be >= 1")
        if self.retry_backoff < 0 or self.retry_timeout <= 0:
            raise ConfigError("retry_backoff must be >= 0 and "
                              "retry_timeout > 0")
        if self.failslow_p99 < 0:
            raise ConfigError("failslow_p99 must be >= 0 (0 disables)")
        if self.failslow_window < 2:
            raise ConfigError("failslow_window must be >= 2")
        if self.failslow_flush_p99 < 0:
            raise ConfigError("failslow_flush_p99 must be >= 0 (0 disables)")


@dataclass(frozen=True)
class RepairConfig(_Document):
    """Online repair (repro.repair; docs/fault_model.md)."""

    hot_spares: int = 0                 # spare SSDs attachable on failure
    rebuild_rate: float = 64 * MIB      # rebuild bytes/s budget; 0 = unlimited
    rebuild_fg_p99: float = 0.0         # pause rebuild while the foreground
                                        # rolling p99 exceeds this (s); 0 off
    scrub_interval: float = 0.0         # seconds between scrub passes; 0 off
    scrub_rate: float = 0.0             # scrub bytes/s budget; 0 = unlimited

    def __post_init__(self) -> None:
        if self.hot_spares < 0:
            raise ConfigError("hot_spares must be >= 0")
        if self.rebuild_rate < 0 or self.scrub_rate < 0:
            raise ConfigError("rebuild_rate and scrub_rate must be >= 0 "
                              "(0 = unlimited)")
        if self.rebuild_fg_p99 < 0 or self.scrub_interval < 0:
            raise ConfigError("rebuild_fg_p99 and scrub_interval must be "
                              ">= 0 (0 disables)")


@dataclass(frozen=True)
class QosConfig(_Document):
    """Multi-tenant quality-of-service policy (:mod:`repro.tenancy`).

    Shares are fractions of the cache's data capacity.  A tenant's
    ``min_share`` is a reservation: admissions below it always succeed.
    ``max_share`` is a hard cap.  Between the two, admission depends on
    ``work_conserving``: when True a tenant may borrow capacity that no
    reservation is waiting on; when False tenants are strictly
    partitioned at their reservations.
    """

    enforce_shares: bool = True         # partition min/max occupancy shares
    work_conserving: bool = True        # borrow idle unreserved capacity
    default_min_share: float = 0.0      # reservation for unspecced tenants
    default_max_share: float = 1.0      # cap for unspecced tenants

    def __post_init__(self) -> None:
        if not 0.0 <= self.default_min_share <= 1.0:
            raise ConfigError("default_min_share must be in [0,1]")
        if not 0.0 <= self.default_max_share <= 1.0:
            raise ConfigError("default_max_share must be in [0,1]")
        if self.default_min_share > self.default_max_share:
            raise ConfigError("default_min_share must be <= "
                              "default_max_share")


@dataclass(frozen=True)
class SrcConfig(_Document):
    """Tunable parameters of an SRC cache instance (Table 7).

    Structural geometry lives here; policy knobs are grouped into the
    nested ``reclaim``, ``faults``, ``repair`` and ``qos`` dataclasses.
    """

    n_ssds: int = 4
    erase_group_size: int = 256 * MIB   # per-SSD; SG size = n_ssds * this
    segment_unit: int = 512 * KIB       # per-SSD share of one segment
    clean_redundancy: CleanRedundancy = CleanRedundancy.NPC
    raid_level: int = 5                 # 0, 4 or 5 at the cache level
    flush_point: FlushPoint = FlushPoint.PER_SEGMENT_GROUP
    # Partial-segment timeout.  §4.1 quotes 20 microseconds, but at that
    # value every write whose predecessor is more than 20 us away would
    # burn a whole segment slot on a partial write — pathological for
    # any workload below full write saturation.  We default to 10 ms,
    # which preserves the durability intent (dirty data never lingers
    # unpersisted) without the slot-burn artefact.
    t_wait: float = 10e-3
    cache_space: int = 0                # bytes of cache space to use (0=all)
    reclaim: ReclaimConfig = field(default_factory=ReclaimConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    repair: RepairConfig = field(default_factory=RepairConfig)
    qos: QosConfig = field(default_factory=QosConfig)

    def __post_init__(self) -> None:
        if self.n_ssds < 1:
            raise ConfigError("need at least one SSD")
        if self.raid_level not in (0, 4, 5):
            raise ConfigError(f"unsupported cache RAID level {self.raid_level}")
        if self.raid_level in (4, 5) and self.n_ssds < 3:
            raise ConfigError("parity RAID needs >= 3 SSDs")
        if self.erase_group_size % self.segment_unit:
            raise ConfigError("erase group must be a multiple of the "
                              "segment unit")
        if self.segment_unit % PAGE_SIZE:
            raise ConfigError("segment unit must be 4 KiB aligned")

    # Geometry (paper §4.1, in the M = 4, S = 128 GB context) ----------
    @property
    def segment_size(self) -> int:
        """One segment spans ``segment_unit`` bytes on every SSD (2 MB)."""
        return self.segment_unit * self.n_ssds

    @property
    def segment_group_size(self) -> int:
        """One SG spans the erase group on every SSD (1 GB)."""
        return self.erase_group_size * self.n_ssds

    @property
    def segments_per_group(self) -> int:
        return self.erase_group_size // self.segment_unit

    @property
    def data_ssds(self) -> int:
        """SSD shares carrying data in a parity-protected stripe."""
        return self.n_ssds - 1 if self.raid_level in (4, 5) else self.n_ssds

    def scaled(self, factor: float) -> "SrcConfig":
        """Shrink the capacity-like knobs, mirroring SsdSpec.scaled."""
        if not 0 < factor <= 1:
            raise ConfigError(f"scale factor must be in (0,1], got {factor}")

        def scale(nbytes: int, floor: int) -> int:
            scaled_val = max(floor, int(nbytes * factor))
            return scaled_val - scaled_val % floor

        # The segment unit is floored at 256 KiB so metadata overhead
        # (2 blocks of MS/ME per unit) stays near the paper's ~1.6%
        # rather than ballooning at small scales.
        seg_unit = max(scale(self.segment_unit, 4 * KIB), 256 * KIB)
        erase = max(scale(self.erase_group_size, seg_unit), 4 * seg_unit)
        return replace(
            self,
            segment_unit=seg_unit,
            erase_group_size=erase,
            cache_space=scale(self.cache_space, 4 * KIB)
            if self.cache_space else 0,
        )
