"""repro.api — the stable public surface of the reproduction.

Everything a consumer (the CLI, the examples, external scripts) needs
lives here under one import path::

    from repro.api import open_array, QosSpec, Request, Op

    array = open_array(scale=1 / 64)
    vol = array.create_volume("tenant-a", size=256 * MIB,
                              qos=QosSpec(min_share=0.2))
    done = vol.submit(Request(Op.WRITE, 0, 4096), now=0.0)
    print(array.stats()["tenants"])

Internal module paths (``repro.core.*``, ``repro.harness.*``) may
move between releases; names exported here will not.  The facade
groups four things:

* **array lifecycle** — :func:`open_array` builds the paper's platform
  (preconditioned SSD array, iSCSI RAID-10 origin, SRC on top) and
  returns an :class:`Array` handle with volume and stats methods;
* **types** — requests, configs, QoS classes, result containers;
* **experiments** — the :data:`EXPERIMENTS` registry and
  :func:`run_experiment` / :func:`result_violations` used by the CLI
  and CI;
* **observability** — recorder attach/use and the ``collect`` harvest.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.common import WritePolicy
from repro.cluster import (ClusterConfig, ClusterStats, MigrationLedger,
                           ShardRouter)
from repro.common.errors import ConfigError, ReproError
from repro.common.types import (IoOrigin, IoStats, LatencyStats, Op,
                                Request, flush)
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE, mb_per_sec
from repro.core.config import (CleanRedundancy, FaultConfig, FlushPoint,
                               GcScheme, QosConfig, ReclaimConfig,
                               RepairConfig, SrcConfig, VictimPolicy)
from repro.core.src import SrcCache
from repro.harness.context import (CACHE_SPACE, DEFAULT_SCALE, QUICK_SCALE,
                                   ExperimentScale, build_bcache,
                                   build_cluster, build_flashcache,
                                   build_shard, build_src)
from repro.harness.experiments import REGISTRY
from repro.harness.results import ExperimentResult
from repro.obs import ObsRecorder, attach, collect, events_to_csv, to_json, use
from repro.ssd.spec import NVME_MLC_400, SATA_MLC_128, SATA_TLC_128, SsdSpec
from repro.tenancy import QosSpec, TenantRegistry, TenantStats, Volume
from repro.workloads.replay import replay_group

# ----------------------------------------------------------------------
# experiment registry (the CLI renders this; CI drives it)
# ----------------------------------------------------------------------
# id -> (module holding the code it runs, one-line blurb), in CLI order.
EXPERIMENTS: Dict[str, "tuple[str, str]"] = {
    exp_id: (entry.module, entry.blurb) for exp_id, entry in REGISTRY.items()}


def run_experiment(exp_id: str, es: ExperimentScale = DEFAULT_SCALE,
                   jobs: int = 1) -> List[ExperimentResult]:
    """Run one experiment id, returning its ExperimentResult(s).

    ``jobs`` fans the experiment's independent cells over a process
    pool; results are identical to ``jobs=1``.
    """
    if exp_id not in REGISTRY:
        raise ConfigError(
            f"unknown experiment {exp_id!r}; known: "
            f"{', '.join(sorted(REGISTRY))}")
    return REGISTRY[exp_id].run(es, jobs)


def result_violations(result: ExperimentResult) -> List[str]:
    """Acceptance failures (``violation:`` notes) recorded in a result."""
    return [n for n in result.notes if n.startswith("violation:")]


def run_chaos(scenarios: Optional[List[str]] = None,
              budget: Optional[int] = 40,
              frontier_path: Optional[str] = None,
              seed: int = 0, ops: Optional[int] = None,
              composed: bool = True) -> dict:
    """The chaos verification layer (``repro chaos``).

    Explores up to ``budget`` unexplored crash points per scenario
    (``None`` = the whole space, what CI runs) against the frontier at
    ``frontier_path`` (``None`` = in memory), proves the explorer
    catches a deliberately skipped ME seal, then runs one
    composed-fault scheduler pass.  Returns a JSON-ready payload whose
    ``"ok"`` is False iff any oracle, invariant, or differential
    violation was found, an exception escaped a recovery, or the
    broken seal went unnoticed.
    """
    from repro.chaos import (ChaosScheduler, CrashFrontier,
                             CrashPointExplorer, SCENARIOS)
    names = list(scenarios) if scenarios else list(SCENARIOS)
    explorer = CrashPointExplorer(
        seed=seed, **({"ops": ops} if ops else {}),
        frontier=CrashFrontier(frontier_path))
    payload: dict = {"scenarios": {}, "sensitivity": None, "composed": None,
                     "ok": True}
    for name in names:
        report = explorer.explore(name, budget=budget)
        payload["scenarios"][name] = {
            "discovered": report.discovered,
            "explored_total": report.explored_total,
            "explored_now": report.explored_now,
            "remaining": report.remaining,
            "violations": report.violations,
        }
        payload["ok"] = payload["ok"] and report.ok
    caught = explorer.broken_seal_caught()
    payload["sensitivity"] = {"break": "ME seal skipped",
                              "violations_caught": caught}
    payload["ok"] = payload["ok"] and caught > 0
    if composed:
        composed_report = ChaosScheduler(seed=seed).run()
        payload["composed"] = composed_report.as_dict()
        payload["ok"] = payload["ok"] and composed_report.ok
    return payload


def generate_report(es: ExperimentScale, output: str,
                    quick_label: str = "") -> None:
    """Run every experiment and write the markdown report."""
    from repro.harness.report import generate
    generate(es, output, quick_label=quick_label)


def export_synthetic_trace(trace: str, requests: int, sink,
                           scale: float = 1.0, seed: int = 0) -> int:
    """Materialise a synthetic trace as MSR-CSV records into ``sink``."""
    from repro.workloads.trace_io import export_synthetic
    return export_synthetic(trace, requests, sink, scale=scale, seed=seed)


# ----------------------------------------------------------------------
# array lifecycle
# ----------------------------------------------------------------------
class Array:
    """Handle to a running SRC stack, optionally multi-tenant.

    Thin and stable: the underlying :class:`~repro.core.src.SrcCache`
    is reachable as :attr:`cache` for power users, but everything the
    examples and CLI need — volumes, raw submission, stats — is a
    method here.
    """

    def __init__(self, cache: SrcCache,
                 registry: Optional[TenantRegistry] = None):
        self.cache = cache
        self._registry = registry

    @property
    def config(self) -> SrcConfig:
        return self.cache.config

    @property
    def tenants(self) -> Optional[TenantRegistry]:
        """The tenant registry, or None while still single-tenant."""
        return self._registry

    @property
    def size(self) -> int:
        return self.cache.size

    def create_volume(self, tenant: str, size: int,
                      qos: Optional[QosSpec] = None) -> Volume:
        """Carve a tenant volume; installs the registry on first use."""
        if self._registry is None:
            self._registry = TenantRegistry(self.cache)
        return self._registry.create_volume(tenant, size, qos)

    def submit(self, req: Request, now: float) -> float:
        """Raw array-level submission (origin address space)."""
        return self.cache.submit(req, now)

    def read(self, offset: int, length: int, now: float) -> float:
        return self.cache.read(offset, length, now)

    def write(self, offset: int, length: int, now: float,
              fua: bool = False) -> float:
        return self.cache.write(offset, length, now, fua=fua)

    def flush(self, now: float) -> float:
        return self.cache.flush(now)

    def utilization(self) -> float:
        return self.cache.utilization()

    def io_amplification(self) -> float:
        return self.cache.io_amplification()

    def stats(self) -> dict:
        """The full device-tree stats harvest, plus per-tenant stats.

        The tree is :func:`repro.obs.collect` over the cache (nested
        ``as_dict`` snapshots of every device); when the array is
        multi-tenant a ``tenants`` section carries the registry's
        per-tenant occupancy, admission and latency accounting.
        """
        doc = collect(self.cache)
        if self._registry is not None:
            doc["tenants"] = self._registry.as_dict()
        return doc

    def __repr__(self) -> str:
        n = (len(self._registry.tenant_names())
             if self._registry is not None else 0)
        return f"<Array {self.cache.name} tenants={n}>"


def open_array(config: Optional[SrcConfig] = None, *,
               scale: float = 1.0,
               ssds=None, origin=None,
               spec: SsdSpec = SATA_MLC_128) -> Array:
    """Build the paper's platform and return an :class:`Array` handle.

    ``config`` defaults to the Table 7 design point with the 18 GB
    cache window; ``scale`` shrinks capacities and footprints (1/32 is
    the harness default) while latencies and bandwidths stay
    calibrated.  ``ssds`` / ``origin`` override the built devices (for
    fault injection or custom specs).
    """
    cache = build_src(scale, config, ssds=ssds, origin=origin, spec=spec)
    return Array(cache)


__all__ = [
    # array lifecycle
    "Array",
    "open_array",
    # tenancy
    "QosSpec",
    "TenantRegistry",
    "TenantStats",
    "Volume",
    # cluster
    "ClusterConfig",
    "ClusterStats",
    "MigrationLedger",
    "ShardRouter",
    "build_cluster",
    "build_shard",
    # request / result types
    "IoOrigin",
    "IoStats",
    "LatencyStats",
    "Op",
    "Request",
    "flush",
    "ExperimentResult",
    # configuration
    "CleanRedundancy",
    "FaultConfig",
    "FlushPoint",
    "GcScheme",
    "QosConfig",
    "ReclaimConfig",
    "RepairConfig",
    "SrcConfig",
    "VictimPolicy",
    "WritePolicy",
    # device specs / builders
    "NVME_MLC_400",
    "SATA_MLC_128",
    "SATA_TLC_128",
    "SsdSpec",
    "SrcCache",
    "build_bcache",
    "build_flashcache",
    "build_src",
    # scales and constants
    "CACHE_SPACE",
    "DEFAULT_SCALE",
    "QUICK_SCALE",
    "ExperimentScale",
    "GIB",
    "KIB",
    "MIB",
    "PAGE_SIZE",
    "mb_per_sec",
    # experiments
    "EXPERIMENTS",
    "run_experiment",
    "result_violations",
    "generate_report",
    "export_synthetic_trace",
    "replay_group",
    # errors
    "ConfigError",
    "ReproError",
    # observability
    "ObsRecorder",
    "attach",
    "collect",
    "events_to_csv",
    "to_json",
    "use",
]
