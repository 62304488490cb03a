"""repro.chaos — the chaos verification layer.

The one crash-testing mechanism of the repository: systematic
verification with three pillars, all built on one crash rig
(:mod:`repro.chaos.rig`: the tiny geometry, the injector-wrapped stack
builders and the one cluster recovery).

* :mod:`repro.chaos.oracle` — an **end-to-end integrity oracle**.  A
  shadow map of expected per-block content (and therefore checksums)
  is maintained from the request stream alone and verified against
  what the stack would actually serve — after reads, after crash
  recovery, after migration.  Silent data loss stops being a silent
  statistic and becomes a hard failure.
* :mod:`repro.chaos.crashpoints` — a **systematic crash-point
  explorer**.  Instead of sampling seeds, every durability site
  (metadata summary write, segment seal, member or spare write,
  destage ack, migration ledger transition, spare attach) is
  enumerated deterministically and CI cuts power at every one; a
  resumable frontier serves budgeted local runs.
* :mod:`repro.chaos.invariants` — **invariant monitors** (free-space
  conservation, mapping/buffer/residency consistency, tenant
  accounting, migration-ledger bounds, health-machine legality) that
  can be evaluated continuously while faults are live, plus
  :mod:`repro.chaos.scheduler`, which composes several simultaneous
  fault types over the batched cluster stack and runs the monitors
  throughout.

CLI: ``python -m repro chaos`` (see ``docs/fault_model.md``).
"""

from repro.chaos.crashpoints import (CrashFrontier, CrashPointExplorer,
                                     ExplorationReport, SCENARIOS)
from repro.chaos.invariants import InvariantSuite, InvariantViolation
from repro.chaos.oracle import IntegrityOracle, OracleViolation
from repro.chaos.scheduler import ChaosReport, ChaosScheduler

__all__ = [
    "ChaosReport",
    "ChaosScheduler",
    "CrashFrontier",
    "CrashPointExplorer",
    "ExplorationReport",
    "IntegrityOracle",
    "InvariantSuite",
    "InvariantViolation",
    "OracleViolation",
    "SCENARIOS",
]
