"""Continuous invariant monitors (chaos pillar 3).

Each monitor is a pure read-only audit of one subsystem's books; the
:class:`InvariantSuite` composes every monitor that applies to a given
stack and can therefore run *while faults are live* — between chunks
of a batched run, mid-rebalance, mid-rebuild — not just at the end.

Monitored invariants:

* **free-space conservation** — every segment group is in exactly one
  of FREE / ACTIVE / CLOSED, the free list and closed FIFO partition
  the non-active groups, and no mapping entry points into a FREE
  group or the superblock group;
* **mapping / buffer / residency consistency** — the shared residency
  array's per-code populations equal the structures they index
  (mapping valid count, dirty/clean buffer lengths),
  plus the mapping table's own internal invariants;
* **tenant accounting** — delegated to
  :meth:`repro.tenancy.registry.TenantRegistry.check_invariants`
  (per-tenant and total occupancy equal ground truth);
* **migration-ledger bounds** — at most one open intent, committed
  ranges are a subset of the intent's move list, and a closed ledger
  holds no residue;
* **health-machine legality** — every tracked slot is in a legal
  :class:`~repro.repair.health.DeviceHealth` state, rebuild jobs only
  exist for REBUILDING slots, and a bypassed cache has no jobs;
* **cluster ownership** — with no rebalance in flight, every cached
  block lives only on the shard that owns its hash range, and no
  block is dirty on two shards.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ReproError
from repro.core.arrays import B_CLEAN, B_DIRTY, B_MAPPED
from repro.core.segments import GroupState
from repro.repair.health import DeviceHealth


class InvariantViolation(ReproError):
    """An invariant monitor found the books out of balance."""


def check_group_accounting(cache) -> List[str]:
    """Free-space conservation across the segment groups."""
    problems: List[str] = []
    log = cache.segments
    free = set(log._free)
    closed = set(log._closed_fifo)
    if free & closed:
        problems.append(
            f"groups {sorted(free & closed)} on both free and closed lists")
    active_index = log.active.index if log.active is not None else None
    for group in log.groups:
        if group.state == GroupState.FREE:
            if group.index not in free:
                problems.append(
                    f"group {group.index} FREE but not on the free list")
        elif group.state == GroupState.ACTIVE:
            if group.index != active_index:
                problems.append(
                    f"group {group.index} ACTIVE but not the active group")
        elif group.state == GroupState.CLOSED:
            if group.index not in closed and group.index != 0:
                problems.append(
                    f"group {group.index} CLOSED but not on the closed "
                    "FIFO (and not the superblock group)")
        else:
            problems.append(
                f"group {group.index} in unknown state {group.state!r}")
    for index in free:
        if log.groups[index].state != GroupState.FREE:
            problems.append(
                f"free list holds group {index} in state "
                f"{log.groups[index].state}")
    for index in closed:
        if log.groups[index].state != GroupState.CLOSED:
            problems.append(
                f"closed FIFO holds group {index} in state "
                f"{log.groups[index].state}")
    for lba, entry in cache.mapping.items():
        sg = entry.location.sg
        if sg == 0:
            problems.append(f"lba {lba} mapped into superblock group 0")
        elif log.groups[sg].state == GroupState.FREE:
            problems.append(f"lba {lba} mapped into FREE group {sg}")
    return problems


def check_residency(cache) -> List[str]:
    """Mapping and buffer populations match the residency array."""
    problems: List[str] = []
    codes = cache._state.a
    counts = {
        "mapped": (int((codes == B_MAPPED).sum()),
                   cache.mapping.valid_blocks()),
        "dirty-buffered": (int((codes == B_DIRTY).sum()),
                           len(cache.dirty_buf)),
        "clean-buffered": (int((codes == B_CLEAN).sum()),
                           len(cache.clean_buf)),
    }
    for label, (array_count, struct_count) in counts.items():
        if array_count != struct_count:
            problems.append(
                f"{label}: residency array says {array_count}, "
                f"structure says {struct_count}")
    try:
        cache.mapping.check_invariants()
    except AssertionError as exc:
        problems.append(f"mapping internal invariant: {exc}")
    return problems


def check_tenants(cache) -> List[str]:
    """Tenant occupancy books (when a registry is attached)."""
    registry = getattr(cache, "tenants", None)
    if registry is None:
        return []
    try:
        registry.check_invariants()
    except AssertionError as exc:
        return [f"tenant accounting: {exc}"]
    return []


def check_repair(cache) -> List[str]:
    """Health-machine legality for the cache's member slots."""
    problems: List[str] = []
    controller = getattr(cache, "repair", None)
    if controller is None:
        return problems
    n = len(cache.ssds)
    for idx in range(n):
        state = controller.health.state(idx)
        if not isinstance(state, DeviceHealth):
            problems.append(f"slot {idx} health is {state!r}")
    for job in controller.jobs:
        state = controller.health.state(job.member)
        if state is not DeviceHealth.REBUILDING:
            problems.append(
                f"rebuild job for slot {job.member} but slot is "
                f"{state.value}")
    if cache.bypass and controller.jobs:
        problems.append("cache is bypassed but rebuild jobs remain")
    return problems


def check_ledger(ledger) -> List[str]:
    """Migration-ledger bounds: one intent, committed ⊆ moves."""
    problems: List[str] = []
    if ledger is None:
        return problems
    if ledger.active:
        if ledger.op not in ("add", "remove"):
            problems.append(f"open intent with unknown op {ledger.op!r}")
        if ledger.slot is None:
            problems.append("open intent with no target slot")
        move_keys = {move.key for move in ledger.moves}
        stray = ledger._committed - move_keys
        if stray:
            problems.append(
                f"{len(stray)} committed ranges outside the intent's "
                "move list")
    else:
        if ledger.moves or ledger._committed:
            problems.append("closed ledger still holds moves/commits")
    return problems


def check_cluster_ownership(router) -> List[str]:
    """Single-owner: every cached block sits on its owning shard.

    Only meaningful when no rebalance is in flight — mid-migration a
    range legitimately exists on both source and target (the source
    keeps its copy until the move commits), so the monitor confines
    itself to blocks *outside* the open intent's ranges then.
    """
    problems: List[str] = []
    settled = router._migration is None and not router._overrides
    moving = list(router.ledger.moves) if router.ledger.active else []

    def in_flight(lba: int) -> bool:
        point = router.ring.key_hash(lba // router.config.slab_blocks)
        return any(move.contains(point) for move in moving)

    dirty_holders = {}
    for slot in router.serving_slots():
        shard = router.shards[slot]
        for lba, dirty in shard.cached_blocks():
            if settled and router.owner_slot(lba) != slot:
                problems.append(
                    f"lba {lba} cached on slot {slot}, owned by "
                    f"{router.owner_slot(lba)}")
            if dirty and not in_flight(lba):
                if lba in dirty_holders:
                    problems.append(
                        f"lba {lba} dirty on slots {dirty_holders[lba]} "
                        f"and {slot}")
                dirty_holders[lba] = slot
    for slot in router.shards:
        state = router.health.state(slot)
        if state in (DeviceHealth.FAILED, DeviceHealth.BYPASS):
            problems.append(
                f"slot {slot} still routed while {state.value}")
    return problems


class InvariantSuite:
    """Compose every monitor that applies to a stack; count the runs."""

    def __init__(self, caches=None, router=None):
        self.caches = list(caches) if caches is not None else []
        self.router = router
        self.ledger = router.ledger if router is not None else None
        if router is not None:
            self.caches.extend(
                s for s in router.shards.values() if s not in self.caches)
        self.checks_run = 0
        self.violations: List[str] = []

    def check_all(self, raise_on_violation: bool = False) -> List[str]:
        problems: List[str] = []
        for cache in self.caches:
            label = getattr(cache, "name", "cache")
            for problem in (check_group_accounting(cache)
                            + check_residency(cache)
                            + check_tenants(cache)
                            + check_repair(cache)):
                problems.append(f"{label}: {problem}")
        for problem in check_ledger(self.ledger):
            problems.append(f"ledger: {problem}")
        if self.router is not None:
            for problem in check_cluster_ownership(self.router):
                problems.append(f"cluster: {problem}")
        self.checks_run += 1
        self.violations.extend(problems)
        if problems and raise_on_violation:
            raise InvariantViolation("; ".join(problems))
        return problems
