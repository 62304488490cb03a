"""Typed trace events and the bounded event trace.

Every internal resource transition worth explaining a paper number with
is a small frozen dataclass: GC activity and erases inside the SSDs'
FTLs, segment seals / destages / degraded reads inside SRC, flush
barriers at every layer, rebuild progress in SRC's repair.  Events
carry a simulated timestamp ``t`` (issue time for start-of-operation
events, completion time for end-of-operation ones) and the emitting
device's name, so a merged trace across a whole stack stays
attributable.

Determinism: events are emitted from the simulation's deterministic
paths only, so the same seed and workload produce a byte-identical
event sequence — asserted by ``tests/test_obs.py``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Iterator, List, Type


@dataclass(frozen=True)
class Event:
    """Base event: simulated time plus the emitting device."""

    t: float
    device: str

    @property
    def kind(self) -> str:
        return type(self).__name__

    def as_dict(self) -> dict:
        data = {"type": self.kind}
        data.update(asdict(self))
        return data


@dataclass(frozen=True)
class GcStart(Event):
    """Garbage collection of one victim unit begins.

    For an SSD FTL the victim is a superblock; for SRC it is a segment
    group.  ``valid_pages`` is the live data that must be relocated (or
    destaged) before the unit can be reclaimed.
    """

    victim: int
    valid_pages: int


@dataclass(frozen=True)
class GcEnd(Event):
    """Garbage collection of one victim unit finished."""

    victim: int
    moved_pages: int


@dataclass(frozen=True)
class Erase(Event):
    """A flash superblock (erase group) was erased."""

    superblock: int
    erase_count: int     # lifetime erases of that superblock, after this one


@dataclass(frozen=True)
class FlushBarrier(Event):
    """A durability barrier (FLUSH) was serviced by a device."""


@dataclass(frozen=True)
class SegmentSealed(Event):
    """SRC wrote (sealed) one segment to the SSD array."""

    sg: int
    segment: int
    dirty: bool
    with_parity: bool
    blocks: int
    partial: bool


@dataclass(frozen=True)
class Destage(Event):
    """Dirty blocks were written back to primary storage."""

    blocks: int


@dataclass(frozen=True)
class DegradedRead(Event):
    """A read was served around a failed device."""

    lba: int


@dataclass(frozen=True)
class RebuildProgress(Event):
    """Online rebuild advanced: ``done`` of ``total`` units restored."""

    done: int
    total: int


@dataclass(frozen=True)
class BackpressureStall(Event):
    """Foreground work throttled behind background reclaim.

    Emitted when a foreground segment-group roll needed a group whose
    background reclaim had not yet completed: the write waits
    ``waited`` seconds for the group to become ready.  ``free_groups``
    is the state-wise free count at stall time (space existed — it was
    the reclaim *time* that had not caught up).
    """

    waited: float
    free_groups: int


@dataclass(frozen=True)
class FaultInjected(Event):
    """The fault layer injected a fault into a device.

    ``fault`` is the taxonomy entry (``transient``, ``fail-stop``,
    ``power-cut``, ``limp``, ``corruption``); ``op`` names the request
    that tripped it (empty for faults armed outside a request).
    """

    fault: str
    op: str = ""


@dataclass(frozen=True)
class RetryAttempt(Event):
    """A transient I/O error is being retried after backoff."""

    attempt: int
    op: str
    delay: float


@dataclass(frozen=True)
class TimeoutExpired(Event):
    """A request's retry/timeout budget ran out; the device is given up on."""

    attempts: int
    waited: float


@dataclass(frozen=True)
class DeviceLimping(Event):
    """Fail-slow detection: a device's rolling p99 crossed the threshold."""

    p99: float
    threshold: float


@dataclass(frozen=True)
class BypassEntered(Event):
    """SRC fell back to origin-bypass pass-through.

    ``lost_dirty`` counts acknowledged dirty blocks that became
    unreachable when the cache array stopped serving.
    """

    reason: str
    lost_dirty: int


@dataclass(frozen=True)
class HealthTransition(Event):
    """One member slot moved between device-health states.

    ``old``/``new`` are :class:`~repro.repair.health.DeviceHealth`
    values (their string forms, so the event stays a plain record).
    """

    member: int
    old: str
    new: str
    reason: str = ""


@dataclass(frozen=True)
class RebuildStarted(Event):
    """A hot spare was attached and background rebuild began."""

    member: int
    spare: str
    units: int


@dataclass(frozen=True)
class RebuildCompleted(Event):
    """Background rebuild restored full redundancy for one member.

    ``elapsed`` is the failure-to-healthy interval (MTTR) in simulated
    seconds.
    """

    member: int
    units: int
    elapsed: float


@dataclass(frozen=True)
class ScrubProgress(Event):
    """The background scrubber advanced through the sealed segments."""

    checked: int
    total: int
    repaired: int


@dataclass(frozen=True)
class CorruptionDetected(Event):
    """A checksum mismatch was found on a cached block.

    Emitted by the scrubber (proactive) — the foreground read path
    repairs inline without a detection event, as it always has.
    """

    lba: int
    member: int


@dataclass(frozen=True)
class CorruptionRepaired(Event):
    """A corrupted cached block was rewritten from a good copy.

    ``source`` names where the data came back from: ``parity``
    (stripe reconstruction) or ``origin`` (clean-data re-fetch).
    """

    lba: int
    member: int
    source: str


@dataclass(frozen=True)
class ScrubUnrepairable(Event):
    """Scrub found corruption with no surviving redundancy.

    A dirty block in a non-parity segment (or a double fault): the data
    is lost and the mapping entry is dropped instead of serving a
    corrupt read later.
    """

    lba: int
    member: int


@dataclass(frozen=True)
class AdmissionRejected(Event):
    """Per-tenant admission control turned a block away from the cache.

    The I/O still completes — writes go around the cache straight to
    the origin, read misses are served from the origin uncached — so
    this marks lost caching opportunity, not a failed request.
    ``reason`` is ``max_share`` (tenant at its occupancy cap),
    ``no_borrow`` (past its reservation with borrowing switched off,
    ``work_conserving=False``) or ``no_free`` (nothing left to borrow
    work-conservingly).
    """

    tenant: str
    lba: int
    reason: str


@dataclass(frozen=True)
class QosThrottled(Event):
    """A tenant write waited on its QoS token bucket.

    ``waited`` is the simulated delay (seconds) the rate cap imposed
    before the write was admitted to the array.
    """

    tenant: str
    waited: float


@dataclass(frozen=True)
class ShardHealthTransition(Event):
    """One cluster shard slot moved between health states.

    The shard-level sibling of :class:`HealthTransition`: same
    vocabulary (``old``/``new`` are ``DeviceHealth`` string values),
    but ``shard`` indexes a router slot, not an SSD member.
    """

    shard: int
    old: str
    new: str
    reason: str = ""


@dataclass(frozen=True)
class MigrationProgress(Event):
    """A cluster rebalance advanced or changed phase.

    ``phase`` is ``start`` / ``range`` (one hash range handed off) /
    ``done`` / ``resume``; ``done``/``total`` count ranges, and
    ``blocks`` / ``dirty_blocks`` count what has been copied so far.
    """

    phase: str
    done: int
    total: int
    blocks: int = 0
    dirty_blocks: int = 0


@dataclass(frozen=True)
class RouterDegraded(Event):
    """The router started serving a shard's hash ranges from the origin.

    ``lost_dirty`` counts acknowledged-dirty blocks that existed only
    on the failed shard (same accounting as ``BypassEntered``);
    ``ranges`` is how many ring arcs now fall through to the origin.
    """

    shard: int
    reason: str
    lost_dirty: int
    ranges: int


EVENT_TYPES: List[Type[Event]] = [
    GcStart, GcEnd, Erase, FlushBarrier, SegmentSealed, Destage,
    DegradedRead, RebuildProgress, BackpressureStall, FaultInjected,
    RetryAttempt, TimeoutExpired, DeviceLimping, BypassEntered,
    HealthTransition, RebuildStarted, RebuildCompleted, ScrubProgress,
    CorruptionDetected, CorruptionRepaired, ScrubUnrepairable,
    AdmissionRejected, QosThrottled, ShardHealthTransition,
    MigrationProgress, RouterDegraded,
]


def event_fields(event_type: Type[Event]) -> List[str]:
    """Field names of one event type (for the CSV exporter / docs)."""
    return [f.name for f in fields(event_type)]


class EventTrace:
    """Append-only, bounded, totally-ordered event log.

    The bound keeps long runs from hoarding memory: past ``max_events``
    new events are counted (per type) but not stored, so aggregate
    counts stay exact even when the stored prefix is truncated.
    """

    def __init__(self, max_events: int = 200_000):
        self.max_events = max_events
        self.events: List[Event] = []
        self.dropped = 0
        self._counts: Dict[str, int] = {}

    def append(self, event: Event) -> None:
        kind = type(event).__name__
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped += 1

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def counts(self) -> Dict[str, int]:
        """Exact per-type event counts (overflow-safe)."""
        return dict(sorted(self._counts.items()))

    def of_type(self, event_type: Type[Event]) -> List[Event]:
        return [e for e in self.events if isinstance(e, event_type)]

    def as_dicts(self) -> List[dict]:
        return [e.as_dict() for e in self.events]
