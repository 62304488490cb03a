"""The per-device health state machine shared by SRC and the RAID layer.

The paper's reliability story (§4.3) is a sequence of states, not a
boolean: an SSD is *healthy*, then *degraded* (failed, array serving
around it via parity/mirror), then *rebuilding* (a hot spare holds its
slot and reconstruction is in flight), then healthy again.  Two states
are terminal: *failed* (no redundancy and no spare — the slot's data is
gone) and *bypass* (SRC gave the array up and passes everything to the
origin).  Making the machine explicit lets SRC and ``repro.raid``
share one vocabulary (a RAID slot only ever walks ``HEALTHY ->
DEGRADED -> FAILED``: nothing resilvers an md array here), lets the
observability layer emit typed
``HealthTransition`` events, and lets MTTR / degraded-window time be
accounted mechanistically instead of inferred from logs.

::

                 +-----------------------------------------+
                 v                                         |
    HEALTHY --> DEGRADED --> REBUILDING --> HEALTHY        |
       |           |            |   |                      |
       |           |            +---+ (spare died:         |
       |           |                   back to DEGRADED) --+
       |           v            v
       +------> FAILED       FAILED
       |           |            |
       v           v            v
     BYPASS <---------------------  (terminal, SRC only)

Every transition is validated against :data:`LEGAL_TRANSITIONS`;
illegal ones raise :class:`RepairStateError` — a repair subsystem that
silently skips states is exactly the kind of bug this machine exists
to catch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ReproError


class RepairStateError(ReproError):
    """An illegal device-health transition was attempted."""


class DeviceHealth(enum.Enum):
    """Health of one member slot of an array."""

    HEALTHY = "healthy"        # serving normally
    DEGRADED = "degraded"      # failed; array reconstructs around it
    REBUILDING = "rebuilding"  # hot spare in the slot, rebuild in flight
    FAILED = "failed"          # terminal: no redundancy, no spare
    BYPASS = "bypass"          # terminal: SRC passes through to origin

    @property
    def terminal(self) -> bool:
        return self in (DeviceHealth.FAILED, DeviceHealth.BYPASS)


LEGAL_TRANSITIONS: Dict[DeviceHealth, frozenset] = {
    DeviceHealth.HEALTHY: frozenset({
        DeviceHealth.DEGRADED, DeviceHealth.FAILED, DeviceHealth.BYPASS}),
    DeviceHealth.DEGRADED: frozenset({
        DeviceHealth.REBUILDING, DeviceHealth.FAILED,
        DeviceHealth.BYPASS}),
    DeviceHealth.REBUILDING: frozenset({
        DeviceHealth.HEALTHY, DeviceHealth.DEGRADED,
        DeviceHealth.FAILED, DeviceHealth.BYPASS}),
    DeviceHealth.FAILED: frozenset({DeviceHealth.BYPASS}),
    DeviceHealth.BYPASS: frozenset(),
}


@dataclass(frozen=True)
class Transition:
    """One recorded health transition of one member slot."""

    member: int
    old: DeviceHealth
    new: DeviceHealth
    t: float
    reason: str = ""


class HealthTracker:
    """Health states, transition history and repair-time accounting.

    Tracks one state per member *slot* (a hot spare that takes a slot
    inherits the slot's state machine).  Accounting:

    * ``degraded_window_s`` — total simulated time any slot spent not
      HEALTHY, accumulated when a slot returns to HEALTHY (terminal
      states stop the clock at the transition into them);
    * ``last_mttr`` — the most recent failure-to-healthy interval.
    """

    def __init__(self, n_members: int, device: str = ""):
        if n_members < 1:
            raise RepairStateError("need at least one member slot")
        self.device = device
        self._states: List[DeviceHealth] = (
            [DeviceHealth.HEALTHY] * n_members)
        self.history: List[Transition] = []
        self._unhealthy_since: Dict[int, float] = {}
        self.degraded_window_s = 0.0
        self.last_mttr: Optional[float] = None

    def __len__(self) -> int:
        return len(self._states)

    def state(self, member: int) -> DeviceHealth:
        return self._states[member]

    def states(self) -> List[DeviceHealth]:
        return list(self._states)

    def count(self, *states: DeviceHealth) -> int:
        return sum(1 for s in self._states if s in states)

    def all_healthy(self) -> bool:
        return all(s is DeviceHealth.HEALTHY for s in self._states)

    def transition(self, member: int, new: DeviceHealth, now: float,
                   reason: str = "") -> Transition:
        """Move ``member`` to ``new``, validating legality.

        Returns the :class:`Transition` record so the owner can emit a
        ``HealthTransition`` observability event without this module
        depending on the recorder.
        """
        old = self._states[member]
        if new is old:
            raise RepairStateError(
                f"{self.device} member {member}: self-transition "
                f"{old.value} -> {new.value}")
        if new not in LEGAL_TRANSITIONS[old]:
            raise RepairStateError(
                f"{self.device} member {member}: illegal transition "
                f"{old.value} -> {new.value}")
        self._states[member] = new
        record = Transition(member=member, old=old, new=new, t=now,
                            reason=reason)
        self.history.append(record)
        # Repair-time accounting.
        if old is DeviceHealth.HEALTHY:
            self._unhealthy_since[member] = now
        if new is DeviceHealth.HEALTHY or new.terminal:
            since = self._unhealthy_since.pop(member, None)
            if since is not None:
                window = max(0.0, now - since)
                self.degraded_window_s += window
                if new is DeviceHealth.HEALTHY:
                    self.last_mttr = window
        return record

    def failed_since(self, member: int) -> Optional[float]:
        """When ``member`` left HEALTHY (None while healthy)."""
        return self._unhealthy_since.get(member)

    def as_dict(self) -> dict:
        return {
            "states": [s.value for s in self._states],
            "transitions": len(self.history),
            "degraded_window_s": self.degraded_window_s,
            "last_mttr": self.last_mttr,
        }
