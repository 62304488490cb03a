"""Resumable rebuild bookkeeping.

A :class:`RebuildJob` is the unit-granular work list for restoring one
member slot onto its hot spare; its units are SRC's sealed segments.
It is deliberately dumb — a cursor over a snapshot of units plus a
done-set — so a job survives being advanced a few units at a time from
whatever foreground entry point pumps it.

Reads that land on a not-yet-rebuilt unit may :meth:`promote` it to
the front of the queue, the standard trick for making a rebuilding
array's read latency converge quickly on hot data.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Hashable, Iterable, Optional, Sequence


class RebuildJob:
    """Work list for rebuilding one member slot onto a spare."""

    def __init__(self, member: int, units: Sequence[Hashable]):
        self.member = member
        self._queue: Deque[Hashable] = deque(units)
        self.unit_set = set(units)
        self.done: set = set()
        self.total = len(self.unit_set)
        self.last_io_end = 0.0     # _finish_job takes the later of it and now
        self.cancelled = False

    def pending(self) -> int:
        return len(self.unit_set) - len(self.done)

    @property
    def complete(self) -> bool:
        return not self.cancelled and self.pending() == 0

    def covers(self, unit: Hashable) -> bool:
        """Whether ``unit`` still awaits rebuild under this job."""
        return unit in self.unit_set and unit not in self.done

    def next_unit(self) -> Optional[Hashable]:
        while self._queue:
            unit = self._queue[0]
            if unit in self.unit_set and unit not in self.done:
                return unit
            self._queue.popleft()
        return None

    def mark_done(self, unit: Hashable, io_end: float) -> None:
        self.done.add(unit)
        if self._queue and self._queue[0] == unit:
            self._queue.popleft()
        self.last_io_end = max(self.last_io_end, io_end)

    def drop(self, units: Iterable[Hashable]) -> None:
        """Forget units whose data no longer exists (e.g. GC'd group)."""
        for unit in units:
            self.unit_set.discard(unit)
            self.done.discard(unit)

    def promote(self, unit: Hashable) -> None:
        """Move a still-pending unit to the front of the queue."""
        if self.covers(unit):
            self._queue.appendleft(unit)
