"""Recorders: where instrumented code sends its telemetry.

Every instrumented object (block devices, FTLs, writeback schedulers)
holds an ``obs`` attribute.  By default that is :data:`NULL_RECORDER`,
whose class-level ``enabled = False`` lets hot paths skip all telemetry
work with a single attribute test::

    if self.obs.enabled:
        self.obs.emit(Erase(t=now, device=self.name, ...))

so an un-observed run constructs no event objects and touches no
registry — the zero-cost-when-disabled contract the tier-1 benchmarks
rely on.

An :class:`ObsRecorder` bundles a :class:`~repro.obs.metrics.MetricRegistry`,
an :class:`~repro.obs.events.EventTrace` and (optionally) a
:class:`~repro.obs.sampler.Sampler`.  Recorders are installed either
explicitly (``repro.obs.attach(stack, recorder)``) or ambiently for a
scope (``with repro.obs.use(recorder): ...``), which the experiment
builders in :mod:`repro.harness.context` honour when constructing
stacks.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Iterator, Optional, Tuple

from repro.obs.events import Event, EventTrace
from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.sampler import Sampler


class NullRecorder:
    """No-op recorder; the default for every instrumented object."""

    enabled = False

    def emit(self, event: Event) -> None:
        pass

    def observe_io(self, device, req, issued: float, done: float) -> None:
        pass

    def observe_io_chunk(self, device, latencies) -> None:
        pass

    def observe_queue(self, device, depth: int, delay: float) -> None:
        pass


NULL_RECORDER = NullRecorder()


class ObsRecorder:
    """Collects metrics, events and (optionally) periodic samples."""

    enabled = True

    def __init__(self, sample_interval: float = 0.0):
        self.registry = MetricRegistry()
        self.trace = EventTrace()
        self.sampler: Optional[Sampler] = (
            Sampler(sample_interval) if sample_interval > 0 else None)
        self._latency: dict = {}
        self._queues: dict = {}
        # (device, live path ledger) per attached SrcCache window and
        # shard router, keyed by the ledger's identity.
        self._windows: dict = {}

    def emit(self, event: Event) -> None:
        self.trace.append(event)

    def observe_io(self, device, req, issued: float, done: float) -> None:
        """Per-request completion hook from ``BlockDevice.submit``."""
        hist = self._latency.get(device.name)
        if hist is None:
            hist = self.registry.histogram(f"dev.{device.name}.latency_s")
            self._latency[device.name] = hist
        hist.record(done - issued)

    def observe_io_chunk(self, device, latencies) -> None:
        """Bulk :meth:`observe_io` for one batched chunk window.

        ``latencies`` is the per-row ``done - issued`` array; recording
        it through :meth:`Histogram.record_many` reproduces the scalar
        per-request path bit-for-bit.
        """
        hist = self._latency.get(device.name)
        if hist is None:
            hist = self.registry.histogram(f"dev.{device.name}.latency_s")
            self._latency[device.name] = hist
        hist.record_many(latencies)

    def observe_queue(self, device, depth: int, delay: float) -> None:
        """Queue-occupancy hook from ``QueuedDevice._retire``.

        Keeps a live queue-depth gauge per device plus a histogram of
        nonzero queueing delays, so a collected stats tree shows where
        submissions waited for slots.
        """
        pair = self._queues.get(device.name)
        if pair is None:
            pair = (self.registry.gauge(f"dev.{device.name}.queue_depth"),
                    self.registry.histogram(
                        f"dev.{device.name}.queue_delay_s"))
            self._queues[device.name] = pair
        pair[0].set(depth)
        if delay > 0:
            pair[1].record(delay)

    def device_latency(self, name: str) -> Optional[Histogram]:
        return self._latency.get(name)

    def paths(self) -> dict:
        """Window and router ``paths()`` summed per device name.  Kept
        out of :meth:`telemetry`, which is identical between engine
        modes."""
        out: dict = {}
        for device, ledger in self._windows.values():
            out.setdefault(device.name, Counter()).update(ledger)
        return {name: dict(total) for name, total in out.items()}

    def telemetry(self, include_events: bool = False) -> dict:
        """One nested dict with everything this recorder captured."""
        data = {
            "metrics": self.registry.as_dict(),
            "events": {
                "counts": self.trace.counts(),
                "recorded": len(self.trace),
                "dropped": self.trace.dropped,
            },
        }
        if include_events:
            data["events"]["log"] = self.trace.as_dicts()
        if self.sampler is not None:
            data["samples"] = self.sampler.rows
        return data


# ----------------------------------------------------------------------
# ambient recorder (scope-local installation)
# ----------------------------------------------------------------------
_ACTIVE = NULL_RECORDER


def get_recorder():
    """The ambient recorder new stacks are attached to (may be null)."""
    return _ACTIVE


@contextlib.contextmanager
def use(recorder) -> Iterator:
    """Make ``recorder`` ambient for the scope of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


# Attribute names that link a device to its children; walking them
# covers every stack shape in the repository (caches, RAID, backends,
# the shard router).  ``iter_devices`` and ``collect`` both walk these.
_LIST_LINKS = ("ssds", "members", "disks", "shards", "spares")
_LINKS = ("lower", "cache_dev", "origin", "array")


def child_links(node) -> Iterator[Tuple[str, object]]:
    """``(role, child)`` for every device ``node`` links to.

    List children come first, as ``attr[i]``: SrcCache aliases
    ``cache_dev`` to its first SSD, and the canonical role of that node
    is ``ssds[0]``.  The router keeps its shards keyed by slot; they
    are walked in slot order.  A list attribute that holds something
    else (SrcCache.members is its member-I/O component, not a device
    list) is not a link.
    """
    for attr in _LIST_LINKS:
        group = getattr(node, attr, None)
        if isinstance(group, dict):
            group = [group[slot] for slot in sorted(group)]
        if isinstance(group, (list, tuple)):
            for i, child in enumerate(group):
                yield f"{attr}[{i}]", child
    for attr in _LINKS:
        child = getattr(node, attr, None)
        if child is not None:
            yield attr, child


def iter_devices(root, _seen: Optional[set] = None) -> Iterator:
    """Depth-first walk of a device tree (deduplicated, root first)."""
    _seen = _seen if _seen is not None else set()
    _seen.add(id(root))
    yield root
    for _, child in child_links(root):
        if id(child) not in _seen:
            yield from iter_devices(child, _seen)


def attach(root, recorder=None):
    """Point every device in the tree under ``root`` at ``recorder``.

    With no explicit recorder the ambient one is used; attaching the
    null recorder is free (the walk is skipped).  Returns ``root`` so
    builders can attach in a return expression.
    """
    recorder = recorder if recorder is not None else _ACTIVE
    if not recorder.enabled:
        return root
    for device in iter_devices(root):
        if hasattr(device, "obs"):
            device.obs = recorder
        # A cache's window and a shard router each keep a path ledger.
        for holder in (device, getattr(device, "window", None)):
            ledger = getattr(holder, "path_ledger", None)
            if ledger is not None:  # once, however often it is walked
                recorder._windows.setdefault(id(ledger), (device, ledger))
        ftl = getattr(device, "ftl", None)
        if ftl is not None and hasattr(ftl, "obs"):
            ftl.obs = recorder
        writeback = getattr(device, "writeback", None)
        if writeback is not None and hasattr(writeback, "obs"):
            writeback.obs = recorder
    return root
