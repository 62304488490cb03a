"""Outside-in span recording: wrap each layer's entry points, from here.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces,
on the *built instances*, the public entry points of every layer with
wrappers that push a span ``(layer, start, end, parent)`` onto
in-memory columns.  A layer's self time is its spans' durations minus
the durations of their direct children, so nested calls (router ->
cache -> SSD -> FTL, or a cache's in-target scalar ``submit`` inside
its own ``submit_chunk``) are each charged once.  Whatever the wall
clock holds beyond the root spans is the ``sim`` layer: the engine
loop plus this benchmark's own issue wrappers.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, List, Tuple

import numpy as np

# Layers are the repo's modules, outermost first.  ``sim`` has no
# wrapper: it is the remainder (see module docstring).
LAYERS = ("workloads", "cluster", "tenancy", "core", "ssd.device",
          "ssd.ftl", "hdd")

_ENTRY_POINTS = {
    "cluster": ("submit", "submit_chunk"),
    # The registry methods core/ calls: admission, reclaim protection,
    # accounting, and the membership-observer pair.
    "tenancy": ("admit", "keep_for_reserve", "tenant_of",
                "count_write_around", "count_read_around",
                "count_destaged", "count_stall",
                "block_cached", "block_evicted"),
    "core": ("submit", "submit_chunk"),
    "ssd.device": ("submit", "submit_request", "submit_chunk",
                   "submit_write_fast", "submit_flush_fast"),
    "ssd.ftl": ("write", "write_batch", "read", "trim"),
    "hdd": ("submit", "submit_request"),
}


class SpanRecorder:
    """Span columns plus the open-span cursor (the implicit stack)."""

    def __init__(self) -> None:
        # Entry points seen so far, as (layer, method); a span stores
        # the index of its entry point.  Plain lists: an append costs
        # less than half of a typed array's, and a span is four of them.
        self.entries: List[Tuple[str, str]] = []
        self.entry: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []      # appended at exit: not span order
        self.ended: List[int] = []      # the span each ``end`` belongs to
        self.open = [-1]                # innermost open span, in a cell
        self.mark = 0                   # first span of the timed window

    def _entry_id(self, layer: str, name: str) -> int:
        if (layer, name) not in self.entries:
            self.entries.append((layer, name))
        return self.entries.index((layer, name))

    def wrap(self, obj, name: str, layer: str) -> None:
        """Replace ``obj.name`` with a span-recording wrapper."""
        fn = getattr(obj, name)
        entry_id = self._entry_id(layer, name)
        entries, parents, starts = self.entry, self.parent, self.start
        ends, ended, cursor = self.end, self.ended, self.open

        def traced(*args, **kwargs):
            index = len(parents)
            parent = cursor[0]
            parents.append(parent)
            entries.append(entry_id)
            cursor[0] = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(perf_counter())
                ended.append(index)
                cursor[0] = parent

        setattr(obj, name, traced)

    def source(self, source: Iterator) -> Iterator:
        """``source`` with every ``next()`` recorded as a ``workloads`` span.

        A generator, not :meth:`wrap`: resuming it costs the engine one
        frame, where a wrapped ``__next__`` would cost two.
        """
        fetch = source.__next__
        entry_id = self._entry_id("workloads", "next")
        entries, parents, starts = self.entry, self.parent, self.start
        ends, ended, cursor = self.end, self.ended, self.open
        while True:
            index = len(parents)
            parent = cursor[0]
            parents.append(parent)
            entries.append(entry_id)
            cursor[0] = index
            starts.append(perf_counter())
            try:
                item = fetch()
            except StopIteration:
                return
            finally:
                ends.append(perf_counter())
                ended.append(index)
                cursor[0] = parent
            yield item

    def start_window(self) -> None:
        """Spans from here on belong to the timed window.

        Called from the benchmark's issue wrappers, which the engine
        calls directly, so no span is open at this point.
        """
        if self.open[0] != -1:
            raise RuntimeError("window boundary inside an open span")
        self.mark = len(self.parent)

    def aggregate(self, wall_s: float) -> dict:
        """Fold the window's spans: per-layer self time, per-entry calls.

        Returns ``{"self_s": {layer: s}, "calls": {(layer, method): n},
        "min_self_s": s}``; ``self_s["sim"]`` is the wall time no root
        span covers.
        """
        mark = self.mark
        end = np.empty(len(self.start))
        end[self.ended] = self.end
        entry = np.asarray(self.entry[mark:], dtype=np.int64)
        parent = np.asarray(self.parent[mark:], dtype=np.int64) - mark
        duration = end[mark:] - np.asarray(self.start[mark:])
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        span_self = duration - children
        n = len(self.entries)
        entry_self = np.bincount(entry, weights=span_self, minlength=n)
        entry_calls = np.bincount(entry, minlength=n)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), seconds in zip(self.entries, entry_self):
            self_s[layer] += float(seconds)
        self_s["sim"] = wall_s - float(duration[~nested].sum())
        return {
            "self_s": self_s,
            "calls": {key: int(c) for key, c in zip(self.entries,
                                                    entry_calls)},
            "min_self_s": float(span_self.min()) if len(span_self) else 0.0,
        }


def install(recorder: SpanRecorder, stack) -> None:
    """Wrap every layer entry point of a built :class:`workloads.Stack`."""
    targets = {
        "cluster": [stack.router] if stack.router is not None else [],
        "tenancy": [stack.registry] if stack.registry is not None else [],
        "core": stack.caches,
        "ssd.device": stack.ssds,
        "ssd.ftl": [ssd.ftl for ssd in stack.ssds],
        "hdd": [stack.origin] if stack.origin is not None else [],
    }
    for layer, objects in targets.items():
        for obj in objects:
            for name in _ENTRY_POINTS[layer]:
                recorder.wrap(obj, name, layer)
    stack.sources = [recorder.source(s) for s in stack.sources]
