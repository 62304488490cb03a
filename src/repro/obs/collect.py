"""``collect(stack)`` — one nested stats document for a device tree.

This is the unified replacement for ad-hoc ``.stats`` field-poking:
instead of reaching into ``cache.cstats.hit_ratio`` here and
``ssd.ftl.counters`` there, callers walk the stack once and get a
single nested dict (JSON-ready) containing every layer's counters —
I/O stats, cache hit/miss stats, SRC internals, FTL wear and
write-amplification, latency histograms — keyed by the device
hierarchy.

The walk is duck-typed: any object exposing the relevant attributes
(``stats``, ``cstats``, ``srcstats``, ``ftl``, ``latency``,
``tenants``) is harvested, and the child links every stack here uses
(:func:`repro.obs.recorder.child_links`, the walk ``attach`` makes)
are followed with cycle protection.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.obs.recorder import child_links


def _stats_block(device) -> dict:
    """Harvest one device's own counters (no recursion)."""
    node: dict = {"type": type(device).__name__}
    name = getattr(device, "name", None)
    if name:
        node["name"] = name
    size = getattr(device, "size", None)
    if size is not None:
        node["size"] = size
    stats = getattr(device, "stats", None)
    if stats is not None and hasattr(stats, "as_dict"):
        node["io"] = stats.as_dict()
    cstats = getattr(device, "cstats", None)
    if cstats is not None and hasattr(cstats, "as_dict"):
        node["cache"] = cstats.as_dict()
    srcstats = getattr(device, "srcstats", None)
    if srcstats is not None and hasattr(srcstats, "as_dict"):
        node["src"] = srcstats.as_dict()
    latency = getattr(device, "latency", None)
    if latency is not None and hasattr(latency, "as_dict"):
        node["latency"] = latency.as_dict()
    ftl = getattr(device, "ftl", None)
    if ftl is not None:
        counters = getattr(ftl, "counters", None)
        if counters is not None:
            node["ftl"] = {
                "host_pages_written": counters.host_pages_written,
                "host_pages_read": counters.host_pages_read,
                "gc_pages_copied": counters.gc_pages_copied,
                "superblock_erases": counters.superblock_erases,
                "trimmed_pages": counters.trimmed_pages,
                "write_amplification": counters.write_amplification,
                "free_superblocks": ftl.free_superblocks,
                "utilization": ftl.utilization(),
                "erase_count_min": int(ftl.erase_count.min()),
                "erase_count_max": int(ftl.erase_count.max()),
            }
    if hasattr(device, "utilization") and ftl is None:
        try:
            node["utilization"] = device.utilization()
        except Exception:
            pass
    for extra in ("free_groups", "parity_writes", "rmw_reads"):
        value = getattr(device, extra, None)
        if isinstance(value, (int, float)):
            node[extra] = value
    tenants = getattr(device, "tenants", None)
    if tenants is not None and hasattr(tenants, "as_dict"):
        node["tenants"] = tenants.as_dict()
    clusterstats = getattr(device, "clusterstats", None)
    if clusterstats is not None and hasattr(clusterstats, "as_dict"):
        node["cluster"] = clusterstats.as_dict()
    health = getattr(device, "health", None)
    if health is not None and hasattr(health, "as_dict"):
        node["health"] = health.as_dict()
    return node


def collect(device, _seen: Optional[Set[int]] = None) -> dict:
    """Walk ``device`` and its children into one nested stats dict."""
    _seen = _seen if _seen is not None else set()
    if id(device) in _seen:
        return {"type": type(device).__name__, "ref": True}
    _seen.add(id(device))
    node = _stats_block(device)
    children: dict = {}
    for role, child in child_links(device):
        if id(child) not in _seen:
            children[role] = collect(child, _seen)
    if children:
        node["children"] = children
    return node
