"""One measured pass: warm-up and timed window in a single engine run.

A second ``run_*_streams`` call would restart the issue clock at 0
against device timelines that are already seconds ahead and poison
every latency, so warm-up and the timed window are *one* run.  The
:class:`Window` issue wrappers count rows, clamp each chunk call's
``limit`` so a call ends exactly on the warm-up boundary (the way
``replay_group`` cuts its window), and there snapshot the wall clock
and ``repro.obs.collect(stack)`` and start keeping ``done - issue``.
The same clamp cuts the window into ``SEGMENTS`` equal-row segments;
at each boundary the clock stops and the host-speed probe runs
(:mod:`hostclock`).
"""

from __future__ import annotations

import hashlib
import json
import resource
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from repro.block.lifecycle import Submission
from repro.common.units import mb_per_sec
from repro.obs.collect import collect
from repro.sim.engine import run_chunk_streams, run_streams

import checks
import spans
from hostclock import probe, reference_seconds
from workloads import WORKLOADS, Stack

SEGMENTS = 8        # even: the window's midpoint is a boundary


class Window:
    """Issue wrappers that cut the timed window out of one engine run."""

    def __init__(self, stack: Stack, warm: int, timed: int,
                 recorder: Optional[spans.SpanRecorder]):
        self.stack = stack
        self.recorder = recorder
        target = stack.root
        self._issue = (target.submit_request if stack.split_phase
                       else target.submit)
        self._issue_chunk = getattr(target, "submit_chunk", None)
        self.total = warm + timed
        # Row counts at which the next call must begin: the window start
        # and every segment boundary after it; the last is the end,
        # where the engine stops by itself.
        self._marks = [warm + timed * k // SEGMENTS
                       for k in range(SEGMENTS + 1)]
        self.rows = 0
        self.started = False
        # Filled at the boundaries.
        self.setup_end = 0.0                  # wall clock entering the window
        self.segments: List[float] = []       # wall seconds of each segment
        self.probes: List[float] = []         # probe() at each boundary
        self._segment_start = 0.0
        self.sim_start = 0.0
        self.before: dict = {}
        self.bytes_at: List[tuple] = []       # (app, ssd) at each boundary
        # Window accumulators.
        self.app_bytes = 0
        self.latency_parts: List[np.ndarray] = []
        self.scalar_latency: List[float] = []
        self.chunk_windows = 0
        self.chunk_rows = 0
        self.declined = 0
        self.scalar_rows = 0

    def _ssd_bytes(self) -> int:
        return sum(ssd.stats.total_bytes for ssd in self.stack.ssds)

    def _mark(self, now: float) -> None:
        stopped = perf_counter()     # first: nothing below is timed
        self._marks.pop(0)
        self.bytes_at.append((self.app_bytes, self._ssd_bytes()))
        if self.started:
            self.segments.append(stopped - self._segment_start)
        else:
            self.started = True
            self.setup_end = stopped
            self.sim_start = now
            self.before = collect(self.stack.root)
            if self.recorder is not None:
                self.recorder.start_window()
        self.probes.append(probe())
        self._segment_start = perf_counter()   # last: the clock restarts

    def issue(self, req, now: float):
        if self.rows == self._marks[0]:
            self._mark(now)
        result = self._issue(req, now)
        self.rows += 1
        if self.started:
            done = result.done_t if isinstance(result, Submission) else result
            self.scalar_latency.append(done - now)
            self.app_bytes += req.length
            self.scalar_rows += 1
        return result

    def issue_chunk(self, rows, start, think, deadline, limit):
        if self.rows == self._marks[0]:
            self._mark(start)
        room = self._marks[0] - self.rows
        if limit == 0 or limit > room:
            limit = room
        issue_t, done_t, n = self._issue_chunk(rows, start, think,
                                               deadline, limit)
        if n:
            self.rows += n
            if self.started:
                self.latency_parts.append(done_t - issue_t)
                self.app_bytes += int(rows["length"][:n].sum())
                self.chunk_windows += 1
                self.chunk_rows += n
        elif self.started:
            self.declined += 1
        return issue_t, done_t, n

    def close(self) -> None:
        self.segments.append(perf_counter() - self._segment_start)
        self.bytes_at.append((self.app_bytes, self._ssd_bytes()))
        self.probes.append(probe())

    def latencies(self) -> np.ndarray:
        """``done - issue`` of every timed request (chunk rows first)."""
        return np.concatenate(self.latency_parts
                              + [np.asarray(self.scalar_latency, dtype=float)])


def _tree_delta(after, before):
    """``after - before`` over a ``collect()`` tree (numbers subtract)."""
    if isinstance(after, dict):
        before = before if isinstance(before, dict) else {}
        return {k: _tree_delta(v, before.get(k)) for k, v in after.items()}
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before if isinstance(before, (int, float)) else 0)


def _nodes(tree: dict):
    yield tree
    for child in tree.get("children", {}).values():
        yield from _nodes(child)


def _quantile(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: an element of the sample, exactly."""
    return float(sorted_values[min(len(sorted_values) - 1,
                                   int(q * len(sorted_values)))])


def _layer_counts(delta: dict, stack: Stack) -> Dict[str, float]:
    """Simulated per-layer counts of the window, from ``collect()``."""
    src = [n["src"] for n in _nodes(delta) if "src" in n]
    cache = [n["cache"] for n in _nodes(delta) if "cache" in n and "src" in n]
    ftl = [n["ftl"] for n in _nodes(delta) if "ftl" in n]
    ssd_io = [n["io"] for n in _nodes(delta) if "ftl" in n]
    out: Dict[str, float] = {}
    for key in ("segment_writes", "partial_segment_writes",
                "timeout_flushes", "s2s_collections", "s2d_collections",
                "gc_copied_blocks", "gc_destaged_blocks",
                "gc_dropped_clean", "throttle_stalls", "throttle_wait_s"):
        out[f"core.{key}"] = sum(s[key] for s in src)
    for key in ("read_hits", "read_misses", "fills"):
        out[f"core.{key}"] = sum(c[key] for c in cache)
    lookups = sum(c[k] for c in cache for k in
                  ("read_hits", "read_misses", "write_hits", "write_misses"))
    hits = sum(c["read_hits"] + c["write_hits"] for c in cache)
    out["core.hit_ratio"] = hits / lookups if lookups else 0.0
    out["core.utilization"] = (
        sum(c.utilization() for c in stack.caches) / len(stack.caches)
        if stack.caches else 0.0)
    out["ssd.device.bytes"] = sum(io["total_bytes"] for io in ssd_io)
    out["ssd.device.flushes"] = sum(io["flush_ops"] for io in ssd_io)
    for key in ("host_pages_written", "gc_pages_copied",
                "superblock_erases"):
        out[f"ssd.ftl.{key}"] = sum(f[key] for f in ftl)
    host = out["ssd.ftl.host_pages_written"]
    out["ssd.ftl.write_amplification"] = (
        (host + out["ssd.ftl.gc_pages_copied"]) / host if host else 0.0)
    origin = next((n["io"] for n in _nodes(delta)
                   if n.get("type") == "PrimaryStorage"), None)
    out["hdd.read_bytes"] = origin["read_bytes"] if origin else 0
    out["hdd.write_bytes"] = origin["write_bytes"] if origin else 0
    tenants = [t for n in _nodes(delta) if "tenants" in n
               for t in n["tenants"]["tenants"].values()]
    out["tenancy.admitted_blocks"] = sum(t["admitted_blocks"]
                                         for t in tenants)
    out["tenancy.rejected_blocks"] = sum(t["rejected_blocks"]
                                         for t in tenants)
    return out


def run_pass(name: str, seed: int, factor: float, traced: bool = False,
             forced_scalar: bool = False,
             check_depth: str = checks.DEEP) -> dict:
    """Build, warm up, time one window, check the outputs; one result."""
    workload = WORKLOADS[name]
    warm = max(workload.warm_floor, round(workload.warm * factor), 1)
    timed = max(SEGMENTS, round(workload.timed * factor))
    probe()                          # pays the probe's one-off costs
    setup_probe = probe()
    t_build = perf_counter()
    stack = workload.build(seed)
    recorder = spans.SpanRecorder() if traced else None
    if recorder is not None:
        spans.install(recorder, stack)
    window = Window(stack, warm, timed, recorder)

    error = None
    completed = 0
    elapsed = 0.0
    try:
        if stack.chunked:
            run = run_chunk_streams(
                window.issue, stack.sources, max_requests=window.total,
                issue_chunk=None if forced_scalar else window.issue_chunk,
                tenant_names=stack.tenant_names)
        else:
            run = run_streams(window.issue, stack.sources,
                              max_requests=window.total,
                              iodepth=stack.iodepth)
        completed = run.completed_ops
        elapsed = run.elapsed
    except Exception as exc:          # a raising request fails the pass
        error = f"{type(exc).__name__}: {exc}"
    window.close()

    result = {"warm_requests": warm, "attempted_ops": timed}
    if error is not None or not window.started:
        result.update(failed_ops=timed, checks={"run": error or "run ended "
                                                "inside the warm-up"})
        return result

    after = collect(stack.root)
    delta = _tree_delta(after, window.before)
    lat = window.latencies()
    # Host times, raw and in reference seconds (see hostclock).
    wall = sum(window.segments)
    wall_ref = reference_seconds(window.segments, window.probes)
    setup = window.setup_end - t_build
    setup_ref = reference_seconds([setup], [setup_probe, window.probes[0]])
    sim_s = elapsed - window.sim_start
    app = window.app_bytes
    page = stack.ssds[0].spec.page_size
    counts = _layer_counts(delta, stack)
    ssd_bytes = counts["ssd.device.bytes"]
    programmed = page * (counts["ssd.ftl.host_pages_written"]
                         + counts["ssd.ftl.gc_pages_copied"])
    done_ok = int(np.count_nonzero(lat >= 0.0))
    ordered = np.sort(lat)

    # Sorted latencies: the forced-scalar twin issues the same requests
    # in the same order but would concatenate them differently.
    digest = hashlib.sha256()
    digest.update(json.dumps(delta, sort_keys=True).encode())
    digest.update(repr(elapsed).encode())
    digest.update(ordered.tobytes())

    at = [window.bytes_at[i] for i in (0, SEGMENTS // 2, SEGMENTS)]
    halves = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(at[:-1], at[1:])]
    result.update(
        failed_ops=timed - min(done_ok, completed - warm),
        sim_digest=digest.hexdigest(),
        wall_s=wall,
        wall_ref_s=wall_ref,
        host_speed=wall_ref / wall,
        end_to_end={
            "host_req_per_s": timed / wall_ref,
            "setup_s": setup_ref,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_mb_per_s": mb_per_sec(app, sim_s),
            "sim_lat_mean_us": float(lat.mean()) * 1e6,
            "sim_lat_tail_us": float(
                ordered[int(0.99 * len(ordered)):].mean()) * 1e6,
            "io_amplification": ssd_bytes / app,
            "nand_write_amp": programmed / app,
        },
        half_io_amplification=[ssd / a if a else 0.0 for a, ssd in halves],
    )
    windows = window.chunk_windows
    counts.update({
        "sim.windows": windows,
        "sim.rows_per_window": window.chunk_rows / windows if windows else 0.0,
        "sim.declined_windows": window.declined,
        "sim.scalar_rows": window.scalar_rows,
        "sim.lat_p50_us": _quantile(ordered, 0.5) * 1e6,
        "sim.lat_p999_us": _quantile(ordered, 0.999) * 1e6,
    })
    if recorder is not None:
        counts.update(_traced_metrics(recorder, wall, wall_ref / wall, timed,
                                      bool(stack.caches)))
    result["per_layer"] = counts
    result["checks"] = checks.run_all(stack, window, timed, completed - warm,
                                      lat, delta, check_depth)
    return result


def _traced_metrics(recorder: spans.SpanRecorder, wall: float,
                    to_reference: float, rows: int,
                    has_core: bool) -> Dict[str, float]:
    """Per-layer self times (in reference seconds) and call counts."""
    folded = recorder.aggregate(wall)
    calls = folded["calls"]

    def layer_calls(layer: str) -> int:
        return sum(n for (name, _), n in calls.items() if name == layer)

    out = {f"{layer}.self_s": s * to_reference
           for layer, s in folded["self_s"].items()}
    out["workloads.chunks"] = layer_calls("workloads")
    for layer in ("cluster", "tenancy", "ssd.device", "ssd.ftl", "hdd"):
        out[f"{layer}.calls"] = layer_calls(layer)
    out["core.chunk_calls"] = calls.get(("core", "submit_chunk"), 0)
    out["core.scalar_rows"] = calls.get(("core", "submit"), 0)
    out["core.vector_row_share"] = (
        1.0 - out["core.scalar_rows"] / rows if has_core else 0.0)
    out["trace.min_self_s"] = folded["min_self_s"]
    return out
