"""Trace replay harness — the paper's ``trace-replay`` tool.

The authors built a replayer that turns workload traces into real I/O
against the cache target, with each trace driven by four threads and
all traces of a group running simultaneously (§5.1).  This module wires
the synthetic Table 6 traces to the closed-loop engine and reports the
paper's metrics: throughput (MB/s), I/O amplification, and hit ratio.

A ``warmup`` window can precede measurement: the paper's 10-minute
accumulated runs are long enough that steady state dominates; at scaled
footprints a warm-up pass followed by a measured window reproduces that
steady state without simulating the full wall-clock duration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.common import CacheTarget
from repro.common.types import IoStats, LatencyStats, Request
from repro.common.units import mb_per_sec
from repro.obs.recorder import get_recorder
from repro.sim.engine import run_streams
from repro.workloads.msr import build_group


@dataclass
class ReplayResult:
    """Metrics of one trace-group replay (measured window only)."""

    group: str
    elapsed: float
    app_bytes: int
    read_bytes: int
    write_bytes: int
    completed_ops: int
    io_amplification: float
    hit_ratio: float
    ssd_bytes: int
    origin_bytes: int
    latency: LatencyStats = None

    @property
    def throughput_mb_s(self) -> float:
        return mb_per_sec(self.app_bytes, self.elapsed)

    @property
    def read_mb_s(self) -> float:
        return mb_per_sec(self.read_bytes, self.elapsed)

    @property
    def write_mb_s(self) -> float:
        return mb_per_sec(self.write_bytes, self.elapsed)

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "elapsed": self.elapsed,
            "app_bytes": self.app_bytes,
            "read_bytes": self.read_bytes,
            "write_bytes": self.write_bytes,
            "completed_ops": self.completed_ops,
            "throughput_mb_s": self.throughput_mb_s,
            "io_amplification": self.io_amplification,
            "hit_ratio": self.hit_ratio,
            "ssd_bytes": self.ssd_bytes,
            "origin_bytes": self.origin_bytes,
            "latency": (self.latency.as_dict()
                        if self.latency is not None else None),
        }


def replay_group(target: CacheTarget, group: str, scale: float = 1.0,
                 duration: float = 60.0, warmup: float = 0.0,
                 seed: int = 0, threads_per_trace: int = 4,
                 max_requests: int = 0,
                 footprint_cap_gb: float = 0.0,
                 think_time: float = 0.0) -> ReplayResult:
    """Replay one trace group against a cache target.

    ``scale`` shrinks trace footprints to match scaled-down devices.
    ``duration`` is the measured window in simulated seconds; if
    ``warmup`` is nonzero the first ``warmup`` simulated seconds run
    unmeasured so the cache reaches steady state first.

    ``think_time`` inserts a per-thread pause between a completion and
    the next issue.  Zero reproduces the paper's saturated replay; a
    nonzero value paces the offered load below saturation, which is how
    latency comparisons "at equal throughput" are run.
    """
    window = {"started": False, "app": IoStats(), "cstats": None,
              "ssd": 0, "origin": 0, "ops": 0, "latency": LatencyStats()}

    def open_window() -> None:
        window["started"] = True
        window["cstats"] = target.cstats.copy()
        window["ssd"] = _ssd_bytes(target)
        window["origin"] = target.origin.stats.total_bytes

    if warmup <= 0.0:
        open_window()

    def issue(req: Request, now: float) -> float:
        if not window["started"] and now >= warmup:
            open_window()
        done = target.submit(req, now)
        if window["started"]:
            window["app"].record(req)
            window["ops"] += 1
            window["latency"].record(done - now)
        return done

    recorder = get_recorder()
    sampler = recorder.sampler if recorder.enabled else None
    if sampler is not None:
        sampler.bind_target(target)
    streams, span = build_group(group, scale=scale, seed=seed,
                                threads_per_trace=threads_per_trace,
                                footprint_cap_gb=footprint_cap_gb)
    if span > target.size:
        raise ValueError(
            f"trace group spans {span} bytes but the target volume is "
            f"{target.size}; enlarge the origin or lower scale")
    run = run_streams(issue, streams, duration=warmup + duration,
                      think_time=think_time,
                      max_requests=max_requests, sampler=sampler)
    if window["cstats"] is None:   # run too short to leave warm-up
        window["cstats"] = target.cstats.copy()
    measured = min(duration, max(run.elapsed - warmup, 1e-9))

    app = window["app"]
    ssd_delta = _ssd_bytes(target) - window["ssd"]
    origin_delta = target.origin.stats.total_bytes - window["origin"]
    return ReplayResult(
        group=group,
        elapsed=measured,
        app_bytes=app.total_bytes,
        read_bytes=app.read_bytes,
        write_bytes=app.write_bytes,
        completed_ops=window["ops"],
        io_amplification=(ssd_delta / app.total_bytes
                          if app.total_bytes else 0.0),
        hit_ratio=target.cstats.window_hit_ratio(window["cstats"]),
        ssd_bytes=ssd_delta,
        origin_bytes=origin_delta,
        latency=window["latency"],
    )


def _ssd_bytes(target: CacheTarget) -> int:
    """Bytes moved at the cache-device layer, whatever the target type."""
    if hasattr(target, "ssd_bytes"):
        return target.ssd_bytes()
    return target.cache_dev.stats.total_bytes
