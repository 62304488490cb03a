"""Synthetic stand-ins for the paper's trace set (Table 6).

The paper replays block traces from Microsoft Production Servers (MPS)
and MSR Cambridge (MCS).  Those traces are not redistributable here, so
each is synthesised from its Table 6 characteristics — mean request
size, volume footprint, read ratio — plus a Zipfian popularity skew
(production block traces are strongly skewed; skew is what gives
caching, hotness tracking and Sel-GC their bite).

Traces are organised into the paper's three groups (Write, Mixed,
Read); each group's aggregate working set is ~50 GB before scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.common.chunks import (DEFAULT_CHUNK_REQUESTS, OP_READ, OP_WRITE,
                                 empty_chunk, requests_from_chunk)
from repro.common.errors import ConfigError
from repro.common.types import Request
from repro.common.units import GB, KB, KIB, PAGE_SIZE
from repro.workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class TraceSpec:
    """One row of Table 6."""

    name: str
    group: str                # "write" | "mixed" | "read"
    req_size_kb: float        # mean request size
    footprint_gb: float       # volume size touched by the trace
    read_ratio: float         # fraction of requests that are reads
    skew_theta: float = 1.20  # zipf skew (not in Table 6; MSR traces
                              # concentrate ~90% of I/O on ~10% of blocks)

    @property
    def mean_request_bytes(self) -> int:
        return int(self.req_size_kb * KB)

    @property
    def footprint_bytes(self) -> int:
        return int(self.footprint_gb * GB)

    @property
    def seq_prob(self) -> float:
        """Probability the next request continues a sequential run.

        Block traces with large mean requests are scan-heavy (e.g.
        src21 at 59 KB is a nearly pure sequential read workload);
        small-request traces are dominated by random accesses.  Derived
        from the request size since Table 6 does not report run
        lengths.
        """
        return min(0.8, max(0.05, self.req_size_kb / 75.0))


# Table 6, verbatim.
TRACES: Dict[str, TraceSpec] = {
    spec.name: spec for spec in [
        # Write group
        TraceSpec("prxy0", "write", 7.07, 84.44, 0.03),
        TraceSpec("exch9", "write", 21.06, 110.46, 0.31),
        TraceSpec("mds0", "write", 9.59, 11.08, 0.29),
        TraceSpec("mds1", "write", 9.59, 11.08, 0.29),
        TraceSpec("stg0", "write", 11.95, 23.16, 0.31),
        TraceSpec("msn0", "write", 21.73, 31.28, 0.06),
        TraceSpec("msn1", "write", 17.84, 37.80, 0.44),
        TraceSpec("src12", "write", 29.25, 53.23, 0.16),
        TraceSpec("src20", "write", 7.59, 11.28, 0.12),
        TraceSpec("src22", "write", 56.31, 62.12, 0.36),
        # Mixed group
        TraceSpec("rsrch0", "mixed", 9.07, 12.41, 0.11),
        TraceSpec("exch5", "mixed", 18.02, 85.628, 0.31),
        TraceSpec("hm0", "mixed", 8.88, 33.84, 0.32),
        TraceSpec("fin0", "mixed", 6.86, 34.91, 0.19),
        TraceSpec("web0", "mixed", 15.29, 29.60, 0.58),
        TraceSpec("prn0", "mixed", 12.53, 66.79, 0.19),
        TraceSpec("msn4", "mixed", 21.73, 31.28, 0.06),
        # Read group
        TraceSpec("ts0", "read", 9.28, 15.95, 0.26),
        TraceSpec("usr0", "read", 22.81, 48.694, 0.72),
        TraceSpec("proj3", "read", 9.75, 20.87, 0.87),
        TraceSpec("src21", "read", 59.31, 37.20, 0.99),
        TraceSpec("msn5", "read", 10.01, 124.0, 0.75),
    ]
}

GROUPS: Dict[str, List[str]] = {
    "write": [n for n, s in TRACES.items() if s.group == "write"],
    "mixed": [n for n, s in TRACES.items() if s.group == "mixed"],
    "read": [n for n, s in TRACES.items() if s.group == "read"],
}

MAX_REQUEST = 512 * KIB  # the prototype's maximum transfer unit (§4.1)

# The traces of each group were chosen so the group's aggregate working
# set is ~50 GB (§5.1) even though the volumes span far more space; the
# synthetic stand-ins therefore confine accesses to a working set scaled
# to this target, apportioned per trace by footprint.
GROUP_WORKING_SET_GB = 50.0


def group_specs(group: str) -> List[TraceSpec]:
    if group not in GROUPS:
        raise ConfigError(f"unknown trace group {group!r}")
    return [TRACES[name] for name in GROUPS[group]]


def _ws_factor(group: str) -> float:
    """Shrink factor mapping raw volume footprints to the ~50 GB WS."""
    total_gb = sum(s.footprint_gb for s in group_specs(group))
    return min(1.0, GROUP_WORKING_SET_GB / total_gb)


def group_footprint(group: str, scale: float = 1.0,
                    footprint_cap_gb: float = 0.0) -> int:
    """Total bytes of working-set space the group's traces access."""
    factor = _ws_factor(group)
    total = 0
    for spec in group_specs(group):
        fp = _scaled_footprint(spec, scale * factor, footprint_cap_gb)
        total += fp
    return total


def _scaled_footprint(spec: TraceSpec, scale: float,
                      footprint_cap_gb: float) -> int:
    fp = spec.footprint_bytes
    if footprint_cap_gb:
        fp = min(fp, int(footprint_cap_gb * GB))
    fp = max(PAGE_SIZE * 64, int(fp * scale))
    return fp - fp % PAGE_SIZE


class SyntheticTrace:
    """Request generator for one Table 6 trace.

    Offsets follow a Zipf-skewed popularity over the trace footprint;
    request sizes are exponential around the trace's mean, 4 KiB
    aligned and capped at 512 KiB; reads/writes follow the read ratio.
    ``region_start`` places this trace's volume inside the shared
    backend address space (traces come from distinct volumes).
    """

    def __init__(self, spec: TraceSpec, region_start: int = 0,
                 scale: float = 1.0, seed: int = 0,
                 footprint_cap_gb: float = 0.0):
        self.spec = spec
        self.region_start = region_start
        self.footprint = _scaled_footprint(spec, scale, footprint_cap_gb)
        self.n_blocks = self.footprint // PAGE_SIZE
        self._rng = np.random.default_rng(seed)
        self._zipf = ZipfSampler(self.n_blocks, spec.skew_theta,
                                 seed=seed + 1)

    def chunks(self, chunk_requests: int = DEFAULT_CHUNK_REQUESTS
               ) -> Iterator["np.ndarray"]:
        """Endless chunked request stream (the replayer bounds duration).

        Randomness is drawn column-wise, one fixed order per chunk —
        (1) size exponentials, (2) sequential-continuation uniforms,
        (3) Zipf start candidates, (4) op uniforms — so every row
        consumes the same draws whether or not it lands in a sequential
        run; the candidate is simply unused on continuation rows.  Only
        the sequential-run state machine (next_seq carry, end-of-volume
        clamps) remains a per-row pass, and it touches no RNG.
        :meth:`requests` flattens these chunks, so both engine paths
        replay the identical trace.
        """
        next_seq = -1
        spec = self.spec
        seq_prob = spec.seq_prob
        read_ratio = spec.read_ratio
        n_blocks = self.n_blocks
        region_start = self.region_start
        rng = self._rng
        # Sizes are (1 + floor(Exp(theta))) x 4 KiB; theta is solved so
        # the floored-exponential's mean hits the spec's mean exactly
        # (naive rounding would inflate small-request traces by ~30%).
        mean_pages = spec.mean_request_bytes / PAGE_SIZE
        max_pages = MAX_REQUEST // PAGE_SIZE
        if mean_pages > 1.05:
            theta = 1.0 / np.log(1.0 + 1.0 / (mean_pages - 1.0))
        else:
            theta = 0.0
        while True:
            chunk = empty_chunk(chunk_requests)
            if theta:
                pages = np.minimum(
                    max_pages,
                    1 + rng.exponential(theta, chunk_requests).astype(
                        np.int64))
            else:
                pages = np.ones(chunk_requests, dtype=np.int64)
            seq_hit = (rng.random(chunk_requests) < seq_prob).tolist()
            candidates = self._zipf.sample_many(chunk_requests).tolist()
            op_draws = rng.random(chunk_requests)
            nblocks = pages.tolist()
            starts = np.empty(chunk_requests, dtype=np.int64)
            for i in range(chunk_requests):
                nb = nblocks[i]
                if next_seq >= 0 and seq_hit[i]:
                    start_block = next_seq  # continue the sequential run
                else:
                    start_block = candidates[i]
                if start_block > n_blocks - nb:
                    start_block = n_blocks - nb
                if start_block < 0:
                    start_block = 0
                next_seq = start_block + nb
                if next_seq + nb > n_blocks:
                    next_seq = -1           # run hit the volume end
                starts[i] = start_block
            chunk["offset"] = region_start + starts * PAGE_SIZE
            chunk["length"] = pages * PAGE_SIZE
            chunk["op"] = np.where(op_draws < read_ratio, OP_READ,
                                   OP_WRITE)
            chunk["time"] = 0.0
            chunk["origin"] = 0
            chunk["tenant"] = -1
            yield chunk

    def requests(self) -> Iterator[Request]:
        """Endless request stream (the replayer bounds duration)."""
        for chunk in self.chunks():
            for request in requests_from_chunk(chunk):
                yield request


def _group_traces(group: str, scale: float, seed: int,
                  threads_per_trace: int, footprint_cap_gb: float
                  ) -> Tuple[List[SyntheticTrace], int]:
    traces: List[SyntheticTrace] = []
    region = 0
    effective_scale = scale * _ws_factor(group)
    for t_index, spec in enumerate(group_specs(group)):
        trace_seed = seed * 10_000 + t_index * 100
        footprint = _scaled_footprint(spec, effective_scale,
                                      footprint_cap_gb)
        for thread in range(threads_per_trace):
            traces.append(SyntheticTrace(spec, region_start=region,
                                         scale=effective_scale,
                                         seed=trace_seed + thread,
                                         footprint_cap_gb=footprint_cap_gb))
        region += footprint
    return traces, region


def build_group(group: str, scale: float = 1.0, seed: int = 0,
                threads_per_trace: int = 4,
                footprint_cap_gb: float = 0.0
                ) -> Tuple[List[Iterator[Request]], int]:
    """Streams for a whole trace group (paper §5.1 replay setup).

    All traces in the group run simultaneously, each replayed by
    ``threads_per_trace`` threads.  Returns (streams, total span in
    bytes) — size the origin volume to at least the span.
    """
    traces, region = _group_traces(group, scale, seed, threads_per_trace,
                                   footprint_cap_gb)
    return [trace.requests() for trace in traces], region


def build_group_chunks(group: str, scale: float = 1.0, seed: int = 0,
                       threads_per_trace: int = 4,
                       footprint_cap_gb: float = 0.0
                       ) -> Tuple[List[Iterator["np.ndarray"]], int]:
    """Chunked counterpart of :func:`build_group` (same traces, seeds
    and interleaving; each stream yields structured-array chunks)."""
    traces, region = _group_traces(group, scale, seed, threads_per_trace,
                                   footprint_cap_gb)
    return [trace.chunks() for trace in traces], region
