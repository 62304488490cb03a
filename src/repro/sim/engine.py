"""Closed-loop workload engine.

The paper's experiments are closed-loop: FIO jobs with a fixed iodepth,
and a trace replayer where each of four threads per trace issues its
next request as soon as the previous one completes.  We model each
outstanding I/O stream as a :class:`JobStream` with its own clock, and
interleave streams through a priority queue so that requests reach the
device stack in global time order.

Throughput for a run is ``bytes completed / elapsed simulated time``,
exactly the metric the paper reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.block.lifecycle import Submission
from repro.common.chunks import (DEFAULT_CHUNK_REQUESTS, SCALAR_THRESHOLD,
                                 request_from_row)
from repro.common.errors import ConfigError
from repro.common.types import IoOrigin, IoStats, LatencyStats, Request
from repro.common.units import mb_per_sec

# A workload source yields Requests forever (or until exhausted).
RequestSource = Iterator[Request]
# A chunked source yields CHUNK_DTYPE structured arrays instead.
ChunkSource = Iterator["np.ndarray"]
# The system under test: (request, issue_time) -> completion time, or a
# Submission carrying the full issue/begin/done lifecycle.
IssueFn = Callable[[Request, float], "float | Submission"]
# Vectorized variant: (rows, start, think_time, deadline, limit) ->
# (issue_times, done_times, n_processed).  Processing a prefix (or
# nothing) is always legal; ``Engine.run`` says what follows either.
IssueChunkFn = Callable[..., "Tuple"]

# Streams are interleaved through a heap of plain (next_time, index,
# stream) tuples.  The unique per-stream index breaks time ties before
# the comparison ever reaches the JobStream, so no rich-comparison
# dataclass wrapper is needed — tuple ordering is handled entirely in
# C, which matters at one heap push/pop per request.


class JobStream:
    """One logical thread of I/O with its own clock.

    ``think_time`` is inserted between a completion and the next issue
    (zero for the paper's saturation workloads).

    ``iodepth`` is the stream's outstanding-I/O budget, matching FIO's
    parameter of the same name: up to that many requests may be in
    flight at once, and a new one is issued the moment a slot frees.
    The default of 1 is the classic one-at-a-time closed loop.

    The budget applies to *foreground* requests only.  A source may
    interleave background-origin requests (destage, GC kicks, tenant
    maintenance); those are fire-and-forget — they neither occupy an
    iodepth slot nor enter the stream's latency reservoir, so a tagged
    background write can no longer steal the foreground's budget and
    inflate its percentiles.
    """

    __slots__ = ("source", "think_time", "name", "iodepth", "_inflight")

    def __init__(self, source: RequestSource, think_time: float = 0.0,
                 name: str = "", iodepth: int = 1):
        if iodepth < 1:
            raise ConfigError(f"iodepth must be >= 1, got {iodepth}")
        self.source = source
        self.think_time = think_time
        self.name = name
        self.iodepth = iodepth
        self._inflight: List[float] = []   # outstanding completion times

    def slot_free_after(self, issue_time: float, done: float) -> float:
        """Track an issued request; return when the next may be issued.

        Under budget the stream can issue again immediately; at the
        budget it waits for its earliest outstanding completion (plus
        think time), which is what makes iodepth contended rather than
        a free fan-out.

        The classic qd1 closed loop skips the in-flight heap entirely:
        with one slot, the request just pushed is the one popped, so
        the answer is always its own completion plus think time.
        """
        if self.iodepth == 1:
            return done + self.think_time
        heapq.heappush(self._inflight, done)
        if len(self._inflight) < self.iodepth:
            return issue_time
        return heapq.heappop(self._inflight) + self.think_time

    def next_request(self) -> Optional[Request]:
        return next(self.source, None)


class ChunkStream:
    """A qd1 closed-loop stream fed by a chunked source.

    The source yields :data:`repro.common.chunks.CHUNK_DTYPE` arrays;
    the stream serves rows in order, handing the engine whole row
    *slices* so a vectorized target (``issue_chunk``) can process an
    entire closed-loop run in one call.  It also speaks the scalar
    protocol (:meth:`next_request` / :meth:`slot_free_after`), so the
    same source drives the per-request oracle path unchanged — which is
    how the differential tests force both modes over one workload.
    """

    iodepth = 1   # chunked batching models the classic qd1 closed loop

    __slots__ = ("source", "think_time", "name", "tenant_names", "_chunk",
                 "_pos", "hold", "backoff")

    def __init__(self, source: ChunkSource, think_time: float = 0.0,
                 name: str = "", tenant_names: Optional[List[str]] = None):
        self.source = source
        self.think_time = think_time
        self.name = name
        self.tenant_names = tenant_names
        self._chunk = None
        self._pos = 0
        # Engine.run's back-off: rows left to hold, the hold's length.
        self.hold = self.backoff = 0

    def next_rows(self):
        """Remaining rows of the current chunk (fetching the next).

        Returns ``None`` once the source is exhausted.  Empty chunks
        are skipped in a loop: a source may yield any number in a row.
        """
        while self._chunk is None or self._pos >= len(self._chunk):
            self._chunk = next(self.source, None)
            if self._chunk is None:
                return None
            self._pos = 0
        return self._chunk[self._pos:]

    def advance(self, n: int) -> None:
        self._pos += n

    # -- scalar-oracle protocol ----------------------------------------
    def next_request(self) -> Optional[Request]:
        rows = self.next_rows()
        if rows is None:
            return None
        self._pos += 1
        return request_from_row(rows[0], self.tenant_names)

    def slot_free_after(self, issue_time: float, done: float) -> float:
        return done + self.think_time


@dataclass
class RunResult:
    """Outcome of an engine run."""

    elapsed: float
    stats: IoStats
    latency: LatencyStats
    completed_ops: int
    # Device-queue waiting time, populated when the issue function
    # returns Submission objects (split-phase stacks); empty otherwise.
    queue_delay: LatencyStats = field(default_factory=LatencyStats)

    @property
    def throughput_mb_s(self) -> float:
        return mb_per_sec(self.stats.total_bytes, self.elapsed)

    @property
    def read_mb_s(self) -> float:
        return mb_per_sec(self.stats.read_bytes, self.elapsed)

    @property
    def write_mb_s(self) -> float:
        return mb_per_sec(self.stats.write_bytes, self.elapsed)

    def as_dict(self) -> dict:
        return {
            "elapsed": self.elapsed,
            "completed_ops": self.completed_ops,
            "throughput_mb_s": self.throughput_mb_s,
            "io": self.stats.as_dict(),
            "latency": self.latency.as_dict(),
            "queue_delay": self.queue_delay.as_dict(),
        }


class Engine:
    """Drives a set of job streams against an issue function.

    ``sampler`` (any object with ``observe(now, stats)``, normally a
    :class:`repro.obs.sampler.Sampler`) is called after every request
    completion with the cumulative counters, enabling periodic
    time-series capture without touching the issue path.  Observations
    carry the duration-clamped completion time, so the series never
    leaks past the run window.

    ``issue_chunk`` (optional) is the vectorized companion of
    ``issue``: given a structured-array row slice, a start time, the
    stream's think time, a deadline and a request budget, it issues a
    prefix of the rows in one call and returns their exact issue/done
    time columns.  :meth:`run` offers it a stream's turn when it is
    set, a sampler is not and every stream is a :class:`ChunkStream`;
    every row it leaves is served through ``issue`` by the same
    per-request body every other run uses, so results are bit-identical.
    """

    def __init__(self, issue: IssueFn, sampler=None,
                 issue_chunk: Optional[IssueChunkFn] = None):
        self.issue = issue
        self.streams: List[JobStream] = []
        self.sampler = sampler
        self.issue_chunk = issue_chunk

    def add_stream(self, stream: JobStream) -> None:
        self.streams.append(stream)

    def run(self, duration: float = float("inf"),
            max_requests: int = 0) -> RunResult:
        """Run until simulated ``duration`` elapses or sources dry up.

        ``max_requests`` (if nonzero) bounds the total number of issued
        requests, which keeps unit tests fast.

        Streams interleave through the (time, index) heap.  With a
        usable ``issue_chunk``, the stream at the front first offers it
        the whole span until the next stream's turn (the *horizon*) as
        one row slice; the chunk path issues the longest prefix it can
        prove equivalent to per-request submission.  When it serves
        nothing (a non-conformant row, a closed fast-path gate, a
        horizon tie) the per-request body takes one row instead, and
        both share the accounting and rescheduling that follow.  Ties
        at the horizon re-enter the heap, where the per-stream index
        restores scalar ordering.

        Serving nothing also backs the stream off: its next
        ``SCALAR_THRESHOLD`` rows take the per-request body without an
        offer, twice as many after each further decline in a row (at
        most ``DEFAULT_CHUNK_REQUESTS``), until an offer serves a row.
        That body is the oracle, so any hold length is correct.
        """
        heap: List[tuple] = [(0.0, i, stream)
                             for i, stream in enumerate(self.streams)]
        heapq.heapify(heap)

        totals = IoStats()
        latencies = LatencyStats()
        queue_delays = LatencyStats()
        end_time = 0.0
        issued = 0

        # Localize everything the per-request loop touches: global and
        # attribute lookups inside the loop are a measurable fraction
        # of the engine's own overhead at millions of requests.
        issue = self.issue
        sampler = self.sampler
        issue_chunk = self.issue_chunk
        if sampler is not None or not all(isinstance(s, ChunkStream)
                                          for s in self.streams):
            issue_chunk = None
        heappop = heapq.heappop
        heappush = heapq.heappush
        totals_record = totals.record
        latencies_record = latencies.record
        queue_delays_record = queue_delays.record
        foreground = IoOrigin.FOREGROUND

        while heap:
            issue_time, index, stream = heappop(heap)
            if issue_time >= duration:
                continue
            n = 0
            if issue_chunk is not None:
                if stream.hold:
                    stream.hold -= 1
                else:
                    rows = stream.next_rows()
                    if rows is None:
                        continue
                    deadline = duration
                    if heap and heap[0][0] < deadline:
                        deadline = heap[0][0]
                    limit = max_requests - issued if max_requests else 0
                    issue_t, done_t, n = issue_chunk(rows, issue_time,
                                                     stream.think_time,
                                                     deadline, limit)
                    if n:
                        stream.backoff = 0
                    else:
                        stream.backoff = min(
                            2 * stream.backoff or SCALAR_THRESHOLD,
                            DEFAULT_CHUNK_REQUESTS)
                        stream.hold = stream.backoff - 1   # + this row
            if n:
                stream.advance(n)
                served = rows[:n]
                totals.record_chunk(served["op"], served["length"],
                                    served["origin"])
                # Chunk-conformant rows are foreground by construction:
                # each feeds the latency reservoir.
                is_fg = True
                latencies.record_many(done_t - issue_t)
                done = float(done_t[-1])   # done times are monotone
            else:
                request = stream.next_request()
                if request is None:
                    continue
                is_fg = request.origin is foreground
                result = issue(request, issue_time)
                if isinstance(result, Submission):
                    done = result.done_t
                    if is_fg:
                        queue_delays_record(result.begin_t - result.issue_t)
                else:
                    done = result
                if done < issue_time:
                    raise AssertionError(
                        f"completion {done} precedes issue {issue_time}")
                totals_record(request)
                if is_fg:
                    latencies_record(done - issue_time)
                n = 1
            issued += n
            # Completions can land past the run window (the last
            # in-flight requests); samples and elapsed stay inside it.
            clipped = done if done < duration else duration
            if sampler is not None:
                sampler.observe(clipped, totals)
            if clipped > end_time:
                end_time = clipped
            if max_requests and issued >= max_requests:
                break
            if is_fg:
                heappush(heap, (stream.slot_free_after(issue_time, done),
                                index, stream))
            else:
                # Background origins are budget-exempt: the next request
                # issues immediately (plus think time), without charging
                # an iodepth slot or waiting on the background I/O.
                heappush(heap, (issue_time + stream.think_time,
                                index, stream))

        elapsed = duration if duration != float("inf") else end_time
        # If every source dried up before `duration`, report actual span.
        if duration != float("inf") and end_time < duration and not heap:
            elapsed = end_time
        if max_requests and issued >= max_requests:
            elapsed = end_time
        return RunResult(elapsed=elapsed, stats=totals, latency=latencies,
                         completed_ops=issued, queue_delay=queue_delays)


def run_streams(issue: IssueFn, sources: List[RequestSource],
                duration: float = float("inf"),
                think_time: float = 0.0,
                max_requests: int = 0,
                sampler=None,
                iodepth: int = 1) -> RunResult:
    """Convenience wrapper: one JobStream per source, run them all."""
    engine = Engine(issue, sampler=sampler)
    for i, source in enumerate(sources):
        engine.add_stream(JobStream(source, think_time, name=f"job{i}",
                                    iodepth=iodepth))
    return engine.run(duration=duration, max_requests=max_requests)


def run_chunk_streams(issue: IssueFn, chunk_sources: List[ChunkSource],
                      duration: float = float("inf"),
                      think_time: float = 0.0,
                      max_requests: int = 0,
                      issue_chunk: Optional[IssueChunkFn] = None,
                      tenant_names: Optional[List[str]] = None) -> RunResult:
    """Convenience wrapper for chunked sources: one ChunkStream each.

    With ``issue_chunk`` set the engine offers it each horizon; without
    it the same streams are served row by row, which is the
    forced-scalar side of the differential tests.  A target with a
    tenant registry names a row's ``tenant`` tag itself (registration
    order), so ``tenant_names`` must open with the registry's names.
    """
    registry = getattr(getattr(issue_chunk, "__self__", None), "tenants",
                       None)
    if registry is not None and tenant_names is not None:
        known = registry.tenant_names()
        if list(tenant_names[:len(known)]) != known:
            raise ValueError(f"tenant_names {tenant_names} do not open "
                             f"with the target registry's {known}")
    engine = Engine(issue, issue_chunk=issue_chunk)
    for i, source in enumerate(chunk_sources):
        engine.add_stream(ChunkStream(source, think_time, name=f"job{i}",
                                      tenant_names=tenant_names))
    return engine.run(duration=duration, max_requests=max_requests)
