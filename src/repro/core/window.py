"""The vector write window: one sub-run loop over N cache lanes.

:func:`serve_lanes` serves a closed-loop prefix of a chunk's rows for
one :class:`~repro.core.src.SrcCache` (one lane) or for every shard of
a :class:`~repro.cluster.router.ShardRouter` (a lane each).  SRC acks a
write from its RAM segment buffer, so between seals a row costs
``RAM_LATENCY`` on any cache and one issue / done time thread runs
through all of them.  Long runs of conformant rows
(:func:`~repro.common.chunks.conformant_mask`: single-page foreground
writes, untagged or tagged with the address's owner) are classified by
each :class:`Lane` against its own cache and served whole.  The one row
per sub-run that seals a segment, trips TWAIT or is refused admission
goes through its cache's ``submit`` — the per-request path stays the
only place GC, backpressure, faults, bypass and write-around are
handled.  Everything else the loop *declines*: a call that would not
pay for its scan (a tiny horizon, a non-conformant head, refused
admissions too dense for the sub-runs between them) serves nothing
more, and the engine — the one loop that turns a chunk row into a
``Request`` — backs the stream off (:meth:`repro.sim.engine.Engine.run`).
``paths()`` of a window, or of a router, says how many rows it served
and why a call was not taken.

The *chunk gate* lives here: :meth:`WriteWindow.closed_clause` checks,
clause by clause, that every per-request side channel the window cannot
observe is inert.  It is a predicate evaluated where it is used — once
per call, once per sub-run — so nothing has to keep it fresh.  To add a
side channel to the per-request path, add its liveness check there.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

import numpy as np

from repro.common.chunks import DECLINED, SCALAR_THRESHOLD, conformant_mask
from repro.common.types import FOREGROUND, WRITE, Request
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_CLEAN, B_DIRTY, B_MAPPED, B_NONE
from repro.core.buffers import RAM_LATENCY
from repro.obs.recorder import ObsRecorder


class WriteWindow:
    """Chunk gate, path ledger and lane of one ``SrcCache``."""

    def __init__(self, cache) -> None:
        self.cache = cache
        # Behind paths().  Not in SrcStats / collect(): those must read
        # the same after a chunked and a per-request run; this cannot.
        self.path_ledger = Counter(vector_rows=0, boundary_rows=0,
                                   twait_scans=0, refusal_scans=0)

    def paths(self) -> dict:
        """Rows served by the vector window and as its boundary rows;
        sub-runs that built the TWAIT / admission column, their scalar
        bound not ruling a hit out (``twait_scans``, ``refusal_scans``);
        plus ``declined.<reason>``: calls the window did not take (a
        closed chunk-gate clause, ``tiny_horizon``,
        ``nonconformant_head``), sub-runs an ``admission_bound`` cut
        short and calls that ``dense_refusals`` ended early."""
        return dict(self.path_ledger)

    def closed_clause(self, think_time: float) -> str:
        """The first chunk-gate clause that is closed ("" = all open).

        Each clause is a per-request side channel the vector window
        cannot observe; while one is live, rows take ``cache.submit``.
        Re-read per sub-run: a boundary row's segment write failing
        attaches spares, starts rebuild jobs or enters bypass.
        """
        cache = self.cache
        if cache.bypass:
            return "bypass"
        # The registry's hooks have array twins; any other observer
        # needs the per-block callbacks.
        tenants = cache.tenants
        for holder in (cache.mapping, cache.dirty_buf, cache.clean_buf):
            observer = holder.observer
            if observer is not None and observer is not tenants:
                return "foreign_observer"
        if cache.obs.enabled and type(cache.obs) is not ObsRecorder:
            return "foreign_recorder"
        if cache.repair.guard.enabled:
            return "repair_guard"
        if cache.repair.jobs:
            return "repair_jobs"
        if cache.config.repair.scrub_interval > 0:
            return "scrub"
        if cache.members.armed_fault():
            return "armed_fault"
        if think_time < 0.0:
            return "negative_think"
        return ""

    def lanes(self, blocks: np.ndarray) -> List["Lane"]:
        """One lane: every row of a slice offered to the cache."""
        return [Lane(self, blocks)]


class Lane:
    """One cache's rows of an offered slice: their ``blocks`` and the
    positions ``at`` which they sit in it (``None``: the lane is the
    whole slice and takes plain slices of it, no fancy indexing).
    What the rows alone decide (owners, previous rows) is derived once
    per offer, here; per sub-run only what a seal can change."""

    def __init__(self, window: WriteWindow, blocks: np.ndarray,
                 at: Optional[np.ndarray] = None) -> None:
        self.cache, self.ledger = window.cache, window.path_ledger
        self.blocks, self.at = blocks, at
        self.served = 0              # lane rows behind the cursor
        # Each row's previous row on the same block (-1: none): one
        # stable sort puts a block's rows side by side, in order.
        order = np.argsort(blocks, kind="stable")
        self.prev = np.full(blocks.shape[0], -1)
        again = np.flatnonzero(blocks[order[1:]] == blocks[order[:-1]])
        self.prev[order[again + 1]] = order[again]
        self.cache._state.ensure(int(blocks.max()) + 1)
        # Admission goes by the address's owner (stall billing by the
        # row's tag: the same tenant, or nobody).
        tenants = self.cache.tenants
        self.owners = (tenants.owner_index(blocks)
                       if tenants is not None else None)

    def space(self) -> int:
        """New blocks the dirty buffer takes before the sealing one."""
        return self.cache.dirty_buf.capacity - len(self.cache.dirty_buf)

    def plan(self, cursor: int, w: int, issue: np.ndarray) -> int:
        """Classify the lane's rows among the ``w`` rows at ``cursor``,
        which issue at ``issue``, off a residency-code snapshot.
        Returns the index among the ``w`` of the first row the lane
        must bound (``w``: none): it seals a segment (the buffer's
        ``space``-th new block), trips TWAIT or is refused admission.
        -1: refusals too dense for a window."""
        cache = self.cache
        lo = self.served
        if self.at is None:
            n, pos = w, slice(0, w)
        else:
            n = int(np.searchsorted(self.at[lo:], cursor + w))
            pos = self.at[lo:lo + n] - cursor
        self._plan = None
        if n == 0:
            return w
        lb = self.blocks[lo:lo + n]
        iss = issue[pos]
        codes = cache._state.a[lb]
        first = self.prev[lo:lo + n] < lo   # first occurrence of its block
        # A row absorbs in RAM iff its block is dirty-buffered at its
        # turn: pre-snapshot B_DIRTY, or a duplicate of an earlier row
        # of this sub-run.  Everything else displaces its old
        # incarnation and appends to the dirty buffer.
        adds = first & (codes != B_DIRTY)
        add_pos = np.nonzero(adds)[0]
        space = self.space()
        bound = int(add_pos[space - 1]) if add_pos.shape[0] >= space else n
        # TWAIT: absorbed rewrites and other lanes' rows don't refresh
        # _last_dirty_write, so the buffer can age past t_wait at any
        # row, the lane's first included (it is rarely the slice's
        # head).  A firing row is bounded: cache.submit runs the flush.
        # No row's clock is behind _last_dirty_write and issue times
        # ascend: a bounding row inside t_wait of it proves all quiet.
        t_wait, since = cache.config.t_wait, cache._last_dirty_write
        if iss[min(bound, n - 1)] - since > t_wait:
            self.ledger["twait_scans"] += 1
            last_add = np.maximum.accumulate(np.where(adds, iss, -np.inf))
            prev = np.concatenate(([-np.inf], last_add[:-1]))
            fire = ((not cache.dirty_buf.empty) | (prev > -np.inf)) & (
                iss - np.maximum(since, prev) > t_wait)
            if fire.any():
                bound = min(bound, int(np.argmax(fire)))
        own, asks, refused = None, None, ()
        if self.owners is not None:
            # ... or the first miss the registry would refuse.  Only
            # misses ask it, and within a sub-run occupancy only grows,
            # by the admitted misses (a displaced mapped or clean block
            # nets zero) — too few of them to reach any limit prove it
            # outright.
            own = self.owners[lo:lo + bound]
            asks = (adds & (codes == B_NONE))[:bound]
            if cache.tenants.can_refuse(int(np.count_nonzero(asks))):
                self.ledger["refusal_scans"] += 1
                refused = cache.tenants.refusals(own, asks)
        if len(refused) * SCALAR_THRESHOLD > 2 * bound:
            # An over-share tenant keeps missing.  Sub-runs of under
            # ~16 rows cost more to classify than their rows take per
            # request (docs/performance.md), so the call ends here,
            # with the prefix it has served.
            self.ledger["declined.dense_refusals"] += 1
            return -1
        if len(refused):
            bound = int(refused[0])
            self.ledger["declined.admission_bound"] += 1
        self._plan = (pos, lb, codes, first, adds, add_pos, iss, own, asks)
        if bound >= n:
            return w
        return bound if self.at is None else int(pos[bound])

    def commit(self, k: int, done: np.ndarray) -> None:
        """Serve the planned rows that sit before the sub-run's row
        ``k`` (possibly none: cuts land mid-lane)."""
        if self._plan is None:
            return
        pos, lb, codes, first, adds, add_pos, iss, own, asks = self._plan
        m = k if self.at is None else int(np.searchsorted(pos, k))
        if m == 0:
            return
        cache = self.cache
        wl = lb[:m]
        mcodes = codes[:m]
        hit_lbas = wl[(mcodes != B_NONE) | ~first[:m]]
        cache.cstats.write_hits += hit_lbas.shape[0]
        cache.cstats.write_misses += m - hit_lbas.shape[0]
        cache.hotness.touch_many(hit_lbas)
        add_lbas = wl[adds[:m]]
        if add_lbas.shape[0]:
            if own is not None:
                cache.tenants.count_admitted(own[:m][asks[:m]])
            acodes = mcodes[adds[:m]]
            cache.mapping.invalidate_many(add_lbas[acodes == B_MAPPED])
            cache.clean_buf.remove_many(add_lbas[acodes == B_CLEAN])
            va = cache._versions.ensure(int(add_lbas.max()) + 1)
            va[add_lbas] += 1
            cache.dirty_buf.add_many(add_lbas)
            # Absorbed rewrites don't refresh the TWAIT clock; the
            # lane's last *added* row does (scalar line order).
            cache._last_dirty_write = max(
                cache._last_dirty_write,
                float(iss[add_pos[add_lbas.shape[0] - 1]]))
        stats = cache.stats
        fg_key = FOREGROUND._value_
        stats.write_ops += m
        stats.write_bytes += m * PAGE_SIZE
        stats.bytes_by_origin[fg_key] = (
            stats.bytes_by_origin.get(fg_key, 0) + m * PAGE_SIZE)
        if cache.obs.enabled:
            # The per-row ``done - issued`` BlockDevice.submit records,
            # in row order: a bit-identical histogram.
            cache.obs.observe_io_chunk(cache, done[pos][:m] - iss[:m])
        self.served += m
        self.ledger["vector_rows"] += m


def serve_lanes(front, rows: np.ndarray, size: int, tenants,
                start: float, think_time: float, deadline: float,
                limit: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Every ``submit_chunk`` over SRC caches (contract:
    :meth:`SrcCache.submit_chunk`).  ``front`` stands for the device of
    ``size`` bytes the slice was offered to — a cache's
    :class:`WriteWindow`, with its ``tenants``, or a ``ShardRouter``,
    where tagged rows do not conform: its ``closed_clause`` is the
    gate, re-read per sub-run, its ``path_ledger`` books the declines
    and its ``lanes(blocks)`` deals the conformant prefix to lanes."""
    ledger = front.path_ledger
    reason = front.closed_clause(think_time)
    if reason:
        ledger["declined." + reason] += 1
        return DECLINED
    if deadline - start < SCALAR_THRESHOLD * (RAM_LATENCY + think_time):
        # Tiny horizon: with many closed-loop streams in lockstep
        # (trace replay) the next stream's turn is a few service times
        # away, and the conformity scan costs more than a window serves.
        ledger["declined.tiny_horizon"] += 1
        return DECLINED
    # Tag -> tenant name, in the registry's registration order; -1
    # (untagged) lands on the trailing None.
    names, tags, owner_index = [None], rows["tenant"], None
    if tenants is not None:
        names = [*tenants.tenant_names(), None]
        owner_index = tenants.owner_index
    # Rows the horizon can reach at best: per-offer columns stop there.
    reach = (deadline - start) / (RAM_LATENCY + think_time) + 2
    rows = rows[:int(min(rows.shape[0], reach))]
    conf = conformant_mask(rows, size, owner_index)
    n_conf = rows.shape[0] if conf.all() else int(np.argmin(conf))
    if n_conf < SCALAR_THRESHOLD:
        # Short (or empty) conformant run: not worth a window.
        ledger["declined.nonconformant_head"] += 1
        return DECLINED
    n_max = min(limit, n_conf) if limit else n_conf
    blocks = rows["offset"][:n_max] // PAGE_SIZE
    lanes = front.lanes(blocks)
    issue_t = np.empty(n_max, dtype=np.float64)
    done_t = np.empty(n_max, dtype=np.float64)
    t = start
    done_rows = 0
    for lane in lanes:      # seals stage until the call ends (or raises)
        lane.cache.segments.staged = []
    try:
        while (done_rows < n_max and t < deadline
               and not front.closed_clause(think_time)):
            # A lane takes at most ``space`` new blocks before its sealing
            # row, and rows scanned much past that are classified again by
            # the next sub-run (consumed-row semantics only ever look
            # *backwards*: the cap is lookahead sizing, not a result).
            w = min(n_max - done_rows,
                    4 * len(lanes) * min(lane.space() for lane in lanes) + 64)
            # Exact per-row times: accumulate adds floats in the same
            # order the scalar loop's repeated additions do.
            seq = np.empty(2 * w, dtype=np.float64)
            seq[0] = t
            seq[1::2] = RAM_LATENCY
            seq[2::2] = think_time
            seq = np.add.accumulate(seq)
            issue = seq[0::2]
            done = seq[1::2]
            # Rows issuing before the deadline; when it cuts the sub-run
            # short, t lands on issue[k] >= deadline and the loop ends.
            k = int(np.searchsorted(issue, deadline, side="left"))
            bounding = None
            for lane in lanes:
                bound = lane.plan(done_rows, k, issue)
                if bound < k:
                    k, bounding = bound, lane
                if k <= 0:      # nothing ahead of it left to plan
                    break
            if k < 0:           # dense refusals end the call
                break
            if k:
                for lane in lanes:
                    lane.commit(k, done)
                issue_t[done_rows:done_rows + k] = issue[:k]
                done_t[done_rows:done_rows + k] = done[:k]
                done_rows += k
                t = float(done[k - 1]) + think_time
            if bounding is not None:
                # Boundary row: the full write path, and whatever hangs
                # off this write (GC, backpressure, faults, write-around)
                # billed to the row's tenant.  t == issue[k] by construction.
                done_b = bounding.cache.submit(
                    Request(WRITE, int(blocks[done_rows]) * PAGE_SIZE,
                            PAGE_SIZE, False, FOREGROUND,
                            names[tags[done_rows]]), t)
                issue_t[done_rows] = t
                done_t[done_rows] = done_b
                done_rows += 1
                bounding.served += 1
                bounding.ledger["boundary_rows"] += 1
                t = done_b + think_time
    finally:        # every lane stops staging before any apply can raise
        logs = [lane.cache.segments for lane in lanes]
        staged = [log.staged for log in logs]
        for log in logs:
            log.staged = None
        for log, seals in zip(logs, staged):
            log.apply_staged(seals)

    for lane in lanes:
        if lane.served:
            # Where the per-request path leaves it: the lane's last row's.
            last = lane.served - 1
            lane.cache._active_tenant = names[
                tags[last if lane.at is None else lane.at[last]]]
    return issue_t[:done_rows], done_t[:done_rows], done_rows
