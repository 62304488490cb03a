"""The vector write window: SRC's ``submit_chunk`` and its gates.

:class:`WriteWindow` (held as ``cache.window``) serves a closed-loop
prefix of a chunk's rows for one :class:`~repro.core.src.SrcCache`.
Long runs of conformant rows (:func:`~repro.common.chunks.conformant_mask`:
single-page foreground writes, untagged or tagged with the address's
owner) are classified against the residency array and served whole.
The one row per sub-run that seals a segment, trips TWAIT or is refused
admission goes through ``cache.submit`` — the per-request path stays
the only place GC, backpressure, faults, bypass and write-around are
handled.  Everything else the window *declines*: a call that would not
pay for its scan (a tiny horizon, a non-conformant head, refused
admissions too dense for the sub-runs between them) serves nothing
more, and the engine — the one loop that turns a chunk row into a
``Request`` — backs the stream off (:meth:`repro.sim.engine.Engine.run`).
:meth:`WriteWindow.paths` says how many rows the window served, and
why a call was not taken.

The *chunk gate* lives here: :meth:`WriteWindow.chunk_fast_ok` checks,
clause by clause, that every per-request side channel the window cannot
observe is inert.  It is a predicate evaluated where it is used — once
per call, once per sub-run — so nothing has to keep it fresh.  To add a
side channel to the per-request path, add its liveness check to
:meth:`WriteWindow._closed_clause`.
"""

from __future__ import annotations

from collections import Counter
from typing import Tuple

import numpy as np

from repro.common.chunks import DECLINED, SCALAR_THRESHOLD, conformant_mask
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.arrays import B_CLEAN, B_DIRTY, B_MAPPED, B_NONE, B_STAGING
from repro.core.buffers import RAM_LATENCY
from repro.obs.recorder import ObsRecorder


class WriteWindow:
    """Vectorized write service and chunk gate of one ``SrcCache``."""

    def __init__(self, cache) -> None:
        self.cache = cache
        # Behind paths().  Not in SrcStats / collect(): those must read
        # the same after a chunked and a per-request run; this cannot.
        self.ledger = Counter(vector_rows=0, boundary_rows=0)

    def paths(self) -> dict:
        """Rows served by the vector window and as its boundary rows,
        plus ``declined.<reason>``: calls the window did not take (a
        closed chunk-gate clause, ``tiny_horizon``,
        ``nonconformant_head``), sub-runs an ``admission_bound`` cut
        short and calls that ``dense_refusals`` ended early."""
        return dict(self.ledger)

    def _closed_clause(self, think_time: float) -> str:
        """The first chunk-gate clause that is closed ("" = all open).

        Each clause is a per-request side channel the vector window
        cannot observe; while one is live, rows take ``cache.submit``.
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

    def chunk_fast_ok(self, think_time: float) -> bool:
        """Whether the vectorized write window may run right now (else
        ``submit_chunk`` declines and the engine serves rows one at a
        time).  Rechecked per sub-run: a boundary row's segment write
        failing attaches spares, starts rebuild jobs or enters bypass."""
        return not self._closed_clause(think_time)

    def submit_chunk(self, rows: np.ndarray, start: float,
                     think_time: float, deadline: float,
                     limit: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """The window behind :meth:`SrcCache.submit_chunk` (contract there).

        Only single-page foreground writes vectorize (the randwrite
        saturation shape), tenanted or not.  Within a window, rows are
        classified off a residency-code snapshot: rewrites of
        dirty-buffered blocks are RAM-absorbed hits, first-occurrence
        rows displace their old incarnation and append to the dirty
        buffer.  A row that seals a segment (the buffer's ``space``-th
        new block), trips TWAIT mid-window or is refused admission by
        the tenant registry takes the full scalar path, because
        everything — GC, backpressure, device faults, write-around —
        can hang off that write.
        """
        cache = self.cache
        n_total = rows.shape[0]
        if n_total == 0:
            return DECLINED
        reason = self._closed_clause(think_time)
        if reason:
            self.ledger["declined." + reason] += 1
            return DECLINED
        if deadline - start < SCALAR_THRESHOLD * (RAM_LATENCY + think_time):
            # Tiny horizon: with many closed-loop streams in lockstep
            # (trace replay) the next stream's turn is a few service
            # times away, so at most a handful of rows fit and the
            # conformity scan would cost more than a window serves.
            self.ledger["declined.tiny_horizon"] += 1
            return DECLINED
        tenants = cache.tenants
        owner_index = tenants.owner_index if tenants is not None else None
        # Conformity scan, bounded: scan a short prefix first and only
        # widen to the full slice if every scanned row conforms — a
        # trace with short write runs pays for 64 rows, a pure
        # randwrite chunk pays one extra 64-row pass.
        scan = min(n_total, 64)
        conf = conformant_mask(rows[:scan], cache.size, owner_index)
        if scan < n_total and conf.all():
            scan = n_total
            conf = conformant_mask(rows, cache.size, owner_index)
        n_conf = scan if conf.all() else int(np.argmin(conf))
        if n_conf < SCALAR_THRESHOLD:
            # Short (or empty) conformant run: not worth a window.
            self.ledger["declined.nonconformant_head"] += 1
            return DECLINED
        blocks = rows["offset"][:n_conf] // PAGE_SIZE
        dirty_buf = cache.dirty_buf
        stats = cache.stats
        ledger = self.ledger
        fg_key = IoOrigin.FOREGROUND.value
        # Tag -> tenant name, in the registry's registration order; -1
        # (untagged) lands on the trailing None.
        names, tags = [None], rows["tenant"]
        if tenants is not None:
            # Admission goes by the address's owner, stall billing by
            # the row's tag (the same tenant, or nobody).
            owners = owner_index(blocks)
            names = [*tenants.tenant_names(), None]

        n_max = min(limit, n_conf) if limit else n_conf
        issue_t = np.empty(n_max, dtype=np.float64)
        done_t = np.empty(n_max, dtype=np.float64)
        t = start
        done_rows = 0
        while (done_rows < n_max and t < deadline
               and self.chunk_fast_ok(think_time)):
            # The head row's TWAIT check, exactly where the scalar path
            # runs it (a flush's backpressure stall bills the head
            # row's tenant); intermediate rows' checks are no-ops
            # (proven by the fire mask below) and are skipped.
            cache._active_tenant = names[tags[done_rows]]
            cache._check_timeout(t)

            # A sub-run can consume at most ``space`` new blocks before
            # the segment-sealing boundary row, so scanning much past
            # that wastes vector work on rows the next sub-run will
            # re-classify against a fresh snapshot (consumed-row
            # semantics only ever look *backwards*, so the cap cannot
            # change results — it is pure lookahead sizing).
            space = dirty_buf.capacity - len(dirty_buf)
            w = min(n_max - done_rows, 4 * space + 64)
            lb = blocks[done_rows:done_rows + w]
            codes = cache._state.ensure(int(lb.max()) + 1)[lb]
            first = np.zeros(w, dtype=bool)   # first occurrence of its block
            first[np.unique(lb, return_index=True)[1]] = True
            # A row absorbs in RAM iff its block is dirty-buffered at
            # its turn: pre-snapshot B_DIRTY, or a duplicate of an
            # earlier row in this window.  Everything else displaces
            # its old incarnation and appends to the dirty buffer.
            adds = first & (codes != B_DIRTY)

            # Exact per-row times: accumulate adds floats in the same
            # order the scalar loop's repeated additions do.
            seq = np.empty(2 * w, dtype=np.float64)
            seq[0] = t
            seq[1::2] = RAM_LATENCY
            seq[2::2] = think_time
            seq = np.add.accumulate(seq)
            issue = seq[0::2]
            done = seq[1::2]

            # Sub-run bound: the row that seals a segment (the buffer's
            # space-th new block) or would trip TWAIT mid-window (only
            # absorbed rewrites don't refresh _last_dirty_write, so a
            # long absorb run can age the buffer past t_wait).  Either
            # row runs the full scalar path below.
            add_pos = np.nonzero(adds)[0]
            bound = (int(add_pos[space - 1])
                     if add_pos.shape[0] >= space else w)
            last_add = np.maximum.accumulate(
                np.where(adds, issue, -np.inf)[:-1])
            nonempty = (not dirty_buf.empty) | (last_add > -np.inf)
            fire = nonempty & (
                issue[1:] - np.maximum(cache._last_dirty_write, last_add)
                > cache.config.t_wait)
            if fire.any():
                bound = min(bound, int(np.argmax(fire)) + 1)
            if tenants is not None:
                # ... or the first miss the registry would refuse.
                # Only misses ask it, and within a sub-run occupancy
                # only grows: by the admitted misses and by staged
                # blocks, never counted before (a displaced mapped or
                # clean block nets zero).
                own = owners[done_rows:done_rows + bound]
                asks = (adds & (codes == B_NONE))[:bound]
                refused = tenants.refusals(
                    own, asks, asks | (adds & (codes == B_STAGING))[:bound])
                if refused.shape[0] * SCALAR_THRESHOLD > 2 * bound:
                    # An over-share tenant keeps missing.  Sub-runs of
                    # under ~16 rows cost more to classify than their
                    # rows take per request (docs/performance.md), so
                    # the call ends here, with the prefix it has served.
                    ledger["declined.dense_refusals"] += 1
                    break
                if refused.shape[0]:
                    bound = int(refused[0])
                    ledger["declined.admission_bound"] += 1
            # Rows issuing before the deadline; when it cuts the sub-run
            # short, t lands on issue[n_ok] >= deadline and the loop ends.
            n_ok = int(np.searchsorted(issue, deadline, side="left"))
            k = min(bound, n_ok)

            if k:
                wl = lb[:k]
                kcodes = codes[:k]
                hit_lbas = wl[(kcodes != B_NONE) | ~first[:k]]
                cache.cstats.write_hits += hit_lbas.shape[0]
                cache.cstats.write_misses += k - hit_lbas.shape[0]
                cache.hotness.touch_many(hit_lbas)
                add_lbas = wl[adds[:k]]
                if add_lbas.shape[0]:
                    if tenants is not None:
                        tenants.count_admitted(own[:k][asks[:k]])
                    acodes = kcodes[adds[:k]]
                    cache.mapping.invalidate_many(
                        add_lbas[acodes == B_MAPPED])
                    cache.clean_buf.remove_many(add_lbas[acodes == B_CLEAN])
                    for lba in add_lbas[acodes == B_STAGING].tolist():
                        cache.staging.pop(lba)
                    va = cache._versions.ensure(int(add_lbas.max()) + 1)
                    va[add_lbas] += 1
                    dirty_buf.add_many(add_lbas)
                    # Absorbed rewrites don't refresh the TWAIT clock;
                    # the last *added* row does (scalar line order).
                    cache._last_dirty_write = max(
                        cache._last_dirty_write,
                        float(issue[add_pos[add_lbas.shape[0] - 1]]))
                stats.write_ops += k
                stats.write_bytes += k * PAGE_SIZE
                stats.bytes_by_origin[fg_key] = (
                    stats.bytes_by_origin.get(fg_key, 0) + k * PAGE_SIZE)
                if cache.obs.enabled:
                    # The scalar path records each row's latency from
                    # BlockDevice._lifecycle; the bulk record replays
                    # the same per-row ``done - issued`` values in row
                    # order, so the histogram is bit-identical.
                    cache.obs.observe_io_chunk(cache, done[:k] - issue[:k])
                issue_t[done_rows:done_rows + k] = issue[:k]
                done_t[done_rows:done_rows + k] = done[:k]
                done_rows += k
                ledger["vector_rows"] += k
                t = float(done[k - 1]) + think_time

            if bound < n_ok:
                # Boundary row: the full write path — segment sealing
                # (GC, backpressure, faults), a TWAIT flush or a
                # write-around hangs off this write, billed to the
                # row's tenant.  t == issue[bound] by construction.
                offset = int(blocks[done_rows]) * PAGE_SIZE
                done_b = cache.submit(
                    Request(Op.WRITE, offset, PAGE_SIZE,
                            tenant=names[tags[done_rows]]), t)
                issue_t[done_rows] = t
                done_t[done_rows] = done_b
                done_rows += 1
                ledger["boundary_rows"] += 1
                t = done_b + think_time

        if done_rows:
            # Where the per-request path leaves it: the last row's.
            cache._active_tenant = names[tags[done_rows - 1]]
        return issue_t[:done_rows], done_t[:done_rows], done_rows

