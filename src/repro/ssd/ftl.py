"""Page-mapped Flash Translation Layer.

This module is pure mapping logic: no timing.  The FTL manages physical
flash space in *superblocks* — the allocation/erase groups behind the
paper's "erase group size" (§3.3).  All host and GC writes append into
the currently open superblock; garbage collection picks the closed
superblock with the fewest valid pages (greedy), relocates its valid
pages to the head of the log and erases it.

The behaviour the paper measures in Figure 2 emerges here: writes whose
size reaches the superblock size invalidate whole superblocks at once,
so GC finds empty victims and write amplification stays at 1 regardless
of over-provisioning; smaller writes mix lifetimes within superblocks
and amplification grows as spare space shrinks.

Host pages reach the log through one loop, ``_write_pages``, for
``write`` and ``write_extents`` alike: the pages between two superblock
rolls are applied as numpy array updates on the int32 L2P / P2L tables.
Runs of up to :data:`~repro.common.chunks.SCALAR_THRESHOLD` pages — the
1–8 page ops that dominate 4 KiB random workloads among them — are
applied element by element on Python ints instead, through a
``memoryview`` of each table (``write`` hands the loop a ``range``,
with no array at all): per-request ``np.arange``/``np.unique``
allocations and NumPy element access cost more than the whole
operation at those sizes.  Both forms produce bit-identical state
(``tests/test_ftl.py`` patches the constant to pin it).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.chunks import SCALAR_THRESHOLD
from repro.common.errors import AddressError, ConfigError
from repro.common.types import ElementViews
from repro.obs.events import Erase, GcEnd, GcStart
from repro.obs.recorder import NULL_RECORDER

NO_PAGE = -1
GC_RESERVE = 1    # GC runs while at most this many superblocks are free


class FtlOpResult:
    """Flash work generated by one host operation (page counts)."""

    __slots__ = ("host_pages", "gc_read_pages", "gc_prog_pages", "erases")

    def __init__(self, host_pages: int = 0, gc_read_pages: int = 0,
                 gc_prog_pages: int = 0, erases: int = 0):
        self.host_pages = host_pages      # pages programmed for the host
        self.gc_read_pages = gc_read_pages  # valid pages read during GC
        self.gc_prog_pages = gc_prog_pages  # valid pages re-programmed
        self.erases = erases              # superblocks erased

    def __repr__(self) -> str:
        return (f"FtlOpResult(host_pages={self.host_pages}, "
                f"gc_read_pages={self.gc_read_pages}, "
                f"gc_prog_pages={self.gc_prog_pages}, "
                f"erases={self.erases})")


@dataclass
class FtlCounters:
    """Lifetime counters for wear and write-amplification metrics."""

    host_pages_written: int = 0
    host_pages_read: int = 0
    gc_pages_copied: int = 0
    superblock_erases: int = 0
    trimmed_pages: int = 0

    @property
    def total_pages_programmed(self) -> int:
        return self.host_pages_written + self.gc_pages_copied

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return self.total_pages_programmed / self.host_pages_written


class PageMappedFtl(ElementViews):
    """Log-structured page-mapped FTL over superblocks."""

    _VIEWS = ("l2p", "p2l", "valid_count")

    def __init__(self, logical_pages: int, physical_pages: int,
                 superblock_pages: int, wear_level_threshold: int = 0):
        if logical_pages <= 0 or physical_pages <= 0:
            raise ConfigError("page counts must be positive")
        if superblock_pages <= 0:
            raise ConfigError("superblock_pages must be positive")
        if physical_pages >= 2 ** 31:
            raise ConfigError("int32 page maps need physical_pages < 2**31")
        if physical_pages % superblock_pages:
            physical_pages -= physical_pages % superblock_pages
        self.n_superblocks = physical_pages // superblock_pages
        if self.n_superblocks < 3:
            raise ConfigError(
                f"need >=3 superblocks, got {self.n_superblocks} "
                f"({physical_pages} phys pages / {superblock_pages})")
        min_spare = (GC_RESERVE + 2) * superblock_pages
        if physical_pages < logical_pages + min_spare:
            raise ConfigError(
                f"physical space {physical_pages} pages cannot host "
                f"{logical_pages} logical pages plus GC reserve")
        self.logical_pages = logical_pages
        self.physical_pages = physical_pages
        self.superblock_pages = superblock_pages
        self.gc_reserve = GC_RESERVE

        self.l2p = np.full(logical_pages, NO_PAGE, dtype=np.int32)
        self.p2l = np.full(physical_pages, NO_PAGE, dtype=np.int32)
        self.valid_count = np.zeros(self.n_superblocks, dtype=np.int64)
        self.is_closed = np.zeros(self.n_superblocks, dtype=bool)
        self.erase_count = np.zeros(self.n_superblocks, dtype=np.int64)
        self._view()              # the tables never grow: views built once

        self._free: List[int] = list(range(self.n_superblocks - 1, 0, -1))
        self._open_sb = 0
        self._wp = 0  # write pointer within the open superblock
        self._mapped = 0  # O(1) mirror of count_nonzero(l2p != NO_PAGE)
        self.counters = FtlCounters()
        # Observability: the owning device names this FTL and advances
        # ``clock`` (simulated time) before each host op so the emitted
        # GC/erase events are timestamped and attributable.
        self.obs = NULL_RECORDER
        self.owner = ""
        self.clock = 0.0
        # Static wear leveling: when the erase-count spread exceeds the
        # threshold, the least-worn closed superblock is force-collected
        # so its cold contents rejoin the log and the block returns to
        # rotation.  0 disables (the default; the paper's drives manage
        # wear internally and SRC's aligned writes keep wear even).
        self.wear_level_threshold = wear_level_threshold
        self.wear_level_moves = 0

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    @property
    def free_superblocks(self) -> int:
        return len(self._free)

    @property
    def mapped_page_count(self) -> int:
        # Maintained incrementally by write/trim; check_invariants()
        # verifies it against a full l2p scan.
        return self._mapped

    def fits(self, npages: int) -> bool:
        """Whether ``npages`` more pages fit the open superblock: filling
        it exactly does not roll it."""
        return npages <= self.superblock_pages - self._wp

    def utilization(self) -> float:
        """Fraction of physical pages holding valid data."""
        return self.mapped_page_count / self.physical_pages

    # ------------------------------------------------------------------
    # host operations
    # ------------------------------------------------------------------
    def _check_range(self, lpn: int, npages: int) -> None:
        if npages <= 0:
            raise AddressError(f"non-positive page count {npages}")
        if lpn < 0 or lpn + npages > self.logical_pages:
            raise AddressError(
                f"pages [{lpn}, {lpn + npages}) beyond logical space "
                f"{self.logical_pages}")

    def write(self, lpn: int, npages: int) -> FtlOpResult:
        """Host write of ``npages`` starting at logical page ``lpn``."""
        if npages <= 0 or lpn < 0 or lpn + npages > self.logical_pages:
            self._check_range(lpn, npages)
        result = FtlOpResult(npages)
        self._write_pages(range(lpn, lpn + npages) if
                          npages <= SCALAR_THRESHOLD else
                          np.arange(lpn, lpn + npages), (npages,),
                          {0: result})
        return result

    def write_extents(self, lpns: np.ndarray, npages: np.ndarray) -> tuple:
        """:meth:`write` per extent (``npages[i]`` pages at ``lpns[i]``)
        after a range check of the whole batch; the cost columns
        ``(gc_read_pages, gc_prog_pages, erases)``.  Extents may overlap,
        repeat or land on mapped pages."""
        if (npages <= 0).any():
            raise AddressError(f"non-positive page count in {npages}")
        n, total = lpns.shape[0], int(npages.sum())
        low = int(lpns.min())
        high = (int(lpns.max()) + 1 if total == n
                else int((lpns + npages).max()))
        self._check_range(low, high - low)
        if total == n:                  # a page each: the pages are lpns
            pages, ends = lpns, range(1, n + 1)
        else:
            ends = np.cumsum(npages)
            pages = np.arange(total) + np.repeat(lpns - ends + npages, npages)
        gc = {}
        self._write_pages(pages, ends, gc)
        # Three columns, each written only where GC ran: NumPy backs a
        # (3, n) array of 4 MiB or more with huge pages, which a few
        # scattered writes make resident whole.
        gc_read, gc_prog, erases = (np.zeros(n, dtype=np.int64)
                                    for _ in range(3))
        for k, result in gc.items():
            if result.erases:           # GC work always ends in an erase
                gc_read[k] = result.gc_read_pages
                gc_prog[k] = result.gc_prog_pages
                erases[k] = result.erases
        return gc_read, gc_prog, erases

    def write_batch(self, lpns: np.ndarray) -> tuple:
        """:meth:`write_extents` of one page at each of ``lpns``."""
        return self.write_extents(lpns, np.broadcast_to(1, lpns.shape))

    def fill(self, npages: int) -> None:
        """:meth:`write` of pages ``[0, npages)`` one superblock at a time
        on a blank FTL, as array fills: identity maps, whole superblocks
        closed in free-list order, the last one open.  No GC: the spare
        space keeps more than ``gc_reserve`` superblocks free."""
        if self.counters.total_pages_programmed:
            raise ConfigError("fill() needs a blank FTL")
        self._check_range(0, npages)
        sbp = self.superblock_pages
        last = (npages - 1) // sbp          # the superblock left open
        # A superblock at a time: larger temporaries raised peak RSS.
        for lo in range(0, npages, sbp):
            hi = min(lo + sbp, npages)
            self.l2p[lo:hi] = self.p2l[lo:hi] = np.arange(lo, hi)
        self.valid_count[:last] = sbp
        self._wp = self.valid_count[last] = npages - last * sbp
        self.is_closed[:last] = True
        del self._free[len(self._free) - last:]
        self._open_sb, self._mapped = last, npages
        self.counters.host_pages_written += npages

    def read(self, lpn: int, npages: int) -> None:
        """Host read: the range check, then the counter."""
        self._check_range(lpn, npages)
        self.counters.host_pages_read += npages

    def read_extents(self, lpns: np.ndarray, npages: np.ndarray) -> None:
        """:meth:`read` over a batch, ``npages[i]`` (at least one) pages
        at ``lpns[i]``: the range check on the lowest and highest page,
        then the counter."""
        low = int(lpns.min())
        self._check_range(low, int((lpns + npages).max()) - low)
        self.counters.host_pages_read += int(npages.sum())

    def trim(self, lpn: int, npages: int) -> None:
        """Discard the mapping for a logical range (no flash work)."""
        self._check_range(lpn, npages)
        self._unmap(lpn, npages)
        self.counters.trimmed_pages += npages

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _unmap(self, lpn: int, npages: int) -> None:
        """Drop the mappings of a contiguous logical range: up to
        ``SCALAR_THRESHOLD`` pages element by element, as a write's."""
        if npages > SCALAR_THRESHOLD:
            old = self.l2p[lpn:lpn + npages]
            self._mapped -= self._invalidate(old)
            old[:] = NO_PAGE
            return
        l2p, p2l, vc = self.l2p_v, self.p2l_v, self.valid_count_v
        sbp = self.superblock_pages
        for lp in range(lpn, lpn + npages):
            ppn = l2p[lp]
            if ppn != NO_PAGE:
                self._mapped -= 1
                p2l[ppn] = NO_PAGE
                vc[ppn // sbp] -= 1
                l2p[lp] = NO_PAGE

    def _invalidate(self, old: np.ndarray) -> int:
        """Kill the physical pages ``old`` maps to (``NO_PAGE`` entries
        skipped); returns how many were live."""
        live = old[old != NO_PAGE]
        if live.size:
            self.p2l[live] = NO_PAGE
            # One bincount and one subtraction: the same integer
            # decrements a per-page loop makes, without a sort.
            self.valid_count -= np.bincount(live // self.superblock_pages,
                                            minlength=self.n_superblocks)
        return live.size

    def _write_pages(self, pages, ends, gc: dict) -> None:
        """Append host ``pages`` (an array, or a ``range`` of at most
        ``SCALAR_THRESHOLD``) in order; extent ``i`` is the contiguous
        ``pages[ends[i - 1]:ends[i]]``.  The GC work of the rolls extent
        ``i`` triggers accumulates in ``gc[i]`` (an :class:`FtlOpResult`).

        The same state and costs as :meth:`write` per extent.  The pages
        between two superblock rolls are one run: a page's mapping from
        before the run dies once and its last write in the run wins.
        ``write`` invalidates its whole range before it appends, so
        before each roll the rest of the extent that owns the rolling
        page is unmapped — GC picks its victim from the same
        ``valid_count`` — and the roll's cost is that extent's.
        """
        l2p, p2l, vc = self.l2p_v, self.p2l_v, self.valid_count_v
        sbp = self.superblock_pages
        pos, total = 0, len(pages)
        while True:
            r = min(sbp - self._wp, total - pos)
            base = self._open_sb * sbp + self._wp
            if r > SCALAR_THRESHOLD:
                run = pages[pos:pos + r]
                self.p2l[base:base + r] = run
                ppns = np.arange(base, base + r)
                if ends[bisect_right(ends, pos)] >= pos + r:
                    lo = int(run[0])            # inside one extent: a range
                    at, to = slice(lo, lo + r), ppns
                elif (run[1:] > run[:-1]).all():
                    at, to = run, ppns          # no page repeats
                else:
                    # A page may repeat: its last write wins the mapping,
                    # the earlier copies are programmed and dead.
                    at, last = np.unique(run[::-1], return_index=True)
                    last = (r - 1) - last
                    to = ppns[last]
                    dead = np.ones(r, dtype=bool)
                    dead[last] = False
                    self.p2l[ppns[dead]] = NO_PAGE
                live = self._invalidate(self.l2p[at])
                self.l2p[at] = to
                vc[self._open_sb] += to.size
                self._mapped += to.size - live
            elif r:
                mapped = self._mapped
                run = pages[pos:pos + r]
                for lp in run if type(run) is range else run.tolist():
                    old = l2p[lp]
                    if old == NO_PAGE:
                        mapped += 1
                    else:
                        p2l[old] = NO_PAGE
                        vc[old // sbp] -= 1
                    l2p[lp] = base
                    p2l[base] = lp
                    base += 1
                vc[self._open_sb] += r
                self._mapped = mapped
            self._wp += r
            pos += r
            if pos == total:
                break
            k = bisect_right(ends, pos)
            self._unmap(int(pages[pos]), int(ends[k]) - pos)
            self._roll_superblock(gc.setdefault(k, FtlOpResult()))
        self.counters.host_pages_written += total

    def _roll_superblock(self, result: FtlOpResult) -> None:
        """Close the open superblock and open a fresh one, GCing first.

        GC only collects *profitable* victims (valid < superblock size).
        If every closed superblock is fully valid, collecting would
        consume exactly as many free superblocks as it produces — a
        livelock — so we stop; space conservation then guarantees at
        least two free superblocks exist (the invalid space implied by
        the spare factor must live somewhere, and with all closed
        superblocks full it can only be in the free list).
        """
        self.is_closed[self._open_sb] = True
        while len(self._free) <= self.gc_reserve:
            victim = self._pick_victim()
            if self.valid_count[victim] >= self.superblock_pages:
                break
            self._collect_one(result, victim)
        self._maybe_wear_level(result)
        if self.is_closed[self._open_sb]:
            # GC did not already switch the log head (its relocations fit
            # in the old superblock or there was nothing to collect), so
            # open a fresh superblock for the incoming writes.
            self._open_fresh()

    def _maybe_wear_level(self, result: FtlOpResult) -> None:
        """Static wear leveling by forced relocation of cold blocks."""
        if not self.wear_level_threshold:
            return
        if len(self._free) <= self.gc_reserve:
            return   # only with headroom: forced moves may gain no space
        spread = int(self.erase_count.max() - self.erase_count.min())
        if spread <= self.wear_level_threshold:
            return
        candidates = np.where(self.is_closed)[0]
        candidates = candidates[candidates != self._open_sb]
        if candidates.size == 0:
            return
        coldest = int(candidates[np.argmin(self.erase_count[candidates])])
        if self.erase_count[coldest] >= self.erase_count.max():
            return
        self._collect_one(result, coldest)
        self.wear_level_moves += 1

    def _pick_victim(self) -> int:
        """Greedy victim: the closed superblock with fewest valid pages.

        The current open superblock is excluded even when it is already
        flagged closed mid-roll: relocating the superblock GC is about
        to append into would corrupt the free list.
        """
        candidates = np.where(self.is_closed)[0]
        candidates = candidates[candidates != self._open_sb]
        if candidates.size == 0:
            raise ConfigError("GC invoked with no closed superblocks")
        return int(candidates[np.argmin(self.valid_count[candidates])])

    def _collect_one(self, result: FtlOpResult, victim: int) -> None:
        start = victim * self.superblock_pages
        span = self.p2l[start:start + self.superblock_pages]
        live_lpns = span[span != NO_PAGE]
        nlive = int(live_lpns.size)
        if self.obs.enabled:
            self.obs.emit(GcStart(t=self.clock, device=self.owner,
                                  victim=victim, valid_pages=nlive))
        if nlive:
            # Relocation: invalidate the victim's copies, then re-append.
            self.p2l[start:start + self.superblock_pages] = NO_PAGE
            self.valid_count[victim] = 0
            self.is_closed[victim] = False  # not a GC candidate while empty
            self._append(live_lpns.copy())
            result.gc_read_pages += nlive
            result.gc_prog_pages += nlive
            self.counters.gc_pages_copied += nlive
        else:
            self.valid_count[victim] = 0
            self.is_closed[victim] = False
        self.erase_count[victim] += 1
        self.counters.superblock_erases += 1
        result.erases += 1
        self._free.append(victim)
        if self.obs.enabled:
            self.obs.emit(Erase(t=self.clock, device=self.owner,
                                superblock=victim,
                                erase_count=int(self.erase_count[victim])))
            self.obs.emit(GcEnd(t=self.clock, device=self.owner,
                                victim=victim, moved_pages=nlive))

    def _append(self, lpns: np.ndarray) -> None:
        """GC relocation: append ``lpns`` at the log head, superblock by
        superblock.  It must not recurse into GC, so a full superblock
        closes and the next free one opens directly."""
        sbp = self.superblock_pages
        while lpns.size:
            room = sbp - self._wp
            if room == 0:
                self.is_closed[self._open_sb] = True
                self._open_fresh()
                continue
            chunk = lpns[:room]
            n = chunk.size
            base = self._open_sb * sbp + self._wp
            self.l2p[chunk] = np.arange(base, base + n, dtype=np.int64)
            self.p2l[base:base + n] = chunk
            self.valid_count[self._open_sb] += n
            self._wp += n
            lpns = lpns[room:]

    def _open_fresh(self) -> None:
        """Make the next free superblock the log head."""
        if not self._free:
            raise ConfigError("free-superblock invariant violated: "
                              "GC reserve exhausted")
        self._open_sb = self._free.pop()
        self.is_closed[self._open_sb] = False
        self._wp = 0

    # ------------------------------------------------------------------
    # invariants (used by property-based tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal state is inconsistent."""
        lpns = np.where(self.l2p != NO_PAGE)[0]
        assert self._mapped == lpns.size, \
            f"mapped counter {self._mapped} != l2p scan {lpns.size}"
        mapped = self.l2p[lpns]
        assert mapped.size == np.unique(mapped).size, \
            "two logical pages map to one physical page"
        assert np.array_equal(self.p2l[mapped], lpns), \
            "l2p/p2l are not inverse"
        live_per_sb = np.zeros(self.n_superblocks, dtype=np.int64)
        phys_live = np.where(self.p2l != NO_PAGE)[0]
        sbs, counts = np.unique(phys_live // self.superblock_pages,
                                return_counts=True)
        live_per_sb[sbs] = counts
        assert np.array_equal(live_per_sb, self.valid_count), \
            "valid_count does not match p2l"
        for sb in self._free:
            assert self.valid_count[sb] == 0, f"free superblock {sb} has data"
        free = set(self._free)
        assert len(free) == len(self._free), "duplicate free-list entries"
        closed = set(np.where(self.is_closed)[0])
        assert not (free & closed), "superblock both free and closed"
        assert self._open_sb not in free, "open superblock in free list"
        assert self._open_sb not in closed, "open superblock marked closed"
        lost = (set(range(self.n_superblocks)) - free - closed
                - {self._open_sb})
        assert not lost, f"leaked superblocks: {sorted(lost)[:8]}"
