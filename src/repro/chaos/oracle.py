"""End-to-end integrity oracle (chaos pillar 1).

The simulator identifies a block's content by ``(lba, version)`` and
derives its checksum from that identity
(:func:`repro.common.checksum.block_checksum`).  The oracle exploits
this: by watching nothing but the *application request stream*, it
maintains a shadow map of the version — and therefore the expected
checksum — every LBA must have, plus the durability floor the stack
has acknowledged for it.  Any stack state (a live cache, a recovered
cache, a rebuilt cluster) can then be audited block by block:

* a mapping entry whose stored checksum does not match its own
  ``(lba, version)`` identity is corruption or a torn replay;
* a mapping entry whose version exceeds the write count the
  application ever issued is a misdirected or replayed write;
* a durably-acknowledged dirty version that is neither mapped dirty
  anywhere nor proven destaged to the origin is **silent data loss**.

Durable acknowledgement follows the write-back contract: a dirty write
is only *durable* once its block left the RAM dirty buffer under an
operation that completed normally (the segment sealed).  Blocks that
were only RAM-acknowledged may be lost by a crash; the oracle never
charges those.

The oracle is deliberately stack-agnostic: it holds no reference to
the cache and is fed through three narrow entry points
(:meth:`note_write`, :meth:`note_result`, :meth:`sweep_sealed`), so
the same instance audits a single SRC stack, a sharded cluster, or a
batched-engine run (via :meth:`note_chunk`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.common.checksum import block_checksum
from repro.common.errors import ReproError
from repro.common.units import PAGE_SIZE


class OracleViolation(ReproError):
    """The stack's state contradicts the request stream."""


class IntegrityOracle:
    """Shadow content map + durability floor, fed from requests alone."""

    def __init__(self) -> None:
        # lba -> the version the newest acknowledged content should
        # carry: the application writes issued, less the rewrites the
        # oracle believes were absorbed in RAM.
        self.expected: Dict[int, int] = {}
        # lba -> application writes ever issued.  No version can exceed
        # it, whatever was absorbed: a write the oracle took for a
        # rewrite of a buffered block is a new version when TWAIT
        # sealed the buffer inside that very submit.
        self.issued: Dict[int, int] = {}
        # lba -> version that was durably acknowledged (sealed).
        self.durable: Dict[int, int] = {}
        # Writes acknowledged into RAM whose segment has not sealed.
        self._ram_acked: Set[int] = set()
        # LBAs whose dirty loss was *declared* (e.g. a failed shard
        # reported lost dirty blocks) — the loss is accounted, loud,
        # and therefore not silent.
        self.forgiven: Set[int] = set()
        self.writes_seen = 0
        self.blocks_audited = 0

    # ------------------------------------------------------------------
    # feeding (request stream)
    # ------------------------------------------------------------------
    def note_write(self, lba: int) -> None:
        """An application WRITE for ``lba`` was issued.

        The write supersedes the block's durable claim: its newest
        version now lives only in RAM, and write-back caching is
        allowed to lose a RAM-only version.  The claim returns when
        the new version seals (:meth:`sweep_sealed`).

        A write to a block still sitting in a dirty buffer is an
        *absorbed rewrite*: the cache coalesces it in RAM without a
        new version (content identity is unchanged), so the shadow
        counter must not advance either.  ``_ram_acked`` tracks
        exactly that window — written, and not yet seen leaving the
        buffer by :meth:`sweep_sealed`.
        """
        self.writes_seen += 1
        self.issued[lba] = self.issued.get(lba, 0) + 1
        if lba in self._ram_acked:
            return   # absorbed rewrite: same version, still RAM-only
        self.expected[lba] = self.expected.get(lba, 0) + 1
        self._ram_acked.add(lba)
        self.durable.pop(lba, None)
        self.forgiven.discard(lba)

    def note_chunk(self, rows, count: Optional[int] = None) -> None:
        """Vector :meth:`note_write` over a CHUNK_DTYPE array prefix."""
        from repro.common.chunks import OP_WRITE
        n = rows.shape[0] if count is None else count
        ops = rows["op"][:n]
        offsets = rows["offset"][:n]
        for i in range(n):
            if ops[i] == OP_WRITE:
                self.note_write(int(offsets[i]) // PAGE_SIZE)

    def sweep_sealed(self, in_dirty_buffer: Callable[[int], bool]) -> None:
        """Promote RAM-acked writes whose block left the dirty buffer.

        Call after each *completed* operation with a predicate that
        answers "is this lba still in a RAM dirty buffer?" (for a
        cluster: in any shard's).  A block that left the buffer under a
        completed op sealed durably; its current expected version
        becomes the durability floor.  Never call after an operation
        that raised — a crash mid-seal leaves those writes RAM-only.
        """
        for lba in [b for b in self._ram_acked if not in_dirty_buffer(b)]:
            self._ram_acked.discard(lba)
            self.durable[lba] = self.expected[lba]

    def forgive(self, lbas: Iterable[int]) -> None:
        """Accept a *declared* dirty loss (reported, not silent)."""
        for lba in lbas:
            self.forgiven.add(lba)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def expected_checksum(self, lba: int) -> int:
        """The checksum the newest acknowledged content must carry."""
        return block_checksum(lba, self.expected.get(lba, 0))

    @property
    def durable_lbas(self) -> List[int]:
        return sorted(self.durable)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify_entry(self, lba: int, entry,
                     exact_versions: bool = True) -> List[str]:
        """Audit one mapping entry against the shadow map."""
        problems = []
        if entry.checksum != block_checksum(lba, entry.version):
            problems.append(
                f"lba {lba}: stored checksum {entry.checksum:#x} does "
                f"not match identity (version {entry.version})")
        if exact_versions and entry.version > self.issued.get(lba, 0):
            problems.append(
                f"lba {lba}: mapped version {entry.version} exceeds "
                f"{self.issued.get(lba, 0)} application writes")
        return problems

    def verify_cache(self, cache, exact_versions: bool = True) -> List[str]:
        """Audit every mapping entry of one SRC cache."""
        problems: List[str] = []
        for lba, entry in cache.mapping.items():
            self.blocks_audited += 1
            problems.extend(self.verify_entry(lba, entry,
                                              exact_versions=exact_versions))
        return problems

    def verify_durability(self, caches, origin_written_pages,
                          exact_versions: bool = True) -> List[str]:
        """No durably-acknowledged dirty version may be silently lost.

        ``caches`` is the post-event population (one recovered cache,
        or every shard of a rebuilt cluster); ``origin_written_pages``
        is the destage proof — the page set an origin injector with
        ``record_writes=True`` accumulated (page presence proves the
        block reached primary storage before the event).
        """
        problems: List[str] = []
        caches = list(caches)
        for lba in sorted(self.durable):
            if lba in self.forgiven:
                continue
            floor = self.durable[lba]
            held = False
            for cache in caches:
                if lba in cache.dirty_buf:
                    held = True
                    break
                entry = cache.mapping.lookup(lba)
                if entry is not None and entry.dirty:
                    if exact_versions and entry.version < floor:
                        continue   # stale incarnation, keep looking
                    held = True
                    break
            if held:
                continue
            if (origin_written_pages is not None
                    and lba in origin_written_pages):
                continue   # destaged before the event
            problems.append(
                f"lba {lba}: durably-acked version {floor} lost "
                "(not mapped dirty anywhere, not destaged) — "
                "silent data loss")
        return problems

    def verify_read(self, cache, lba: int) -> List[str]:
        """Audit what a read of ``lba`` on ``cache`` would serve."""
        problems: List[str] = []
        self.blocks_audited += 1
        if lba in cache.dirty_buf or lba in cache.clean_buf \
                or lba in cache.staging:
            return problems   # RAM copy is by construction the newest
        entry = cache.mapping.lookup(lba)
        if entry is None:
            return problems   # served from origin
        problems.extend(self.verify_entry(lba, entry))
        if entry.dirty and entry.version < self.durable.get(lba, 0):
            problems.append(
                f"lba {lba}: read would serve version {entry.version} "
                f"below the durable floor {self.durable.get(lba, 0)}")
        return problems

    def resync(self, caches) -> None:
        """Adopt a post-recovery population as the new baseline.

        Recovery legitimately rolls RAM-only writes back; after the
        durability audit has passed, the shadow map must follow the
        surviving state so a continued workload verifies cleanly.
        """
        self._ram_acked.clear()
        survivors: Dict[int, int] = {}
        for cache in caches:
            for lba, entry in cache.mapping.items():
                survivors[lba] = max(survivors.get(lba, 0), entry.version)
        for lba in list(self.expected):
            self.expected[lba] = survivors.get(lba, 0)
        for lba, version in survivors.items():
            self.expected[lba] = max(self.expected.get(lba, 0), version)
        self.durable = {lba: v for lba, v in self.durable.items()
                        if lba in survivors and lba not in self.forgiven
                        and survivors[lba] >= v}
        self.forgiven.clear()
