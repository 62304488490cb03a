#!/usr/bin/env python
"""Failure drill: silent corruption, SSD loss, rebuild, crash recovery.

Walks through every failure mode the paper's §4.1 design handles:

1. silent data corruption detected by checksums and repaired via
   parity (dirty data) or origin re-fetch (NPC clean data);
2. a fail-stop SSD: degraded reads reconstruct from the stripe;
3. online rebuild: a hot spare takes the dead drive's slot and is
   reconstructed from parity in the background;
4. power failure: the MS/ME metadata scan restores both clean and
   dirty mappings, discarding torn segments.

Run:  python examples/failure_drill.py
"""

from repro import (PrimaryStorage, RepairConfig, SATA_MLC_128, SSDDevice,
                   SrcCache, SrcConfig, precondition, recover)
from repro.common.units import GIB, MIB, PAGE_SIZE
from repro.faults import FaultInjector, FaultPlan

SCALE = 1 / 64


def build_cache():
    spec = SATA_MLC_128.scaled(SCALE)
    drives = [SSDDevice(spec, name=f"ssd{i}") for i in range(5)]
    for drive in drives:
        precondition(drive, fill_fraction=0.985)
    # The four members sit behind fault injectors so the drill can kill
    # one under I/O; the fifth drive waits as the hot spare.
    ssds = [FaultInjector(drive, name=drive.name) for drive in drives[:4]]
    origin = PrimaryStorage()
    config = SrcConfig(cache_space=18 * GIB,
                       repair=RepairConfig(hot_spares=1)).scaled(SCALE)
    return SrcCache(ssds, origin, config, spares=drives[4:])


def fill(cache, blocks, dirty=True):
    now = 0.0
    for i in range(blocks):
        if dirty:
            now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
        else:
            now = cache.read(i * PAGE_SIZE, PAGE_SIZE, now + 1e-3)
    return now


def main() -> None:
    cache = build_cache()
    segment_blocks = cache.layout.dirty_segment_capacity()
    now = fill(cache, segment_blocks * 4)
    print(f"cached {cache.mapping.valid_blocks()} dirty blocks across "
          f"{cache.srcstats.segment_writes} segments")

    # --- 1. silent corruption ---------------------------------------
    victim_entry = cache.mapping.lookup(0)
    bad_ssd = cache.ssds[victim_entry.location.ssd]
    bad_ssd.inject_corruption(victim_entry.location.offset, PAGE_SIZE)
    now = cache.read(0, PAGE_SIZE, now + 1.0)
    print(f"\n[corruption] checksum mismatch on {bad_ssd.name}: "
          f"repaired={cache.srcstats.corruption_repairs}, "
          f"via parity={cache.srcstats.parity_reconstructions}, "
          f"data loss={cache.srcstats.unrecoverable_errors}")

    # --- 2. fail-stop SSD + degraded reads --------------------------
    now = cache.flush(now)    # persist the re-logged block: nothing
    #                           but the read below touches the drives
    entry = cache.mapping.lookup(5)
    slot = entry.location.ssd
    failed = cache.ssds[slot]
    failed.plan = FaultPlan().fail_stop(at=now)   # dies at its next I/O
    now = cache.read(5 * PAGE_SIZE, PAGE_SIZE, now + 1.0)
    print(f"\n[ssd loss] {failed.name} failed; degraded reads="
          f"{cache.srcstats.degraded_reads} "
          f"(reconstructed from the other 3 drives)")

    # --- 3. online rebuild onto the hot spare -----------------------
    # SRC swapped the spare into the slot when the read above hit the
    # dead drive; the rebuild advances whenever the cache is pumped
    # (every foreground request does), throttled to rebuild_rate.
    spare = cache.ssds[slot]
    while cache.repair.jobs:
        now += 0.01
        cache.repair.pump(now)
    done = now
    print(f"[rebuild] {spare.name} took {failed.name}'s slot: "
          f"{cache.srcstats.rebuild_units} units rebuilt in "
          f"{cache.srcstats.mttr_s:.2f} simulated seconds "
          f"({spare.stats.write_bytes // MIB} MiB rewritten)")

    # --- 4. crash and recover ---------------------------------------
    cache.write(999_999 * PAGE_SIZE, PAGE_SIZE, done + 1.0)  # unpersisted
    recovered, report = recover(cache.ssds, cache.origin, cache.config,
                                cache.metadata)
    print(f"\n[power failure] metadata scan: "
          f"{report.segments_recovered} segments recovered, "
          f"{report.segments_discarded} torn segments discarded, "
          f"{report.blocks_recovered} blocks "
          f"({report.dirty_blocks} dirty / {report.clean_blocks} clean) "
          f"in {report.elapsed * 1000:.1f} simulated ms")
    print(f"unpersisted buffered write survived: "
          f"{recovered.mapping.lookup(999_999) is not None} (expected False)")
    print(f"dirty block 0 survived: "
          f"{recovered.mapping.lookup(0) is not None} (expected True)")


if __name__ == "__main__":
    main()
