"""Bench: Figure 1 — Bcache/Flashcache over RAID-0/1/4/5."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def test_fig1_raid_levels(benchmark, es):
    result = run_once(benchmark, REGISTRY["fig1"].sweep.run, es)
    emit(result)
    for cache in ("Bcache", "Flashcache"):
        raid0 = result.cell(cache, "RAID-0")
        raid1 = result.cell(cache, "RAID-1")
        raid5 = result.cell(cache, "RAID-5")
        assert raid0 > 0 and raid5 > 0
        # Robust paper shapes: RAID-0 (no redundancy) leads; mirroring
        # costs; parity costs most for 4K random writes.
        assert raid0 >= raid1, f"{cache}: RAID-0 must not lose to RAID-1"
        assert raid1 >= raid5 * 0.9, \
            f"{cache}: parity RAID must not beat mirroring"
    # NOT asserted: the paper's Fig-1 Bcache-vs-Flashcache ordering
    # under parity. In our model Bcache's journal flushes dominate its
    # parity cost (consistent with the paper's own Fig-7 finding that
    # flushes are Bcache's bottleneck), flipping that one ordering;
    # see EXPERIMENTS.md.
