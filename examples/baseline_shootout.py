#!/usr/bin/env python
"""Baseline shootout: SRC vs Bcache5 vs Flashcache5 (Figure 7, live).

Replays one trace group against the three cache targets on identical
hardware (four SSDs; baselines get them as RAID-5 with 4 KiB chunks,
2 MB buckets/sets and 90% writeback thresholds, per §5.4) and prints
the comparison.

Run:  python examples/baseline_shootout.py [write|mixed|read]  (~3 min)
"""

import sys

from repro.baselines.common import WritePolicy
from repro.core.config import GcScheme, ReclaimConfig, SrcConfig
from repro.harness.context import (CACHE_SPACE, ExperimentScale,
                                   build_bcache, build_flashcache,
                                   build_src)
from repro.workloads.replay import replay_group

ES = ExperimentScale(scale=1 / 64, warmup=20.0, duration=6.0)


def main() -> None:
    group = sys.argv[1] if len(sys.argv) > 1 else "write"
    targets = [
        ("SRC", lambda: build_src(
            ES.scale, SrcConfig(cache_space=CACHE_SPACE))),
        ("SRC-S2D", lambda: build_src(
            ES.scale, SrcConfig(
                cache_space=CACHE_SPACE,
                reclaim=ReclaimConfig(gc_scheme=GcScheme.S2D)))),
        ("Bcache5", lambda: build_bcache(
            ES.scale, raid_level=5, policy=WritePolicy.WRITE_BACK,
            writeback_percent=0.90)),
        ("Flashcache5", lambda: build_flashcache(
            ES.scale, raid_level=5, policy=WritePolicy.WRITE_BACK,
            dirty_thresh_pct=0.90)),
    ]
    print(f"trace group: {group}\n")
    print(f"{'scheme':<13} {'MB/s':>8} {'I/O amp':>8} {'hit':>6}")
    print("-" * 40)
    results = {}
    for name, build in targets:
        result = replay_group(build(), group, scale=ES.scale,
                              duration=ES.duration, warmup=ES.warmup,
                              seed=ES.seed)
        results[name] = result
        print(f"{name:<13} {result.throughput_mb_s:8.1f} "
              f"{result.io_amplification:8.2f} {result.hit_ratio:6.2f}")
    factor_bc = results["SRC"].throughput_mb_s / \
        max(results["Bcache5"].throughput_mb_s, 1e-9)
    factor_fc = results["SRC"].throughput_mb_s / \
        max(results["Flashcache5"].throughput_mb_s, 1e-9)
    print(f"\nSRC vs Bcache5: {factor_bc:.1f}x   "
          f"SRC vs Flashcache5: {factor_fc:.1f}x "
          f"(paper: 2.8-3.1x and 2.3-2.8x)")


if __name__ == "__main__":
    main()
