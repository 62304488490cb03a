"""SRC free-space reclamation: S2D, Sel-GC, victim policies."""

from dataclasses import replace


from repro.common.units import PAGE_SIZE
from repro.core.config import GcScheme, ReclaimConfig, VictimPolicy

from _stacks import TINY_SRC, make_src


def gc_src(**reclaim):
    """A ``TINY_SRC`` cache under the given reclaim policy knobs."""
    return make_src(replace(TINY_SRC, reclaim=ReclaimConfig(**reclaim)))


def churn(cache, unique_blocks, total_writes, now=0.0, step=1e-4):
    """Round-robin writes over a working set to force SG turnover."""
    for i in range(total_writes):
        block = i % unique_blocks
        now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + step)
    return now


def cache_capacity_blocks(cache):
    return cache.layout.cache_data_capacity_blocks()


def writes_to_fill(cache, factor=2.0):
    return int(cache_capacity_blocks(cache) * factor)


def test_gc_triggers_when_free_groups_low():
    cache = gc_src(gc_scheme=GcScheme.S2D)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    assert cache.srcstats.s2d_collections > 0
    assert cache.free_groups >= 1


def test_s2d_destages_dirty_to_origin():
    cache = gc_src(gc_scheme=GcScheme.S2D)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    assert cache.srcstats.gc_destaged_blocks > 0
    assert cache.origin.stats.write_bytes > 0
    assert cache.srcstats.gc_copied_blocks == 0


def test_sel_gc_copies_dirty_forward():
    # Random writes over a working set below UMAX-utilization: victims
    # hold surviving dirty blocks, which Sel-GC must copy forward.
    import numpy as np
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.95)
    rng = np.random.default_rng(7)
    ws = int(cache_capacity_blocks(cache) * 0.6)
    now = 0.0
    for _ in range(writes_to_fill(cache, 2.0)):
        block = int(rng.integers(0, ws))
        now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    assert cache.srcstats.s2s_collections > 0
    assert cache.srcstats.gc_copied_blocks > 0


def test_sel_gc_falls_back_to_s2d_above_umax():
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.10)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    assert cache.srcstats.s2d_collections > 0


def _mixed_clean_churn(cache, hot_reads=False):
    """Interleave never-re-read clean fills with dirty write churn so
    victims contain cold clean blocks while utilization stays below
    UMAX (writes bound the log turnover)."""
    import numpy as np
    rng = np.random.default_rng(3)
    cap = cache_capacity_blocks(cache)
    write_ws = int(cap * 0.4)
    now = 0.0
    clean_block = 1_000_000
    for i in range(writes_to_fill(cache, 1.5)):
        if i % 4 == 0:
            now = cache.read(clean_block * PAGE_SIZE, PAGE_SIZE,
                             now + 1e-4)
            clean_block += 1
        else:
            block = int(rng.integers(0, write_ws))
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    return now


def test_sel_gc_drops_cold_clean():
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.95)
    _mixed_clean_churn(cache)
    assert cache.srcstats.gc_dropped_clean > 0


def test_sel_gc_keeps_hot_clean():
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.95)
    hot_blocks = 32
    now = 0.0
    # Establish a hot clean set by reading it repeatedly between fills.
    filler = 10_000
    for round_ in range(cache_capacity_blocks(cache) * 2 // 64):
        for i in range(hot_blocks):
            now = cache.read(i * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
        for j in range(64):
            block = filler + round_ * 64 + j
            now = cache.read(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    # The hot set should still be cached (hits, not refetches).
    hits_before = cache.cstats.read_hits
    for i in range(hot_blocks):
        now = cache.read(i * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    assert cache.cstats.read_hits - hits_before >= hot_blocks // 2


def test_fifo_picks_oldest_group():
    cache = gc_src(victim_policy=VictimPolicy.FIFO)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.2))
    first_closed = cache.segments._closed_fifo[0]
    victim = cache.reclaimer.pick_victim()
    assert victim == first_closed


def test_greedy_picks_least_valid_group():
    cache = gc_src(victim_policy=VictimPolicy.GREEDY)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.2))
    victim = cache.reclaimer.pick_victim()
    counts = {sg: cache.mapping.sg_valid_count(sg)
              for sg in cache.segments._closed_fifo}
    assert counts[victim] == min(counts.values())


def test_reclaimed_group_is_trimmed():
    cache = gc_src(gc_scheme=GcScheme.S2D)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    assert all(s.stats.trim_ops > 0 for s in cache.ssds)


def test_gc_survives_full_dirty_hot_cache():
    """The S2S no-progress guard: all-dirty victims must not livelock."""
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.99)
    churn(cache, cache_capacity_blocks(cache),
          writes_to_fill(cache, 2.2))
    assert cache.free_groups >= 1
    cache.mapping.check_invariants()


def test_blind_s2s_ablation_copies_clean():
    cache = gc_src(gc_scheme=GcScheme.SEL_GC, u_max=0.95,
                   hotness_aware=False)
    _mixed_clean_churn(cache)
    assert cache.srcstats.gc_dropped_clean == 0
    assert cache.srcstats.gc_copied_blocks > 0


def test_mapping_consistent_after_heavy_churn():
    cache = make_src()
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    cache.mapping.check_invariants()
    for ssd in cache.ssds:
        ssd.ftl.check_invariants()


def test_cost_benefit_victim_policy():
    """§6 extension: cost-benefit blends age and utilization."""
    cache = gc_src(victim_policy=VictimPolicy.COST_BENEFIT)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.2))
    victim = cache.reclaimer.pick_victim()
    scores = {sg: cache.reclaimer.cost_benefit_score(sg)
              for sg in cache.segments._closed_fifo}
    assert scores[victim] == max(scores.values())


def test_cost_benefit_prefers_old_empty_groups():
    cache = gc_src(victim_policy=VictimPolicy.COST_BENEFIT)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.2))
    # An old empty group must outscore a fresh full one.
    old_sg = cache.segments._closed_fifo[0]
    new_sg = cache.segments._closed_fifo[-1]
    cache.mapping.drop_sg(old_sg)     # make it empty
    score = cache.reclaimer.cost_benefit_score
    assert score(old_sg) > score(new_sg)


def test_cost_benefit_runs_end_to_end():
    cache = gc_src(victim_policy=VictimPolicy.COST_BENEFIT)
    churn(cache, cache_capacity_blocks(cache) * 2,
          writes_to_fill(cache, 1.8))
    assert cache.free_groups >= 1
    cache.mapping.check_invariants()
