"""The window's three per-offer / scalar-bound cuts, edge by edge.

``Lane`` derives the previous-row index (``Lane.prev``) once per
offer, builds the TWAIT column only when ``_last_dirty_write`` cannot
rule a flush out, and asks ``TenantRegistry.refusals`` only when
``TenantRegistry.can_refuse`` cannot rule a refusal out.  All three are
exact, so every test here is a differential against the per-request
path, on the inputs where a wrong cut (``prev <= lo``, a bound that
forgets ``_last_dirty_write``, ``>`` for ``>=`` at a cap, a stale volume
map) would give a different answer; ``paths()`` says which side of each
bound a run was on.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.common.chunks import OP_WRITE, make_chunk, requests_from_chunk
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.buffers import RAM_LATENCY
from repro.core.window import Lane
from repro.obs import collect
from repro.tenancy import QosSpec

from _stacks import TINY_SRC, make_src
from test_engine_batched import (_CAPACITY, _assert_cluster_equal,
                                 _assert_src_state_equal,
                                 _cluster_differential, _declines,
                                 _differential, _make_cluster, _share,
                                 _tagged_chunks, _tenant_differential,
                                 _tenant_stack)

INF = float("inf")
SPACE = make_src().dirty_buf.capacity      # new blocks per segment


def _chunks(blocks, tenant=-1):
    return [iter([make_chunk(np.asarray(blocks) * PAGE_SIZE, PAGE_SIZE,
                             OP_WRITE, tenant=tenant)])]


def _offer_once(make, rows, start=0.0, think=0.0, deadline=INF, limit=0,
                names=None, equal=_assert_src_state_equal):
    """One ``submit_chunk`` offer on a fresh target against the
    per-request loop under the same closed-loop rules on another:
    rows served, their times, the state and ``collect()`` must agree.
    Returns the chunked target and the row count."""
    chunked, scalar = make(), make()
    issue_t, done_t, n = chunked.submit_chunk(rows, start, think, deadline,
                                              limit)
    t, issued, done = start, [], []
    for req in requests_from_chunk(rows[:limit or len(rows)], names):
        if t >= deadline:
            break
        issued.append(t)
        done.append(scalar.submit(req, t))
        t = done[-1] + think
    assert n == len(issued)
    assert (issue_t.tolist(), done_t.tolist()) == (issued, done)
    equal(scalar, chunked)
    assert collect(chunked) == collect(scalar)
    return chunked, n


# ----------------------------------------------------------------------
# the previous-row index
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_lane_prev_finds_np_uniques_first_occurrences(seed):
    """Any slice ``[lo, lo + n)`` of a lane's rows: those whose previous
    row lies before ``lo`` are the ones ``np.unique`` returns."""
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, rng.choice([1, 3, 40, 5000]), size=700)
    prev = Lane(make_src().window, blocks).prev
    for i in np.flatnonzero(prev >= 0):
        assert prev[i] < i and blocks[prev[i]] == blocks[i]
        assert blocks[i] not in blocks[prev[i] + 1:i]
    for lo, n in rng.integers(0, 350, size=(40, 2)):
        want = np.zeros(n, dtype=bool)
        want[np.unique(blocks[lo:lo + n], return_index=True)[1]] = True
        assert ((prev[lo:lo + n] < lo) == want).all()


def _rewrite_across_a_seal(pool):
    """Block X twice at the head (the second absorbed: its previous row
    *is* the sub-run's first), a segment's worth of others, then X
    twice more behind the seal (an add again, then absorbed)."""
    x, rest = pool[0], pool[1:]
    return [x, x, *rest[:SPACE - 1], x, x, *rest[SPACE - 1:SPACE + 30], x]


def test_block_rewritten_across_a_seal_and_inside_a_sub_run():
    rows = _rewrite_across_a_seal(list(range(100, 100 + 2 * SPACE)))
    result, cache = _differential(make_src, lambda: _chunks(rows),
                                  _assert_src_state_equal)
    paths = cache.window.paths()
    assert cache.srcstats.segment_writes == paths["boundary_rows"] == 1
    assert paths["vector_rows"] == len(rows) - 1
    # X: added, absorbed | sealed | added over its mapped copy, absorbed.
    assert cache.cstats.write_hits == 4
    assert len(cache.dirty_buf) == 31 + 1


def test_rewrites_across_seals_on_two_interleaved_lanes():
    """The same on each lane of a router, the lanes' rows alternating
    and their seals falling at different rows of the slice."""
    router = _make_cluster()
    blocks = np.arange(0, 64 * SPACE)
    owner = router.ring.owners(blocks // router.config.slab_blocks)
    slots = sorted(router.shards)
    a, b = (_rewrite_across_a_seal(blocks[owner == s].tolist())
            for s in slots)
    b = b[40:] + b[:40]         # b seals elsewhere, rewrites elsewhere
    rows = [blk for pair in zip(a, b) for blk in pair]
    result, router, share = _cluster_differential(lambda: _chunks(rows))
    for slot in slots:
        shard = router.shards[slot]
        assert shard.srcstats.segment_writes == 1
        assert shard.cstats.write_hits >= 3
        assert shard.window.paths()["boundary_rows"] == 1
    assert share == (len(rows) - 2) / len(rows)


# ----------------------------------------------------------------------
# TWAIT
# ----------------------------------------------------------------------
T_WAIT = TINY_SRC.t_wait


def _aged(dirty, t_wait=T_WAIT):
    """A cache whose TWAIT clock reads 0.0, with or without a dirty
    block for a flush to find."""
    def make():
        cache = make_src(replace(TINY_SRC, t_wait=t_wait))
        if dirty:
            cache.submit(Request(Op.WRITE, 7 * PAGE_SIZE, PAGE_SIZE), 0.0)
            cache._last_dirty_write = 0.0
        return cache
    return make


def _rewrites(n):
    """Rewrites of one block: absorbed, so none winds the clock."""
    return make_chunk(np.full(n, 7) * PAGE_SIZE, PAGE_SIZE)


@pytest.mark.parametrize("dirty,start,think,flushes,scanned", [
    (True, 2 * T_WAIT, 0.0, 1, True),     # the lane's first row fires
    (False, 2 * T_WAIT, 0.0, 0, True),    # nothing to flush, says the column
    (True, 0.5 * T_WAIT, 0.0, 0, False),  # inside t_wait: no column
    (True, 0.0, T_WAIT / 30, 1, True),    # ages mid-sub-run
], ids=["first-row", "first-row-empty", "inside", "mid-sub-run"])
def test_twait_fires_where_the_per_request_path_fires(dirty, start, think,
                                                      flushes, scanned):
    cache, n = _offer_once(_aged(dirty), _rewrites(40), start, think)
    assert n == 40
    assert cache.srcstats.timeout_flushes == flushes
    paths = cache.window.paths()
    assert paths["boundary_rows"] == flushes
    assert (paths["twait_scans"] > 0) == scanned


@pytest.mark.parametrize("dirty", [True, False], ids=["dirty", "empty"])
def test_a_row_exactly_t_wait_after_the_clock_does_not_fire(dirty):
    """``t_wait`` set to the very float the 40th row issues at: the
    bound proves 40 rows quiet without a column, and a 41st fires."""
    at = 0.0
    for _ in range(39):
        at += RAM_LATENCY
    make = _aged(dirty, t_wait=at)
    cache, n = _offer_once(make, _rewrites(40))
    assert (n, cache.srcstats.timeout_flushes) == (40, 0)
    assert cache.window.paths()["twait_scans"] == 0
    cache, n = _offer_once(make, _rewrites(41))
    assert (n, cache.srcstats.timeout_flushes) == (41, 1)
    paths = cache.window.paths()
    assert (paths["vector_rows"], paths["boundary_rows"]) == (40, 1)
    assert paths["twait_scans"] == 1


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
@pytest.mark.parametrize("qos_kwargs,qos,rejected", [
    ({}, QosSpec(max_share=_share(40)), 1),
    ({"work_conserving": False}, QosSpec(min_share=_share(40)), 1),
    ({"enforce_shares": False}, QosSpec(max_share=_share(40)), 0),
], ids=["max-share", "no-borrow", "unenforced"])
def test_limit_reached_exactly_at_the_last_row(qos_kwargs, qos, rejected):
    """41 misses of a tenant allowed 40 blocks: only the last row is
    refused, and the scalar bound may not wave the window through."""
    def source(cache, registry):
        base = registry._tenants["edge"].volumes[0].base_block
        return _chunks(base + np.arange(41), tenant=1)
    cache, registry, share = _tenant_differential(
        _tenant_stack([("idle", 4, None), ("edge", 4, qos)], **qos_kwargs),
        source, ["idle", "edge"])
    edge = registry.stats()["edge"]
    assert edge["rejected_blocks"] == rejected
    assert edge["cached_blocks"] == 41 - rejected
    paths = cache.window.paths()
    assert paths["refusal_scans"] == rejected
    assert paths["boundary_rows"] == rejected
    assert paths["vector_rows"] == 41 - rejected


@pytest.mark.parametrize("work_conserving", [True, False])
def test_can_refuse_is_false_only_where_refusals_is_empty(work_conserving):
    """Random windows against a registry near its limits, and the one
    the ``>=`` is for: an asking row behind admitted blocks that bring
    its tenant exactly to its bar."""
    cache, registry = _tenant_stack(
        [("a", 4, QosSpec(min_share=_share(30), max_share=_share(50))),
         ("b", 4, QosSpec(min_share=_share(20), max_share=_share(35)))],
        work_conserving=work_conserving)()
    bar = 50 if work_conserving else 30
    rng = np.random.default_rng(9)
    tenant, proved_empty = registry._tenants["a"], 0

    def occupy(blocks, others=0):
        tenant.occupancy = blocks
        registry._total_occupancy = blocks + others
        registry._total_unmet_reserve = registry._unmet_reserve()

    def asker_behind(grown):
        """``grown + 1`` asking rows of a's."""
        return (np.zeros(grown + 1, dtype=np.int64),
                np.ones(grown + 1, dtype=bool))

    for occupancy in (0, 10, bar - 5, bar - 1):
        occupy(occupancy)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            owner = rng.integers(-1, 2, size=n)
            asks = rng.random(n) < rng.random()
            refused = registry.refusals(owner, asks)
            if not registry.can_refuse(int(np.count_nonzero(asks))):
                proved_empty += 1
                assert refused.shape[0] == 0
        grown = bar - occupancy
        assert registry.refusals(*asker_behind(grown)).tolist() == [grown]
        assert registry.can_refuse(grown)
    assert proved_empty > 20
    if work_conserving:
        # ... or to the array's last unreserved block.
        occupy(40, others=_CAPACITY - 40 - 20 - 5)     # b's 20 set aside
        assert registry.refusals(*asker_behind(5)).tolist() == [5]
        assert registry.can_refuse(5) and not registry.can_refuse(4)


def test_create_volume_after_the_first_offer_moves_the_volume_map():
    """A tenant registered mid-run: the next offer's rows carry its tag
    on its blocks, and conform only if ``owner_index`` has heard."""
    def source(cache, registry):
        yield from _tagged_chunks(registry, [1.0], [2000], seed=3, rows=300)

    def sources(cache, registry):
        def stream():
            first = source(cache, registry)
            yield next(first)
            late = registry.create_volume("late", 8 * MIB)
            assert registry.owner_index(
                np.array([late.base_block - 1, late.base_block,
                          late.base_block + late.blocks])).tolist() == [0, 1,
                                                                        -1]
            yield make_chunk((late.base_block + np.arange(300)) * PAGE_SIZE,
                             PAGE_SIZE, tenant=1)
        return [stream()]

    cache, registry, share = _tenant_differential(
        _tenant_stack([("early", 8, None)]), sources, ["early", "late"])
    assert registry.stats()["late"]["cached_blocks"] == 300
    assert _declines(cache) == {}
    assert share > 0.9


# ----------------------------------------------------------------------
# offers shorter than their rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make,equal", [
    (make_src, _assert_src_state_equal),
    (_make_cluster, _assert_cluster_equal)], ids=["src", "cluster"])
@pytest.mark.parametrize("think", [0.0, 3e-6])
def test_offer_cut_by_deadline_and_by_limit(make, equal, think):
    """The per-offer columns stop at the rows the call can reach; the
    call must still reach every row the per-request loop does."""
    rng = np.random.default_rng(12)
    rows = make_chunk(rng.integers(0, 3 * SPACE, size=4096) * PAGE_SIZE,
                      PAGE_SIZE)
    step = RAM_LATENCY + think
    for deadline, limit, served in ((INF, 100, 100), (50.5 * step, 0, 51),
                                    (50.5 * step, 45, 45),
                                    (700.5 * step, 0, None)):
        target, n = _offer_once(make, rows, 0.0, think, deadline, limit,
                                equal=equal)
        assert n == served or served is None and 32 < n <= 701


# ----------------------------------------------------------------------
# paths(): which side of each bound
# ----------------------------------------------------------------------
def test_paths_count_the_sub_runs_that_built_each_column():
    """The bench's tenant shape builds neither column; and the counters
    are rows of ``paths()`` only — not declines, not in ``collect()``,
    which a chunked and a per-request run must still fill alike."""
    names = [f"tenant{i}" for i in range(4)]
    runs = []

    def stack():
        pair = _tenant_stack([(name, 4, QosSpec(min_share=0.1,
                                                max_share=0.6))
                              for name in names])()
        runs.append(pair[0])
        return pair

    cache, registry, share = _tenant_differential(
        stack, lambda c, r: [_tagged_chunks(r, [0.25] * 4, [1024] * 4,
                                            seed=30, theta=0.99)],
        names, max_requests=20000)
    paths = cache.window.paths()
    assert paths["boundary_rows"] == cache.srcstats.segment_writes > 10
    assert (paths["twait_scans"], paths["refusal_scans"]) == (0, 0)
    assert _declines(cache) == {}
    scalar, chunked = runs
    assert collect(chunked) == collect(scalar)
    assert "twait_scans" not in str(collect(chunked))
