"""Workload generators: FIO, Zipf, synthetic MSR traces, replayer."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.chunks import requests_from_chunk
from repro.common.errors import ConfigError
from repro.common.types import Op
from repro.common.units import GB, KB, KIB, MIB, PAGE_SIZE
from repro.workloads import fio
from repro.workloads.msr import (GROUPS, TRACES, SyntheticTrace,
                                 build_group, build_group_chunks)
from repro.workloads.zipf import ZipfSampler


def take(it, n):
    return list(itertools.islice(it, n))


# ------------------------------------------------------------------
# FIO generators
# ------------------------------------------------------------------
def test_uniform_random_within_span():
    reqs = take(fio.uniform_random(1 * MIB, 4 * KIB, seed=1), 500)
    assert all(0 <= r.offset and r.end <= 1 * MIB for r in reqs)
    assert all(r.op is Op.WRITE for r in reqs)


def test_uniform_random_is_aligned():
    reqs = take(fio.uniform_random(1 * MIB, 4 * KIB, seed=1), 100)
    assert all(r.offset % PAGE_SIZE == 0 for r in reqs)


def test_uniform_random_flush_interleave():
    reqs = take(fio.uniform_random(1 * MIB, 4 * KIB, flush_every=4), 10)
    assert reqs[4].op is Op.FLUSH
    assert reqs[9].op is Op.FLUSH


def test_uniform_random_rejects_small_span():
    with pytest.raises(ConfigError):
        take(fio.uniform_random(1024, 4096), 1)


def test_sequential_wraps():
    reqs = take(fio.sequential(64 * KIB, 16 * KIB), 6)
    assert [r.offset for r in reqs] == [0, 16 * KIB, 32 * KIB, 48 * KIB,
                                        0, 16 * KIB]


def test_sequential_flush_every_bytes():
    reqs = take(fio.sequential(1 * MIB, 128 * KIB,
                               flush_every_bytes=256 * KIB), 9)
    flushes = [i for i, r in enumerate(reqs) if r.op is Op.FLUSH]
    assert flushes == [2, 5, 8]


@pytest.mark.parametrize("chunks,scalar", [
    (lambda k: fio.uniform_random_chunks(1 * MIB, seed=3, flush_every=3,
                                         chunk_requests=k),
     lambda: fio.uniform_random(1 * MIB, seed=3, flush_every=3)),
    (lambda k: fio.sequential_chunks(1 * MIB, flush_every_bytes=384 * KIB,
                                     chunk_requests=k),
     lambda: fio.sequential(1 * MIB, flush_every_bytes=384 * KIB)),
], ids=["uniform_random", "sequential"])
def test_flush_rows_carry_across_chunk_boundaries(chunks, scalar):
    """Five-row chunks put FLUSH rows after a chunk's last row and at
    the next one's head; flattened, they are the per-request stream."""
    small = [(r.op, r.offset, r.length) for chunk in take(chunks(5), 8)
             for r in requests_from_chunk(chunk)]
    want = [(r.op, r.offset, r.length) for r in take(scalar(), len(small))]
    assert small == want
    flushes = [i for i, (op, _, _) in enumerate(small) if op is Op.FLUSH]
    assert flushes == list(range(3, len(small), 4)) and len(flushes) == 13


def test_mixed_ratio():
    reqs = take(fio.mixed(1 * MIB, read_fraction=0.7, seed=3), 3000)
    read_frac = sum(r.op is Op.READ for r in reqs) / len(reqs)
    assert read_frac == pytest.approx(0.7, abs=0.05)


# ------------------------------------------------------------------
# Zipf sampler
# ------------------------------------------------------------------
def test_zipf_in_range():
    sampler = ZipfSampler(1000, seed=1)
    samples = sampler.sample_many(5000)
    assert samples.min() >= 0 and samples.max() < 1000


def test_zipf_skew_concentrates_mass():
    sampler = ZipfSampler(10_000, theta=1.2, seed=1, shuffle=False)
    samples = sampler.sample_many(20_000)
    top_decile_hits = np.count_nonzero(samples < 1000)
    assert top_decile_hits / 20_000 > 0.7


def test_zipf_theta_zero_is_uniform():
    sampler = ZipfSampler(1000, theta=0.0, seed=1, shuffle=False)
    samples = sampler.sample_many(50_000)
    top_decile = np.count_nonzero(samples < 100) / 50_000
    assert top_decile == pytest.approx(0.1, abs=0.02)


def test_zipf_shuffle_spreads_hot_items():
    plain = ZipfSampler(1000, theta=1.2, seed=5, shuffle=False)
    shuffled = ZipfSampler(1000, theta=1.2, seed=5, shuffle=True)
    counts = [np.bincount(s.sample_many(50_000), minlength=1000)
              for s in (plain, shuffled)]
    # Hot mass alike, placement different: the plain sampler's hottest
    # items are its lowest ranks, the shuffled one's are spread out.
    hot = [np.sort(c)[::-1][:100].sum() / 50_000 for c in counts]
    assert hot[0] == pytest.approx(hot[1], abs=0.02)
    assert counts[0][:100].sum() / 50_000 == pytest.approx(hot[0], abs=0.01)
    assert counts[1][:100].sum() < counts[0][:100].sum() / 2


def test_zipf_rejects_bad_params():
    with pytest.raises(ConfigError):
        ZipfSampler(0)
    with pytest.raises(ConfigError):
        ZipfSampler(10, theta=-1)


@given(st.integers(1, 5000), st.floats(0, 2), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_zipf_sample_always_valid(n, theta, seed):
    sampler = ZipfSampler(n, theta, seed=seed)
    for _ in range(5):
        assert 0 <= sampler.sample() < n


# ------------------------------------------------------------------
# MSR synthetic traces
# ------------------------------------------------------------------
def test_table6_complete():
    assert len(TRACES) == 22
    assert len(GROUPS["write"]) == 10
    assert len(GROUPS["mixed"]) == 7
    assert len(GROUPS["read"]) == 5


def test_trace_mean_request_size_matches_spec():
    spec = TRACES["exch9"]   # 21.06 KB mean
    trace = SyntheticTrace(spec, scale=1 / 128, seed=2)
    reqs = take(trace.requests(), 5000)
    mean_kb = sum(r.length for r in reqs) / len(reqs) / KB
    assert mean_kb == pytest.approx(spec.req_size_kb, rel=0.25)


def test_trace_read_ratio_matches_spec():
    spec = TRACES["proj3"]   # 87% reads
    trace = SyntheticTrace(spec, scale=1 / 128, seed=2)
    reqs = take(trace.requests(), 5000)
    ratio = sum(r.op is Op.READ for r in reqs) / len(reqs)
    assert ratio == pytest.approx(spec.read_ratio, abs=0.03)


def test_trace_respects_region():
    spec = TRACES["mds0"]
    trace = SyntheticTrace(spec, region_start=1 * MIB, scale=1 / 256,
                           seed=0)
    reqs = take(trace.requests(), 2000)
    assert all(r.offset >= 1 * MIB for r in reqs)
    assert all(r.end <= 1 * MIB + trace.footprint for r in reqs)


def test_trace_requests_aligned():
    trace = SyntheticTrace(TRACES["fin0"], scale=1 / 256, seed=0)
    reqs = take(trace.requests(), 500)
    assert all(r.offset % PAGE_SIZE == 0 for r in reqs)
    assert all(r.length % PAGE_SIZE == 0 for r in reqs)


def test_trace_has_sequential_runs():
    spec = TRACES["src21"]   # 59 KB requests -> scan heavy
    trace = SyntheticTrace(spec, scale=1 / 64, seed=1)
    reqs = take(trace.requests(), 2000)
    sequential = sum(1 for a, b in zip(reqs, reqs[1:])
                     if b.offset == a.end)
    assert sequential / len(reqs) > 0.4


def test_group_working_set_normalized():
    # Each group's aggregate footprint lands near the ~50 GB target
    # (scaled down with everything else).
    for group in GROUPS:
        _, span = build_group_chunks(group, scale=1 / 256)
        assert span == pytest.approx(50 * GB / 256, rel=0.1)


def test_build_group_stream_count_and_span():
    streams, span = build_group("read", scale=1 / 256,
                                threads_per_trace=4)
    assert len(streams) == 4 * len(GROUPS["read"])
    assert span == build_group_chunks("read", scale=1 / 256)[1]


def test_build_group_unknown_group():
    with pytest.raises(ConfigError):
        build_group("nope")
