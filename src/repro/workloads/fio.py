"""FIO-like synthetic workload generators (paper §3, Tables 2-3, Fig 1).

The paper's microbenchmarks use FIO with a Uniform Random distribution,
4 KiB requests, iodepth 32 and 4 threads; we model outstanding I/O as
one request stream per (thread x queue slot), each closed-loop.

Each generator comes in two shapes over one body: the ``*_chunks``
variant yields :data:`~repro.common.chunks.CHUNK_DTYPE` structured
arrays for the batched engine, and the classic per-request generator is
the same chunks flattened through
:func:`~repro.common.chunks.requests_from_chunk`.  Vector RNG draws
(``rng.integers(0, n, size=k)``) consume the PCG64 bitstream exactly as
k scalar draws do, so the request sequences are bit-identical to the
historical scalar generators — both shapes are constant-memory
iterators, never materializing the full workload.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.chunks import (DEFAULT_CHUNK_REQUESTS, OP_CODE, OP_FLUSH,
                                 OP_READ, OP_WRITE, empty_chunk, make_chunk,
                                 requests_from_chunk)
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import KIB, PAGE_SIZE

# The request size of the read/write mix (the paper's FIO 4 KiB).
MIXED_REQUEST = 4 * KIB


def _with_flushes(chunk: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Insert a FLUSH row after every data row flagged in ``after``."""
    n_flush = int(np.count_nonzero(after))
    if n_flush == 0:
        return chunk
    # Destination of data row i shifts right by the flushes before it.
    n = len(chunk)
    shift = np.zeros(n, dtype=np.int64)
    np.cumsum(after[:-1], out=shift[1:])
    dest = np.arange(n) + shift
    out = empty_chunk(n + n_flush)
    out[dest] = chunk
    flush_dest = dest[after] + 1
    out["time"][flush_dest] = 0.0
    out["offset"][flush_dest] = 0
    out["length"][flush_dest] = 0
    out["op"][flush_dest] = OP_FLUSH
    out["origin"][flush_dest] = chunk["origin"][0]
    out["tenant"][flush_dest] = chunk["tenant"][0]
    return out


def uniform_random_chunks(span: int, request_size: int = 4 * KIB,
                          op: Op = Op.WRITE, seed: int = 0,
                          flush_every: int = 0,
                          chunk_requests: int = DEFAULT_CHUNK_REQUESTS
                          ) -> Iterator[np.ndarray]:
    """Chunked :func:`uniform_random`: same draws, structured arrays."""
    if request_size <= 0 or span < request_size:
        raise ConfigError("span must cover at least one request")
    if chunk_requests <= 0:
        raise ConfigError("chunk_requests must be positive")
    rng = np.random.default_rng(seed)
    slots = max(1, (span - request_size) // PAGE_SIZE + 1)
    op_code = OP_CODE[op]
    issued = 0
    while True:
        offsets = rng.integers(0, slots, size=chunk_requests) * PAGE_SIZE
        chunk = make_chunk(offsets, request_size, op_code)
        if flush_every:
            # ``issued`` carries the cadence across chunk boundaries
            # exactly like the scalar generator's running counter.
            seq = np.arange(issued + 1, issued + chunk_requests + 1)
            chunk = _with_flushes(chunk, seq % flush_every == 0)
            issued += chunk_requests
        yield chunk


def uniform_random(span: int, request_size: int = 4 * KIB,
                   op: Op = Op.WRITE, seed: int = 0,
                   flush_every: int = 0) -> Iterator[Request]:
    """Uniformly random offsets over ``span`` bytes, forever.

    ``flush_every`` inserts a FLUSH after that many data requests
    (Table 3's flush-impact experiment).
    """
    for chunk in uniform_random_chunks(span, request_size, op, seed,
                                       flush_every):
        for request in requests_from_chunk(chunk):
            yield request


def sequential_chunks(span: int, request_size: int = 128 * KIB,
                      op: Op = Op.WRITE, flush_every_bytes: int = 0,
                      chunk_requests: int = DEFAULT_CHUNK_REQUESTS
                      ) -> Iterator[np.ndarray]:
    """Chunked :func:`sequential`: same offsets, structured arrays."""
    if request_size <= 0 or span < request_size:
        raise ConfigError("span must cover at least one request")
    if chunk_requests <= 0:
        raise ConfigError("chunk_requests must be positive")
    op_code = OP_CODE[op]
    offset = 0
    since_flush = 0
    while True:
        # Replay the scalar wrap/flush state machine over one chunk's
        # worth of rows; both conditions depend only on running sums,
        # so a small python loop builds the columns without Requests.
        offsets = np.empty(chunk_requests, dtype=np.int64)
        flush_after = np.zeros(chunk_requests, dtype=bool)
        for i in range(chunk_requests):
            if offset + request_size > span:
                offset = 0
            offsets[i] = offset
            offset += request_size
            since_flush += request_size
            if flush_every_bytes and since_flush >= flush_every_bytes:
                since_flush = 0
                flush_after[i] = True
        yield _with_flushes(make_chunk(offsets, request_size, op_code),
                            flush_after)


def sequential(span: int, request_size: int = 128 * KIB,
               op: Op = Op.WRITE,
               flush_every_bytes: int = 0) -> Iterator[Request]:
    """Sequential stream wrapping around ``span``, forever.

    ``flush_every_bytes`` issues a FLUSH after each that-many bytes
    (the paper flushes each 512 KiB of sequential writes in Table 3).
    """
    for chunk in sequential_chunks(span, request_size, op,
                                   flush_every_bytes):
        for request in requests_from_chunk(chunk):
            yield request


def mixed(span: int, read_fraction: float, seed: int = 0
          ) -> Iterator[Request]:
    """Uniform random mix of 4 KiB reads and writes.

    Kept scalar: the historical generator alternates offset and
    read/write draws per request, an RNG consumption order a columnar
    generator cannot reproduce.  :func:`mixed_chunks` is the chunked
    equivalent with its own (batch-order) draw sequence.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError("read_fraction must be in [0,1]")
    rng = np.random.default_rng(seed)
    slots = max(1, (span - MIXED_REQUEST) // PAGE_SIZE + 1)
    while True:
        offset = int(rng.integers(0, slots)) * PAGE_SIZE
        op = Op.READ if rng.random() < read_fraction else Op.WRITE
        yield Request(op, offset, MIXED_REQUEST)


def mixed_chunks(span: int, read_fraction: float,
                 seed: int = 0) -> Iterator[np.ndarray]:
    """Chunked uniform random read/write mix.

    Draws offsets then ops column-wise per chunk, so the sequence
    differs from :func:`mixed` (documented there); within the chunked
    world it is the single source both engine paths share.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError("read_fraction must be in [0,1]")
    if span < MIXED_REQUEST:
        raise ConfigError("span must cover at least one request")
    rng = np.random.default_rng(seed)
    slots = max(1, (span - MIXED_REQUEST) // PAGE_SIZE + 1)
    while True:
        offsets = (rng.integers(0, slots, size=DEFAULT_CHUNK_REQUESTS)
                   * PAGE_SIZE)
        reads = rng.random(DEFAULT_CHUNK_REQUESTS) < read_fraction
        chunk = make_chunk(offsets, MIXED_REQUEST, OP_WRITE)
        chunk["op"][reads] = OP_READ
        yield chunk
