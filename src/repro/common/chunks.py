"""Columnar request chunks — the batch-path request representation.

The batched engine (:mod:`repro.sim.engine`) moves I/O through the
stack as numpy *structured arrays* instead of one
:class:`~repro.common.types.Request` object at a time.  A chunk is a
contiguous array of rows with columns

``time``
    arrival / think hint in seconds (0.0 for closed-loop sources);
``offset`` / ``length``
    byte address and size, exactly :class:`Request`'s fields;
``op`` / ``origin``
    small-integer codes for :class:`~repro.common.types.Op` and
    :class:`~repro.common.types.IoOrigin` (see ``OP_*`` / ``ORIGIN_*``);
``tenant``
    index of the submitting tenant in the *target registry's*
    registration order (``TenantRegistry.tenant_names()``, the table
    ``run_chunk_streams(tenant_names=...)`` callers pass), ``-1`` for
    untagged traffic.

Chunks are the wire format between workload generators
(:func:`repro.workloads.fio.uniform_random_chunks`, ...) and targets
that expose a vectorized ``submit_chunk``.  The scalar path stays the
oracle: :func:`requests_from_chunk` materializes the identical
per-request stream, which is what the differential tests compare
against.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.common.types import (OP_FLUSH, OP_READ, OP_TRIM, OP_WRITE, OPS,
                                ORIGIN_DESTAGE, ORIGIN_FG, ORIGIN_GC,
                                ORIGIN_REBUILD, ORIGIN_SCRUB, ORIGINS,
                                SCALAR_THRESHOLD, IoOrigin, Op, Request)
from repro.common.units import PAGE_SIZE

# The op / origin code tables and SCALAR_THRESHOLD are defined beside
# Op and IoOrigin (repro.common.types, the leaf module IoStats lives
# in) and re-exported here, where every chunk caller imports them from.
__all__ = [
    "CHUNK_DTYPE", "DECLINED", "DEFAULT_CHUNK_REQUESTS", "NO_TENANT",
    "OP_CODE", "OP_FLUSH", "OP_READ", "OP_TRIM", "OP_WRITE", "ORIGIN_CODE",
    "ORIGIN_DESTAGE", "ORIGIN_FG", "ORIGIN_GC", "ORIGIN_REBUILD",
    "ORIGIN_SCRUB", "SCALAR_THRESHOLD", "conformant_mask", "empty_chunk",
    "make_chunk", "op_of", "origin_of", "request_from_row",
    "requests_from_chunk", "run_bounds",
]

# One row per request.  int64 offsets/lengths cover any device size the
# simulator models; uint8 codes keep a 4096-row chunk under 128 KiB.
CHUNK_DTYPE = np.dtype([
    ("time", np.float64),
    ("offset", np.int64),
    ("length", np.int64),
    ("op", np.uint8),
    ("origin", np.uint8),
    ("tenant", np.int16),
])

OP_CODE = {op: code for code, op in enumerate(OPS)}
ORIGIN_CODE = {origin: code for code, origin in enumerate(ORIGINS)}

NO_TENANT = -1

# What a ``submit_chunk`` returns when it serves no row: ``(issue_times,
# done_times, n)`` with ``n == 0``.  Always legal, and it costs the
# stream its next offers: the engine serves SCALAR_THRESHOLD rows from
# the head row on (doubling per consecutive decline, up to
# DEFAULT_CHUNK_REQUESTS) per request before it asks again.
DECLINED = (None, None, 0)

# Default generator granularity: big enough to amortize numpy dispatch,
# small enough that a chunk of row objects stays cache-resident.
DEFAULT_CHUNK_REQUESTS = 4096


def empty_chunk(n: int) -> np.ndarray:
    """An uninitialized chunk of ``n`` rows (callers fill every column)."""
    return np.empty(n, dtype=CHUNK_DTYPE)


def make_chunk(offsets, lengths, op: int = OP_WRITE,
               origin: int = ORIGIN_FG, tenant: int = NO_TENANT,
               times=None) -> np.ndarray:
    """Build a chunk from columns (scalars broadcast)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    chunk = empty_chunk(offsets.shape[0])
    chunk["time"] = 0.0 if times is None else times
    chunk["offset"] = offsets
    chunk["length"] = lengths
    chunk["op"] = op
    chunk["origin"] = origin
    chunk["tenant"] = tenant
    return chunk


def conformant_mask(rows: np.ndarray, device_size: int,
                    owner_index=None) -> np.ndarray:
    """Which ``rows`` the vector write windows may serve.

    A conformant row is a foreground write of exactly one page,
    page-aligned and inside ``[0, device_size)``, untagged or — when
    the target passes its registry's ``owner_index`` (blocks -> tenant
    index, -1 = unowned) — tagged with the address's owner.  Every
    ``submit_chunk`` classifies its slice here, so anything else — a
    negative offset, a mis-owned tag, any tag on a target without a
    registry — reaches :func:`request_from_row` and is served, or
    fails, exactly as on the per-request path.
    """
    offsets = rows["offset"]
    tags = rows["tenant"]
    tag_ok = tags == NO_TENANT
    if owner_index is not None:
        tag_ok |= owner_index(offsets // PAGE_SIZE) == tags
    return ((rows["op"] == OP_WRITE)
            & (rows["length"] == PAGE_SIZE)
            & (rows["origin"] == ORIGIN_FG)
            & tag_ok
            & (offsets >= 0)
            & (offsets % PAGE_SIZE == 0)
            & (offsets + PAGE_SIZE <= device_size))


def run_bounds(breaks: np.ndarray) -> np.ndarray:
    """A ``[start, stop)`` row per run of a sequence one longer than
    ``breaks``, where ``breaks[i]`` says element ``i + 1`` starts one."""
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    return np.column_stack(
        (starts, np.append(starts[1:], breaks.shape[0] + 1)))


def op_of(code: int) -> Op:
    return OPS[code]


def origin_of(code: int) -> IoOrigin:
    return ORIGINS[code]


def request_from_row(row, tenant_names: Optional[List[str]] = None) -> Request:
    """Materialize one chunk row as a :class:`Request` (scalar oracle)."""
    # One item() call, not a numpy scalar per field: 3.4 -> 1.5 us a row.
    _, offset, length, op, origin, tenant_idx = row.item()
    tenant = (tenant_names[tenant_idx]
              if tenant_names is not None and tenant_idx >= 0 else None)
    return Request(OPS[op], offset, length, origin=ORIGINS[origin],
                   tenant=tenant)


def requests_from_chunk(chunk: np.ndarray,
                        tenant_names: Optional[List[str]] = None
                        ) -> Iterator[Request]:
    """Materialize a chunk as per-request objects, in row order.

    This is the scalar oracle's view of a chunked source: the request
    sequence is identical by construction, which is what lets the
    differential tests force both paths over the same workload.

    Columns are bulk-converted with ``tolist`` up front: one C loop per
    column instead of a numpy scalar extraction per field per row, which
    is what keeps the scalar engine path within a few percent of the
    historical object-at-a-time generators.
    """
    ops = chunk["op"].tolist()
    offsets = chunk["offset"].tolist()
    lengths = chunk["length"].tolist()
    origins = chunk["origin"].tolist()
    tenants = chunk["tenant"].tolist()
    for i in range(len(ops)):
        tenant_idx = tenants[i]
        tenant = (tenant_names[tenant_idx]
                  if tenant_names is not None and tenant_idx >= 0 else None)
        yield Request(OPS[ops[i]], offsets[i], lengths[i],
                      origin=ORIGINS[origins[i]], tenant=tenant)
